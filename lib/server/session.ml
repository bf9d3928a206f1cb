module Instance = Relational.Instance
module Fact = Relational.Fact

type t = {
  id : string;
  mutable doc : Cqa.Parse.document;
  mutable engine : Cqa.Engine.t;
  mutable digest : string;
  cache_keys : (string, unit) Hashtbl.t;
}

type store = (string, t) Hashtbl.t

let create_store () : store = Hashtbl.create 16
let count = Hashtbl.length

(* The digest keys the shared answer cache, so it must cover everything
   an answer depends on: the schema, facts, ICs, and the query
   definitions (a re-LOAD may redefine a query name — or a relation's
   attributes — over the same facts; ANALYZE output in particular
   depends on the schema alone, so omitting it would let a re-LOAD
   serve a stale memoized analysis).  The encoding is injective: every
   value carries a type tag and every string its length, so [1] and
   ["1"], or [null] and ["NULL"], never digest alike.  Schema, ICs and
   queries are plain data, for which [Marshal] without sharing is a
   faithful encoding; facts are walked in [Fact.compare] order, so equal
   documents digest alike whatever their row order. *)
let add_string b s =
  Buffer.add_int64_le b (Int64.of_int (String.length s));
  Buffer.add_string b s

let add_fact b (f : Fact.t) =
  add_string b f.rel;
  Buffer.add_int64_le b (Int64.of_int (Array.length f.row));
  Array.iter
    (fun (v : Relational.Value.t) ->
      match v with
      | Null -> Buffer.add_char b 'N'
      | Bool x -> Buffer.add_char b (if x then 'T' else 'F')
      | Int i ->
          Buffer.add_char b 'I';
          Buffer.add_int64_le b (Int64.of_int i)
      | Real r ->
          Buffer.add_char b 'R';
          Buffer.add_int64_le b (Int64.bits_of_float r)
      | Str s ->
          Buffer.add_char b 'S';
          add_string b s)
    f.row

let digest_of (doc : Cqa.Parse.document) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "load";
  add_string b
    (Marshal.to_string
       (Relational.Schema.relations doc.schema, doc.ics, doc.queries)
       [ Marshal.No_sharing ]);
  Instance.iter_sorted (add_fact b) doc.instance;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* An UPDATE chains the digest in O(|fact|) instead of re-reading the
   session: equal digests then mean the same LOAD followed by the same
   updates.  Equal contents reached by different paths stop sharing
   entries, which costs hits but never serves a stale answer. *)
let chain digest op fact =
  let b = Buffer.create 64 in
  Buffer.add_string b "update";
  Buffer.add_string b digest;
  Buffer.add_char b (match op with `Add -> '+' | `Del -> '-');
  add_fact b fact;
  Digest.to_hex (Digest.string (Buffer.contents b))

let engine_of (doc : Cqa.Parse.document) =
  Cqa.Engine.create ~schema:doc.schema ~ics:doc.ics doc.instance

let load store ~id doc =
  let t =
    {
      id;
      doc;
      engine = engine_of doc;
      digest = digest_of doc;
      cache_keys = Hashtbl.create 16;
    }
  in
  Hashtbl.replace store id t;
  t

let find store id = Hashtbl.find_opt store id

let close store id =
  if Hashtbl.mem store id then begin
    Hashtbl.remove store id;
    true
  end
  else false

let ids store =
  Hashtbl.fold (fun id _ acc -> id :: acc) store [] |> List.sort String.compare

let resident_facts store =
  Hashtbl.fold (fun _ t acc -> acc + Instance.size t.doc.instance) store 0

let tracked_keys store =
  Hashtbl.fold (fun _ t acc -> acc + Hashtbl.length t.cache_keys) store 0

let remember_key t key = Hashtbl.replace t.cache_keys key ()

let take_keys t =
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) t.cache_keys [] in
  Hashtbl.reset t.cache_keys;
  keys

let apply_update t ~op ~rel values =
  let fact = Fact.make rel values in
  match
    match op with
    | `Add -> Instance.add t.doc.instance fact
    | `Del -> Instance.delete_fact t.doc.instance fact
  with
  | exception Invalid_argument msg -> Error msg
  | instance ->
      t.doc <- { t.doc with instance };
      t.engine <- engine_of t.doc;
      t.digest <- chain t.digest op fact;
      Ok ()
