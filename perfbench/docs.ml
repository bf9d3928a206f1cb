(* The benchmark's inputs, generated from the seed, and the oracles that
   check the program's outputs against answers known by construction.
   The program only ever sees the rendered .cqa text. *)

(* ---- the FO-tier key-conflict database --------------------------------

   T(k, v, l) keyed on k, S(v, w) keyed on v, clean, and missing for a
   tenth of the values.  A share of the keys carries a second claimant,
   half of them with the same v (so every query that only reads v keeps
   the key certain) and half with another v.  Certain answers, by
   construction:
   - proj(X) :- T(X, V, L): every key;
   - chain(X) :- T(X, V, L), S(V, W): the keys all of whose claimants
     reach S;
   - at<v>(X) :- T(X, v, L): the keys whose claimants all carry v. *)

type fo = {
  keys : int;
  values : int;
  first : (int * int) array;  (** (v, l) of each key's first claimant *)
  second : (int * int) option array;  (** its second claimant, if any *)
  w_of : int option array;  (** S(v, w), if v has an S tuple *)
  all_v : int array;  (** per v: keys whose every claimant carries v *)
  mutable chain_rows : int;  (** keys all of whose claimants reach S *)
  mutable facts : int;
}

let l_range = 1000

let chain_of m k =
  let reaches (v, _) = Option.is_some m.w_of.(v) in
  reaches m.first.(k) && Option.fold ~none:true ~some:reaches m.second.(k)

let uniform_v m k =
  let v1, _ = m.first.(k) in
  match m.second.(k) with
  | Some (v2, _) when v2 <> v1 -> None
  | _ -> Some v1

(* A second claimant for [k]: half the time the first claimant's v with
   another l, otherwise another v. *)
let fresh_second m rng k =
  let v1, l1 = m.first.(k) in
  if Random.State.bool rng then
    (v1, (l1 + 1 + Random.State.int rng (l_range - 1)) mod l_range)
  else
    ( (v1 + 1 + Random.State.int rng (m.values - 1)) mod m.values,
      Random.State.int rng l_range )

(* Count key [k] into (or, with [d] = -1, out of) the per-query totals. *)
let account m k d =
  if chain_of m k then m.chain_rows <- m.chain_rows + d;
  match uniform_v m k with
  | Some v -> m.all_v.(v) <- m.all_v.(v) + d
  | None -> ()

(* Give key [k] the second claimant [second] (or none). *)
let set_second m k second =
  account m k (-1);
  (match (m.second.(k), second) with
  | None, Some _ -> m.facts <- m.facts + 1
  | Some _, None -> m.facts <- m.facts - 1
  | _ -> ());
  m.second.(k) <- second;
  account m k 1

let fo_model ~seed ~keys ~values ~conflict =
  let rng = Random.State.make [| seed; keys; 0xf0 |] in
  let first =
    Array.init keys (fun _ ->
        (Random.State.int rng values, Random.State.int rng l_range))
  in
  let w_of =
    Array.init values (fun _ ->
        if Random.State.int rng 10 = 0 then None
        else Some (Random.State.int rng 1000))
  in
  let m =
    {
      keys;
      values;
      first;
      second = Array.make keys None;
      w_of;
      all_v = Array.make values 0;
      chain_rows = 0;
      facts =
        keys + List.length (List.filter Option.is_some (Array.to_list w_of));
    }
  in
  for k = 0 to keys - 1 do
    account m k 1;
    if Random.State.float rng 1.0 < conflict then
      set_second m k (Some (fresh_second m rng k))
  done;
  m

let copy_fo m =
  { m with second = Array.copy m.second; all_v = Array.copy m.all_v }

(* Add or drop [k]'s second claimant; returns the UPDATE's fact text. *)
let toggle m rng k =
  let next, op, (v, l) =
    match m.second.(k) with
    | Some c -> (None, "del", c)
    | None ->
        let c = fresh_second m rng k in
        (Some c, "add", c)
  in
  set_second m k next;
  Printf.sprintf "%s T(%d, %d, %d)" op k v l

let fo_text ?(point_queries = true) m =
  let b = Buffer.create (m.facts * 24) in
  Buffer.add_string b "relation T(k, v, l)\nrelation S(v, w)\n";
  Array.iteri
    (fun k (v, l) ->
      Printf.bprintf b "row T(%d, %d, %d)\n" k v l;
      Option.iter
        (fun (v, l) -> Printf.bprintf b "row T(%d, %d, %d)\n" k v l)
        m.second.(k))
    m.first;
  Array.iteri
    (fun v w -> Option.iter (Printf.bprintf b "row S(%d, %d)\n" v) w)
    m.w_of;
  Buffer.add_string b "key T(k)\nkey S(v)\n";
  Buffer.add_string b "query proj(X) :- T(X, V, L)\n";
  Buffer.add_string b "query chain(X) :- T(X, V, L), S(V, W)\n";
  if point_queries then
    for v = 0 to m.values - 1 do
      Printf.bprintf b "query at%d(X) :- T(X, %d, L)\n" v v
    done;
  Buffer.contents b

(* ---- checking FO answers ---------------------------------------------- *)

(* Each body line must name a distinct key that belongs in the answer,
   and the count must match: O(lines), no sorting. *)
type checker = { seen : int array; mutable stamp : int }

let checker keys = { seen = Array.make keys 0; stamp = 0 }

let fresh_key c k =
  if k < 0 || k >= Array.length c.seen || c.seen.(k) = c.stamp then false
  else begin
    c.seen.(k) <- c.stamp;
    true
  end

let check_lines c ~expected ~line_ok lines =
  c.stamp <- c.stamp + 1;
  let rec go n = function
    | [] -> n = expected
    | l :: rest -> line_ok l && go (n + 1) rest
  in
  go 0 lines

let int_key c s =
  match int_of_string_opt s with Some k -> fresh_key c k | None -> false

let check_proj m c lines =
  check_lines c ~expected:m.keys ~line_ok:(int_key c) lines

let check_point m c v lines =
  check_lines c ~expected:m.all_v.(v)
    ~line_ok:(fun s ->
      match int_of_string_opt s with
      | Some k -> fresh_key c k && uniform_v m k = Some v
      | None -> false)
    lines

let check_chain m c lines =
  check_lines c ~expected:m.chain_rows
    ~line_ok:(fun s ->
      match int_of_string_opt s with
      | Some k -> fresh_key c k && chain_of m k
      | None -> false)
    lines

(* ---- the tier documents ----------------------------------------------- *)

type doc = {
  name : string;  (** item name, also the query name *)
  text : string;
  expected : string list;  (** sorted answer lines *)
  facts : int;
}

(* A seeded bijection from the constants that occur onto [0, n):
   relabelling every constant keeps a document's structure (and its
   known answers) while its text, tuple order and hash layout change
   with the seed. *)
let relabel rng values =
  let distinct = List.sort_uniq compare values in
  let target = Array.init (List.length distinct) Fun.id in
  Harness.shuffle rng target;
  let map = Hashtbl.create (Array.length target) in
  List.iteri (fun i v -> Hashtbl.replace map v target.(i)) distinct;
  Hashtbl.find map

let sorted_lines l = List.sort String.compare l

let rows_text b rel rows =
  List.iter
    (fun row ->
      Printf.bprintf b "row %s(%s)\n" rel
        (String.concat ", " (List.map string_of_int row)))
    rows

let shuffled rng l =
  let a = Array.of_list l in
  Harness.shuffle rng a;
  Array.to_list a

(* The L-tier query of the trichotomy: q(x) :- R(x, y), S(y, x) with
   every 4th key carrying a second claimant whose partner does not point
   back, so exactly the other keys are certain.  Planned as
   datalog_rewriting. *)
let pair_doc ~seed ~n =
  let rng = Random.State.make [| seed; 0xb19 |] in
  let f = relabel rng (List.init (2 * n) Fun.id) in
  let r =
    List.concat_map
      (fun i ->
        let base = [ f i; f (n + i) ] in
        if i mod 4 = 0 then [ base; [ f i; f (n + ((i + 1) mod n)) ] ]
        else [ base ])
      (List.init n Fun.id)
  in
  let s = List.init n (fun i -> [ f (n + i); f i ]) in
  let b = Buffer.create (n * 40) in
  Buffer.add_string b "relation R(a, b)\nrelation S(b, a)\n";
  rows_text b "R" (shuffled rng r);
  rows_text b "S" (shuffled rng s);
  Buffer.add_string b
    "key R(a)\nkey S(b)\nquery pair(X) :- R(X, Y), S(Y, X)\n";
  {
    name = "pair";
    text = Buffer.contents b;
    expected =
      sorted_lines
        (List.filter_map
           (fun i -> if i mod 4 = 0 then None else Some (string_of_int (f i)))
           (List.init n Fun.id));
    facts = List.length r + n;
  }

(* Workload.Gen's hard join (R(a, b), S(c, d), keys on a and c), with
   its certain answers to hardx(X) :- R(X, Y), S(Z, Y) known by
   construction, the constants relabelled by a seeded bijection.
   Planned as datalog_rewriting. *)
let hardx_doc ~seed ~n ~conflict =
  let rng = Random.State.make [| seed; n; 0x4a2d |] in
  let inst, _, certain =
    Workload.Gen.hard_join_instance ~n ~conflict_fraction:conflict ()
  in
  let ints rel =
    List.map
      (fun row ->
        Array.to_list
          (Array.map
             (function
               | Relational.Value.Int i -> i
               | v ->
                   invalid_arg ("hardx_doc: " ^ Relational.Value.to_string v))
             row))
      (Relational.Instance.rows inst ~rel)
  in
  let r = ints "R" and s = ints "S" in
  let f = relabel rng (List.concat (r @ s)) in
  let b = Buffer.create (n * 24) in
  Buffer.add_string b "relation R(a, b)\nrelation S(c, d)\n";
  rows_text b "R" (shuffled rng (List.map (List.map f) r));
  rows_text b "S" (shuffled rng (List.map (List.map f) s));
  Buffer.add_string b
    "key R(a)\nkey S(c)\nquery hardx(X) :- R(X, Y), S(Z, Y)\n";
  {
    name = "hardx";
    text = Buffer.contents b;
    expected =
      sorted_lines
        (List.map
           (function
             | [ Relational.Value.Int x ] -> string_of_int (f x)
             | _ -> invalid_arg "hardx_doc: answer shape")
           certain);
    facts = List.length r + List.length s;
  }

(* The Boolean hard join bhard() :- R(X, Y), S(Z, Y) over [gadgets]
   blocks R(k, a), R(k, b), S(s, a), S(s, b): a repair keeps one tuple
   of each key group, and the join survives in a block only when both
   choices agree, so the repair choosing a in R and b in S everywhere
   kills every witness -- the query is not certain, and no witness is
   clean, so the SAT backend has to build that repair variable by
   variable.  The attack graph is cyclic: planned as sat_compilation. *)
let bhard_doc ~seed ~gadgets =
  let rng = Random.State.make [| seed; gadgets; 0xb4a2 |] in
  let f = relabel rng (List.init (4 * gadgets) Fun.id) in
  let join i side = f ((2 * gadgets) + (2 * i) + side) in
  let block k i = [ [ k; join i 0 ]; [ k; join i 1 ] ] in
  let r = List.concat (List.init gadgets (fun i -> block (f i) i)) in
  let s = List.concat (List.init gadgets (fun i -> block (f (gadgets + i)) i)) in
  let b = Buffer.create (gadgets * 80) in
  Buffer.add_string b "relation R(a, b)\nrelation S(c, d)\n";
  rows_text b "R" (shuffled rng r);
  rows_text b "S" (shuffled rng s);
  Buffer.add_string b
    "key R(a)\nkey S(c)\nquery bhard() :- R(X, Y), S(Z, Y)\n";
  {
    name = "bhard";
    text = Buffer.contents b;
    expected = [];
    facts = 4 * gadgets;
  }

(* The overpaid denial constraint: [conflicts] employees out-earn their
   own-boss manager, one conflict each, so there are 2^conflicts
   S-repairs; every other employee (and every manager outside a
   conflict) is certain.  No key, so method=auto enumerates repairs. *)
let denial_doc ~seed ~conflicts ~managers ~clean =
  let rng = Random.State.make [| seed; 0xdc |] in
  let total = conflicts + managers + clean in
  let f = relabel rng (List.init total Fun.id) in
  let name i = Printf.sprintf "e%d" (f i) in
  (* ids: managers first, then the overpaid, then the clean *)
  let over i = managers + i and emp j = managers + conflicts + j in
  let salary m = 5000 + (m * 10) in
  let rows =
    List.init managers (fun m -> (name m, salary m, name m))
    @ List.init conflicts (fun i ->
          (name (over i), salary i + 1 + Random.State.int rng 900, name i))
    @ List.init clean (fun j ->
          let m = Random.State.int rng managers in
          ( name (emp j),
            1000 + Random.State.int rng (salary m - 1000),
            name m ))
  in
  let b = Buffer.create (total * 32) in
  Buffer.add_string b "relation Emp(name, salary, boss)\n";
  Buffer.add_string b "dc overpaid: Emp(X, S1, Y), Emp(Y, S2, Z), S1 > S2\n";
  List.iter
    (fun (n, s, m) -> Printf.bprintf b "row Emp(%s, %d, %s)\n" n s m)
    (shuffled rng rows);
  Buffer.add_string b "query denial(X) :- Emp(X, S, B)\n";
  {
    name = "denial";
    text = Buffer.contents b;
    expected =
      sorted_lines
        (List.init (managers - conflicts) (fun j -> name (conflicts + j))
        @ List.init clean (fun j -> name (emp j)));
    facts = total;
  }
