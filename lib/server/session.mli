(** Sessions: named, resident {!Cqa.Engine} instances.

    A session binds a client-chosen id to a loaded document and the
    engine built over it.  Sessions outlive connections — that is the
    point of the serving layer: the parse and engine construction cost is
    paid once per LOAD and amortized over many requests.  Each session
    carries a digest (the memoization key prefix, see {!Handler}) — set
    by {!digest_of} at LOAD and chained by every {!apply_update} — and
    remembers which cache keys were inserted on its behalf so an UPDATE
    can invalidate exactly them. *)

type t = {
  id : string;
  mutable doc : Cqa.Parse.document;
  mutable engine : Cqa.Engine.t;
  mutable digest : string;
  cache_keys : (string, unit) Hashtbl.t;
}

type store

val create_store : unit -> store
val count : store -> int

val load : store -> id:string -> Cqa.Parse.document -> t
(** Create or replace the session named [id]. *)

val find : store -> string -> t option

val close : store -> string -> bool
(** [false] if no such session. *)

val ids : store -> string list
(** Sorted, for STATS output. *)

val resident_facts : store -> int
(** Total facts held by resident instances across all sessions — the
    [sessions.resident_facts] gauge. *)

val tracked_keys : store -> int
(** Cache keys currently recorded against any session (each is an entry
    an UPDATE would invalidate) — the [sessions.tracked_keys] gauge. *)

val digest_of : Cqa.Parse.document -> string
(** Hex MD5 over an injective encoding of the schema, the ICs, the query
    definitions and the facts (in {!Relational.Fact.compare} order; each
    value tagged with its type, each string prefixed with its length),
    so [1] and ["1"], or [null] and ["NULL"], never digest alike.  One
    pass over the facts, no sort, no [Format]; equal documents digest
    alike, so sessions loaded from them share cache entries. *)

val remember_key : t -> string -> unit
(** Record that a cache entry with this key was inserted for this
    session. *)

val take_keys : t -> string list
(** The recorded cache keys; clears the record. *)

val apply_update :
  t -> op:[ `Add | `Del ] -> rel:string -> Relational.Value.t list ->
  (unit, string) result
(** Insert or delete one fact, rebuild the engine and chain the digest
    in O(|fact|): MD5 of the old digest, the operation and the encoded
    fact.  Equal digests thus mean the same LOAD followed by the same
    updates; equal contents reached by different updates stop sharing
    cache entries.  Errors (unknown relation, arity mismatch) leave the
    session unchanged. *)
