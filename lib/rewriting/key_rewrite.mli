(** First-order CQA rewriting under primary keys: Wijsen's unattacked-atom
    elimination (TODS 2012; Koutris–Wijsen 2017, PAPERS.md), which
    subsumes the Fuxman–Miller C-forest rewriting of the paper's
    Section 3.2 and answers projections like Q2, where {!Residue_rewrite}
    is incomplete.  Supported: safe, self-join-free conjunctive queries
    with an acyclic attack graph and atom-local comparisons — the
    classifier's [Fo_rewritable] tier.  Relations missing from [keys] key
    on their whole tuple.

    Along the elimination order [a1, ..., an] the formula is
    {v
    ∃ȳ ( body atoms ∧ comparisons ∧ G1 )
    Gl = ∀ū ( al(key, ū) → ∃v̄ ( condsl ∧ al+1(...) ∧ Gl+1 ) )
    v}
    where [condsl] equates constants and already-bound or repeated
    variables at non-key positions with the mate's [ū] and applies the
    comparisons that become ground at level [l], and [al+1] is a generator
    with fresh variable names.  The [∃] is always present (possibly
    binding nothing): being two-valued, it makes a mate refute exactly
    when it is not definitely good.  Atoms keyed on their whole tuple are
    never repaired and need no guard.

    NULLs: repairs compare keys and values with SQL equality, so a NULL
    never conflicts.  The rewriting is exact unless, in a relation the
    query reads, a NULL sits in a key position holding a variable, in a
    key block with two or more tuples, or under a head variable that
    occurs once; {!null_hazard} detects these from the columnar NULL
    bitmaps. *)

val rewrite :
  Logic.Cq.t -> keys:(string * int list) list -> Logic.Formula.t option
(** [None] outside the supported class. *)

val null_hazard :
  Logic.Cq.t -> keys:(string * int list) list -> Relational.Instance.t ->
  string option
(** Why the rewriting is not exact on this instance, if it is not. *)

val consistent_answers :
  Logic.Cq.t ->
  keys:(string * int list) list ->
  Relational.Instance.t ->
  Relational.Value.t list list option
(** [None] outside the supported class or when {!null_hazard} objects. *)
