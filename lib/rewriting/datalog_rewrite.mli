(** Certain answers by a Datalog program — the paper's Datalog reading of
    the Koutris–Wijsen attack-graph analysis, run only for
    [method=datalog] and as a test oracle: [method=auto] answers the same
    acyclic tier with the first-order rewriting of {!Key_rewrite},
    compiled to columnar plans.

    For a self-join-free conjunctive query with an acyclic attack graph,
    certainty reduces one atom at a time: eliminating an unattacked atom
    [F = R(t̄)] turns "every repair satisfies the query" into "some key
    block of [R] is compatible with the context and {e every} tuple in it
    satisfies the comparisons and leaves a certain remainder".  Each level
    of the elimination order compiles to four nonrecursive, stratified
    rule groups over the raw database:

    {v
    ctx_i(W_i)            :- <all body atoms>.
    certain_i(W_i)        :- ctx_i(W_i), R(key̅, fresh̅), not bad_i(W_i, κ̅).
    bad_i(W_i, κ̅)         :- ctx_i(W_i), R(key̅, u̅), not good_i(W_i, κ̅, u̅).
    good_i(W_i, κ̅, u̅)     :- ctx_i(W_i), R(key̅, u̅), <comps>, certain_i+1(...).
    v}

    where [W_i] is the context — the variables shared between the already
    eliminated prefix (plus the free variables) and the remaining suffix
    (plus pending comparisons) — and κ̅ are the key variables first bound
    at this level.  Repeated variables inside an atom, free variables in
    non-key joins, and constants all compile to per-tuple comparisons in
    [good_i].  The program runs on {!Datalog.Eval} (seminaive, stratified
    negation).

    Caveat: Datalog matching treats NULL as an ordinary constant, unlike
    the SQL three-valued semantics of {!Logic.Cq.answers} used by repair
    enumeration, so {!consistent_answers} declines instances containing
    NULL rather than diverge. *)

val goal_pred : string
(** Predicate holding the answer tuples of the rewritten program. *)

val rewrite :
  ?prefix:Datalog.Rule.t list ->
  Logic.Cq.t ->
  keys:(string * int list) list ->
  order:int list ->
  (Datalog.Program.t * string) option
(** The rewritten program and its goal predicate.  [order] is an
    unattacked-atom elimination order over [q.body] (from
    {!Analysis.Attack_graph.rewriting_input}); [prefix] prepends the
    saturation helper rules.  [None] when the query is not self-join-free,
    not safe, has an empty body, or [order] is not a permutation of the
    body. *)

val consistent_answers :
  ?prefix:Datalog.Rule.t list ->
  Logic.Cq.t ->
  keys:(string * int list) list ->
  order:int list ->
  Relational.Instance.t ->
  Relational.Value.t list list option
(** Evaluate the rewriting on an instance: distinct answer tuples, sorted
    like {!Logic.Cq.answers}.  [None] when {!rewrite} declines or the
    instance contains NULL. *)
