(** The per-(constraints, query) complexity classifier — the static
    tractability test behind [method=auto].

    For self-join-free conjunctive queries under primary keys, the
    Koutris–Wijsen trichotomy (PAPER.md Section 3; built on the
    Fuxman–Miller dichotomy of Section 3.1) separates three tiers by the
    shape of the query's {!Attack_graph}: an acyclic attack graph means
    the certain answers are first-order rewritable (Wijsen 2012); a cycle
    of weak attacks leaves certainty in PTIME (L-complete); a cycle with a
    strong attack makes it coNP-complete.  The classifier is symbolic — no
    data touched — and returns a verdict plus a machine-readable witness:
    the attacking cycle, the elimination order, the non-key constraint,
    the self-joined relation, ...

    Soundness contract: when the verdict is {!Fo_rewritable}, the
    elimination-order rewriting of {!Rewriting.Key_rewrite} with
    {!rewrite_keys} applies and produces exactly the consistent answers
    (on NULL-bearing instances, within the fragment its
    [null_hazard] admits).  {!Conp_hard} is a sound {e lower} bound: the
    witness names a 2-cycle with a strong attack, the configuration of the
    trichotomy's hardness reduction.  [Unknown] covers everything the
    analysis does not decide, including weak attack cycles (PTIME in
    principle, but no rewriting for that tier is implemented). *)

type verdict = Fo_rewritable | Conp_hard | Unknown

type witness =
  | No_constraints  (** No constraint touches the query's relations. *)
  | Attack_acyclic of string list
      (** Acyclic attack graph: the unattacked-atom elimination order
          (relation names) the FO rewriting follows. *)
  | Strong_attack_cycle of string list
      (** A 2-cycle with at least one strong attack — the coNP-hardness
          witness. *)
  | Weak_attack_cycle of string list
      (** An attack cycle all of whose attacks are weak: PTIME per the
          trichotomy, outside the implemented rewritings. *)
  | Cross_atom_comparison of string
      (** A comparison whose non-free variables span two atoms: an
          implicit join the attack graph cannot see. *)
  | Unsafe_query of string  (** Head or comparison variable unbound in the body. *)
  | Non_key_constraint of string  (** A relevant constraint outside the key class. *)
  | Multiple_keys of string  (** Relation with two key constraints. *)
  | Self_join of string
      (** Relation occurring in two atoms: the trichotomy assumes
          self-join-freeness, classification falls back to [Unknown] (and
          {!Lint.query_findings} surfaces the degradation). *)
  | Union_query of int  (** UCQ with that many disjuncts. *)

type t = { verdict : verdict; witness : witness }

val classify : Constraints.Ic.t list -> Logic.Cq.t -> t
val classify_ucq : Constraints.Ic.t list -> Logic.Ucq.t -> t

val rewrite_keys : Constraints.Ic.t list -> Logic.Cq.t -> (string * int list) list
(** The key map to drive the rewritings with: declared keys for the
    query's relations, and a synthesized all-attribute key for query
    relations no relevant constraint touches (such relations are never
    repaired, so the full tuple acts as its own key). *)

val verdict_label : verdict -> string
(** ["FO_rewritable"], ["coNP_hard"], ["unknown"]. *)

val witness_code : witness -> string
(** Stable machine-readable code, e.g. ["attack-graph/strong-cycle"]. *)

val describe : t -> string
(** One line: verdict, witness code and the witness itself. *)

val to_lines : t -> string list
(** Deterministic multi-line rendering for ANALYZE / EXPLAIN output. *)

val ucq_rewriting_diagnostic : Constraints.Ic.t list -> Logic.Ucq.t -> string
(** Why [method=rewriting] does not apply to this union query — names the
    failing condition of the first offending disjunct (e.g. its attack
    cycle), or the absence of a union rewriting when every disjunct is
    individually rewritable. *)
