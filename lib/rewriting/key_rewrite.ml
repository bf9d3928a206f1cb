module Formula = Logic.Formula
module Cq = Logic.Cq
module Atom = Logic.Atom
module Term = Logic.Term
module Cmp = Logic.Cmp
module Subst = Logic.Subst
module Attack_graph = Analysis.Attack_graph
module Instance = Relational.Instance

exception Unsupported

let c_applicable = Obs.Counter.make "rewrite.key_applicable"
let c_unsupported = Obs.Counter.make "rewrite.key_unsupported"

let key_positions = Attack_graph.key_positions

let whole_key keys (a : Atom.t) =
  List.for_all
    (fun p -> List.mem p (key_positions keys a))
    (List.init (Atom.arity a) Fun.id)

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let rewrite (q : Cq.t) ~keys =
  let rels = List.map (fun (a : Atom.t) -> a.Atom.rel) q.body in
  if
    q.body = []
    || List.length (List.sort_uniq String.compare rels) <> List.length rels
    || (not
          (subset
             (Cq.head_vars q @ List.concat_map Cmp.vars q.comps)
             (Cq.body_vars q)))
    || Attack_graph.cross_atom_comparison q <> None
    || List.exists
         (fun r -> List.length (List.filter (fun (r', _) -> r = r') keys) > 1)
         rels
  then raise Unsupported;
  let order =
    match (Attack_graph.analyze q ~keys).order with
    | Some order -> order
    | None -> raise Unsupported
  in
  let atoms = Array.of_list (List.map (List.nth q.body) order) in
  let n = Array.length atoms in
  (* before.(l): the variables bound ahead of level l — the free ones and
     those of the atoms eliminated earlier. *)
  let before = Array.make (n + 1) (Cq.head_vars q) in
  for l = 0 to n - 1 do
    before.(l + 1) <-
      before.(l)
      @ List.filter (fun v -> not (List.mem v before.(l))) (Atom.vars atoms.(l))
  done;
  (* The comparisons that become ground at level l. *)
  let cmps s l =
    List.filter_map
      (fun c ->
        let vs = Cmp.vars c in
        if subset vs before.(l + 1) && not (subset vs before.(l)) then
          Some (Formula.Cmp (Subst.apply_cmp s c))
        else None)
      q.comps
  in
  let counter = ref 0 in
  let fresh base =
    incr counter;
    Printf.sprintf "%s#%d" base !counter
  in
  (* Conjuncts for levels l.. once [s] names the variables bound ahead of
     level l: the level's generator with its new variables renamed fresh,
     then its guard — or, for an atom keyed on its whole tuple (never
     repaired), its comparisons and the next level in the same
     conjunction.  Also returns the fresh names the enclosing ∃ binds. *)
  let rec level l s =
    if l = n then ([], [])
    else
      let a = atoms.(l) in
      let s, vs =
        List.fold_left
          (fun (s, vs) v ->
            if List.mem v before.(l) then (s, vs)
            else
              let v' = fresh v in
              (Subst.bind s v (Term.Var v'), vs @ [ v' ]))
          (s, []) (Atom.vars a)
      in
      let gen = Formula.Atom (Subst.apply_atom s a) in
      if whole_key keys a then
        let items, vs' = level (l + 1) s in
        ((gen :: cmps s l) @ items, vs @ vs')
      else (gen :: guard l s, vs)
  (* ∀ū (A(key, ū) → ∃v̄ (conds ∧ comparisons ∧ next level)), where every
     non-key variable first seen here is read off the mate. *)
  and guard l s =
    let a = atoms.(l) in
    let keyp = key_positions keys a in
    let key_vars =
      Term.vars (List.filteri (fun p _ -> List.mem p keyp) a.Atom.args)
    in
    let _, s', rev_args, us, conds =
      List.fold_left
        (fun (p, s', args, us, conds) t ->
          if List.mem p keyp then
            (p + 1, s', Subst.apply_term s t :: args, us, conds)
          else
            let u = fresh "u" in
            let eq t = [ Formula.Cmp (Cmp.eq (Term.Var u) t) ] in
            let s', conds =
              match t with
              | Term.Var v
                when not
                       (List.mem v before.(l) || List.mem v key_vars
                      || Subst.find s' v <> Subst.find s v) ->
                  (Subst.bind s' v (Term.Var u), conds)
              | t -> (s', conds @ eq (Subst.apply_term s' t))
            in
            (p + 1, s', Term.Var u :: args, us @ [ u ], conds))
        (0, s, [], [], []) a.Atom.args
    in
    let items, vs = level (l + 1) s' in
    match conds @ cmps s' l @ items with
    | [] -> []
    | body ->
        [
          Formula.Forall
            ( us,
              Formula.Implies
                ( Formula.Atom (Atom.make a.Atom.rel (List.rev rev_args)),
                  Formula.Exists (vs, Formula.conj body) ) );
        ]
  in
  (* The top conjunction binds every variable, so leading whole-key atoms
     need no further check. *)
  let rec top l =
    if l = n then []
    else if whole_key keys atoms.(l) then top (l + 1)
    else guard l Subst.empty
  in
  Formula.exists (Cq.existential_vars q)
    (Formula.conj
       (List.map (fun a -> Formula.Atom a) q.body
       @ List.map (fun c -> Formula.Cmp c) q.comps
       @ top 0))

let rewrite q ~keys =
  let sp = Obs.Trace.start "rewrite.key" in
  let result = try Some (rewrite q ~keys) with Unsupported -> None in
  (match result with
  | Some _ -> Obs.Counter.incr c_applicable
  | None -> Obs.Counter.incr c_unsupported);
  if Obs.Trace.is_enabled () then
    Obs.Trace.attr "applicable" (if result = None then "no" else "yes");
  Obs.Trace.finish sp;
  result

(* Some key block of [rel] (non-NULL key) with two or more tuples, one of
   them holding a NULL: the NULL rows come off the columnar bitmaps, their
   blocks from the key index. *)
let null_in_shared_block inst ~rel cols keyp =
  let shared i =
    Array.exists (fun c -> Relational.Column.is_null c i) cols
    &&
    let bound =
      List.map (fun p -> (p, Relational.Column.get cols.(p) i)) keyp
    in
    List.length (Instance.matching_tuples inst ~rel ~bound) > 1
  in
  let n = Relational.Column.length cols.(0) in
  let rec go i = i < n && (shared i || go (i + 1)) in
  go 0

let null_hazard (q : Cq.t) ~keys inst =
  let schema = Instance.schema inst in
  let args = List.concat_map (fun (a : Atom.t) -> a.Atom.args) q.body in
  let free_once t =
    Term.vars [ t ] <> []
    && subset (Term.vars [ t ]) (Cq.head_vars q)
    && List.length (List.filter (Term.equal t) args) = 1
  in
  let atom_hazard (a : Atom.t) =
    let rel = a.Atom.rel in
    let tbl = Instance.columnar inst ~rel in
    let cols =
      Array.map (Relational.Columnar.column tbl)
        (Relational.Schema.relation schema rel).attributes
    in
    let keyp = key_positions keys a and keyed = not (whole_key keys a) in
    let shared = lazy (null_in_shared_block inst ~rel cols keyp) in
    List.find_map
      (fun (p, t) ->
        let why what = Some (Printf.sprintf "NULL %s of %s" what rel) in
        if not (Relational.Column.has_nulls cols.(p)) then None
        else if free_once t then
          why (Format.asprintf "under head variable %a" Term.pp t)
        else if keyed && List.mem p keyp && Term.vars [ t ] <> [] then
          why "in a key position"
        else if keyed && Lazy.force shared then
          why "in a key block with two or more tuples"
        else None)
      (List.mapi (fun p t -> (p, t)) a.Atom.args)
  in
  List.find_map
    (fun (a : Atom.t) ->
      if
        Relational.Schema.mem schema a.Atom.rel
        && Relational.Schema.arity schema a.Atom.rel = Atom.arity a
      then atom_hazard a
      else None)
    q.body

let consistent_answers q ~keys inst =
  match rewrite q ~keys with
  | Some f when null_hazard q ~keys inst = None ->
      Some
        (Obs.Trace.with_span "rewrite.eval" (fun () ->
             Formula.answers inst ~free:(Cq.head_vars q) f))
  | _ -> None
