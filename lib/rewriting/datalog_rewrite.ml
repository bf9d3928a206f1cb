module Cq = Logic.Cq
module Atom = Logic.Atom
module Term = Logic.Term
module Cmp = Logic.Cmp
module Value = Relational.Value
module VSet = Set.Make (String)

let goal_pred = "cqa$ans"
let c_applicable = Obs.Counter.make "rewrite.datalog_applicable"
let c_unsupported = Obs.Counter.make "rewrite.datalog_unsupported"

let ctx_pred l = Printf.sprintf "cqa$ctx%d" l
let certain_pred l = Printf.sprintf "cqa$certain%d" l
let bad_pred l = Printf.sprintf "cqa$bad%d" l
let good_pred l = Printf.sprintf "cqa$good%d" l

(* Fresh per-(level, position) variables; the '$' keeps them disjoint from
   anything the parser can produce. *)
let u_name l pos = Printf.sprintf "u$%d_%d" l pos
let e_name l pos = Printf.sprintf "e$%d_%d" l pos

let key_positions = Analysis.Attack_graph.key_positions

exception Unsupported

let rewrite_exn ~prefix (q : Cq.t) ~keys ~order =
  let atoms = Array.of_list q.body in
  let n = Array.length atoms in
  if n = 0 then raise Unsupported;
  if List.sort compare order <> List.init n Fun.id then raise Unsupported;
  let rels = List.map (fun (a : Atom.t) -> a.Atom.rel) q.body in
  if List.length rels <> List.length (List.sort_uniq String.compare rels)
  then raise Unsupported;
  let head_vars = Cq.head_vars q in
  let body_vars = Cq.body_vars q in
  List.iter
    (fun v -> if not (List.mem v body_vars) then raise Unsupported)
    (head_vars @ List.concat_map Cmp.vars q.comps);
  let ordered = Array.of_list (List.map (fun i -> atoms.(i)) order) in
  (* 1-based level at which a variable is first bound. *)
  let first_level v =
    let rec go l =
      if l > n then raise Unsupported
      else if List.mem v (Atom.vars ordered.(l - 1)) then l
      else go (l + 1)
    in
    go 1
  in
  (* Each comparison applies at the first level where all its variables
     are bound, inside the per-tuple check of that level. *)
  let comps_at = Array.make (n + 1) [] in
  List.iter
    (fun c ->
      let l =
        List.fold_left (fun acc v -> max acc (first_level v)) 1 (Cmp.vars c)
      in
      comps_at.(l - 1) <- comps_at.(l - 1) @ [ c ])
    q.comps;
  (* W_l: variables the eliminated prefix (and the free variables) share
     with the remaining suffix atoms and still-pending comparisons. *)
  let w = Array.make (n + 2) [] in
  for l = 1 to n + 1 do
    let suffix = ref VSet.empty in
    for m = l to n do
      suffix := VSet.union !suffix (VSet.of_list (Atom.vars ordered.(m - 1)));
      List.iter
        (fun c -> suffix := VSet.union !suffix (VSet.of_list (Cmp.vars c)))
        comps_at.(m - 1)
    done;
    let prior = ref (VSet.of_list head_vars) in
    for m = 1 to l - 1 do
      prior := VSet.union !prior (VSet.of_list (Atom.vars ordered.(m - 1)))
    done;
    w.(l) <- VSet.elements (VSet.inter !suffix !prior)
  done;
  let var_atom p vs = Atom.make p (List.map Term.var vs) in
  let rules = ref [] in
  let add r = rules := r :: !rules in
  (* Empty remainder: always certain. *)
  add (Datalog.Rule.make (var_atom (certain_pred (n + 1)) w.(n + 1)) []);
  add
    (Datalog.Rule.make
       (Atom.make goal_pred q.head)
       [ var_atom (certain_pred 1) w.(1) ]);
  for l = 1 to n do
    let a = ordered.(l - 1) in
    let ps = key_positions keys a in
    let bound = VSet.of_list w.(l) in
    add (Datalog.Rule.make (var_atom (ctx_pred l) w.(l)) q.body);
    (* Key variables first bound at this level, in position order. *)
    let kappa = ref [] in
    List.iteri
      (fun pos t ->
        if List.mem pos ps then
          match t with
          | Term.Var v
            when (not (VSet.mem v bound)) && not (List.mem v !kappa) ->
              kappa := !kappa @ [ v ]
          | Term.Var _ | Term.Const _ -> ())
      a.Atom.args;
    let kappa = !kappa in
    let exist_args =
      List.mapi
        (fun pos t -> if List.mem pos ps then t else Term.var (e_name l pos))
        a.Atom.args
    in
    let block_args =
      List.mapi
        (fun pos t -> if List.mem pos ps then t else Term.var (u_name l pos))
        a.Atom.args
    in
    let us =
      List.init (Atom.arity a) Fun.id
      |> List.filter (fun pos -> not (List.mem pos ps))
      |> List.map (u_name l)
    in
    (* certain_l: some block of R is compatible with the context and no
       tuple of it fails. *)
    add
      (Datalog.Rule.make
         ~neg:[ var_atom (bad_pred l) (w.(l) @ kappa) ]
         (var_atom (certain_pred l) w.(l))
         [ var_atom (ctx_pred l) w.(l); Atom.make a.Atom.rel exist_args ]);
    (* bad_l: the block contains a tuple that is not good. *)
    add
      (Datalog.Rule.make
         ~neg:[ var_atom (good_pred l) (w.(l) @ kappa @ us) ]
         (var_atom (bad_pred l) (w.(l) @ kappa))
         [ var_atom (ctx_pred l) w.(l); Atom.make a.Atom.rel block_args ]);
    (* good_l: the tuple matches the atom's constants and repeated
       variables, satisfies the comparisons due at this level, and leaves
       a certain remainder. *)
    let sigma = Hashtbl.create 4 in
    let comps = ref [] in
    List.iteri
      (fun pos t ->
        if not (List.mem pos ps) then
          let u = Term.var (u_name l pos) in
          match t with
          | Term.Const _ -> comps := !comps @ [ Cmp.eq u t ]
          | Term.Var v -> (
              if VSet.mem v bound || List.mem v kappa then
                comps := !comps @ [ Cmp.eq u (Term.var v) ]
              else
                match Hashtbl.find_opt sigma v with
                | Some u0 -> comps := !comps @ [ Cmp.eq u (Term.var u0) ]
                | None -> Hashtbl.replace sigma v (u_name l pos)))
      a.Atom.args;
    let subst_term t =
      match t with
      | Term.Var v -> (
          match Hashtbl.find_opt sigma v with
          | Some u -> Term.var u
          | None -> t)
      | Term.Const _ -> t
    in
    List.iter
      (fun (c : Cmp.t) ->
        comps := !comps @ [ Cmp.make c.op (subst_term c.left) (subst_term c.right) ])
      comps_at.(l - 1);
    let next_args =
      List.map
        (fun v ->
          match Hashtbl.find_opt sigma v with
          | Some u -> Term.var u
          | None -> Term.var v)
        w.(l + 1)
    in
    add
      (Datalog.Rule.make ~comps:!comps
         (var_atom (good_pred l) (w.(l) @ kappa @ us))
         [
           var_atom (ctx_pred l) w.(l);
           Atom.make a.Atom.rel block_args;
           Atom.make (certain_pred (l + 1)) next_args;
         ])
  done;
  (Datalog.Program.make (prefix @ List.rev !rules), goal_pred)

let rewrite ?(prefix = []) q ~keys ~order =
  Obs.Trace.with_span "rewrite.datalog" @@ fun () ->
  match rewrite_exn ~prefix q ~keys ~order with
  | program, goal ->
      Obs.Counter.incr c_applicable;
      if Obs.Trace.is_enabled () then begin
        Obs.Trace.attr "applicable" "true";
        Obs.Trace.attr_int "rules" (List.length program.Datalog.Program.rules)
      end;
      Some (program, goal)
  | exception (Unsupported | Invalid_argument _) ->
      Obs.Counter.incr c_unsupported;
      if Obs.Trace.is_enabled () then Obs.Trace.attr "applicable" "false";
      None

let has_null inst =
  List.exists
    (fun (f : Relational.Fact.t) ->
      Array.exists (function Value.Null -> true | _ -> false) f.row)
    (Relational.Instance.fact_list inst)

let consistent_answers ?prefix q ~keys ~order inst =
  match rewrite ?prefix q ~keys ~order with
  | None -> None
  | Some (program, goal) ->
      if has_null inst then begin
        (* NULL joins structurally in Datalog but never under the SQL
           semantics the other tiers use; decline rather than diverge. *)
        Obs.Counter.incr c_unsupported;
        None
      end
      else
        let facts =
          Obs.Trace.with_span "rewrite.datalog_eval" (fun () ->
              Datalog.Eval.run_instance program inst)
        in
        let rows =
          Relational.Fact.Set.fold
            (fun (f : Relational.Fact.t) acc ->
              if String.equal f.rel goal then Array.to_list f.row :: acc
              else acc)
            facts []
        in
        Some (List.sort_uniq (List.compare Value.compare) rows)
