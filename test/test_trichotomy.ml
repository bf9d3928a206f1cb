(* The attack-graph trichotomy end to end: attack edges with their
   strong/weak classification, elimination orders, saturation as an
   equivalence-preserving preprocessing step, the FO route's agreement
   with repair enumeration on the whole acyclic class (unit + one
   differential qcheck property, NULLs included), and the seminaive
   evaluator's counters on the method=datalog branch. *)

module Attack_graph = Analysis.Attack_graph
module Classify = Analysis.Classify
module Lint = Analysis.Lint
module Finding = Analysis.Finding
module Schema = Relational.Schema
module Instance = Relational.Instance
module Value = Relational.Value
module Fact = Relational.Fact
module Ic = Constraints.Ic
open Logic

let check = Alcotest.check
let x = Term.var "x"
let y = Term.var "y"
let z = Term.var "z"
let rs_schema = Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "c"; "d" ]) ]
let rs_ics = [ Ic.key ~rel:"R" [ 0 ]; Ic.key ~rel:"S" [ 0 ] ]
let rs_keys = [ ("R", [ 0 ]); ("S", [ 0 ]) ]

let edges (g : Attack_graph.t) =
  List.map
    (fun (a : Attack_graph.attack) -> (a.source, a.target, a.strong))
    g.attacks

let edge = Alcotest.(list (triple int int bool))

(* ---- Attack edges, strength, cycles ---------------------------------- *)

let test_attack_edges () =
  (* Boolean nonkey-nonkey join — the Fuxman–Miller hard example — is a
     2-cycle of strong attacks. *)
  let bhard =
    Cq.make ~name:"bhard" [] [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ]
  in
  let g = Attack_graph.analyze bhard ~keys:rs_keys in
  check edge "bhard attacks" [ (0, 1, true); (1, 0, true) ] (edges g);
  (match g.cycle with
  | Some (Attack_graph.Strong_pair _) -> ()
  | _ -> Alcotest.fail "expected a strong 2-cycle");
  check Alcotest.bool "cyclic graph has no order" true (g.order = None);
  (* Free x acts as a constant: S's closure absorbs the join variable, so
     only R attacks S and the graph is acyclic. *)
  let hard =
    Cq.make ~name:"hard" [ x ]
      [ Atom.make "R" [ x; y ]; Atom.make "S" [ z; y ] ]
  in
  let g = Attack_graph.analyze hard ~keys:rs_keys in
  check edge "hard attacks" [ (0, 1, true) ] (edges g);
  check Alcotest.(option (list int)) "hard order" (Some [ 0; 1 ]) g.order;
  (* The Boolean join cycle carries weak attacks both ways: each key is
     implied by the other under the full dependency set. *)
  let bcyc =
    Cq.make ~name:"bcyc" [] [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; x ] ]
  in
  let g = Attack_graph.analyze bcyc ~keys:rs_keys in
  check edge "bcyc attacks" [ (0, 1, false); (1, 0, false) ] (edges g);
  match g.cycle with
  | Some (Attack_graph.Weak [ 0; 1 ]) -> ()
  | _ -> Alcotest.fail "expected a weak 2-cycle"

(* ---- The acyclic pair query ----------------------------------------- *)

(* pair(M) :- Advises(M, S), Assists(S, M), both keyed on their first
   column: the attack graph is acyclic (Advises attacks Assists, not
   vice versa) although the join into Assists' key is outside the
   Fuxman–Miller C-forest, so it is FO-rewritable and auto answers it on
   the key_rewriting route. *)
let mentor_schema =
  Schema.of_list
    [
      ("Advises", [ "mentor"; "student" ]);
      ("Assists", [ "student"; "mentor" ]);
      ("Notes", [ "who"; "note" ]);
    ]

let mentor_ics =
  [
    Ic.key ~rel:"Advises" [ 0 ]; Ic.key ~rel:"Assists" [ 0 ]; Ic.key ~rel:"Notes" [ 0 ];
  ]

let m = Term.var "m"
let s = Term.var "s"

let pair_q =
  Cq.make ~name:"pair" [ m ]
    [ Atom.make "Advises" [ m; s ]; Atom.make "Assists" [ s; m ] ]

let mentor_db =
  Instance.of_rows mentor_schema
    [
      ( "Advises",
        [
          [ Value.str "ann"; Value.str "bob" ];
          [ Value.str "cara"; Value.str "dan" ];
          [ Value.str "cara"; Value.str "ed" ];
        ] );
      ( "Assists",
        [
          [ Value.str "bob"; Value.str "ann" ];
          [ Value.str "dan"; Value.str "cara" ];
        ] );
    ]

(* [f]'s result and the delta of the named counters it moved. *)
let with_delta f =
  let reg = Obs.Registry.current () in
  let before = Obs.Registry.counter_snapshot reg in
  let v = f () in
  let delta = Obs.Registry.counter_delta ~since:before reg in
  (v, fun name -> Option.value ~default:0 (List.assoc_opt name delta))

let test_acyclic_pair_routing_and_answers () =
  let eng = Cqa.Engine.create ~schema:mentor_schema ~ics:mentor_ics mentor_db in
  let plan = Cqa.Engine.plan eng pair_q in
  check Alcotest.string "plan routes to the FO rewriting" "key_rewriting"
    (Cqa.Engine.route_label plan.Cqa.Engine.route);
  check Alcotest.string "verdict" "FO_rewritable"
    (Classify.verdict_label
       plan.Cqa.Engine.classification.Classify.verdict);
  check Alcotest.string "witness" "attack-graph/acyclic"
    (Classify.witness_code plan.Cqa.Engine.classification.Classify.witness);
  (* ann's block is consistent and assisted back; cara's conflicting
     advisees are not both assisting, so only ann is certain. *)
  let rows m = Cqa.Engine.consistent_answers ~method_:m eng pair_q in
  let expect = [ [ Value.str "ann" ] ] in
  let auto, d = with_delta (fun () -> Cqa.Engine.consistent_answers eng pair_q) in
  check Alcotest.bool "auto answers" true (auto = expect);
  check Alcotest.int "compiled: no row scans" 0 (d "scan.row");
  check Alcotest.int "no fallback" 0 (d "engine.fallbacks");
  check Alcotest.bool "key rewriting answers" true (rows `Key_rewriting = expect);
  check Alcotest.bool "datalog answers" true (rows `Datalog = expect);
  check Alcotest.bool "enumeration agrees" true
    (rows `Repair_enumeration = expect)

let test_datalog_counters_fire () =
  let eng = Cqa.Engine.create ~schema:mentor_schema ~ics:mentor_ics mentor_db in
  let reg = Obs.Registry.current () in
  let before = Obs.Registry.counter_snapshot reg in
  ignore (Cqa.Engine.consistent_answers ~method_:`Datalog eng pair_q);
  let delta = Obs.Registry.counter_delta ~since:before reg in
  let d name = Option.value ~default:0 (List.assoc_opt name delta) in
  check Alcotest.bool "seminaive rounds counted" true
    (d "datalog.seminaive.rounds" > 0);
  check Alcotest.bool "seminaive facts counted" true
    (d "datalog.seminaive.facts" > 0);
  check Alcotest.bool "rewriting counted applicable" true
    (d "rewrite.datalog_applicable" > 0);
  check Alcotest.int "no repairs enumerated" 0 (d "repairs.enumerations")

let test_null_instance_falls_back () =
  (* A NULL in a two-tuple key block: the NULL conflicts with nothing
     (repairs compare keys and values with SQL equality), so both of
     ann's tuples are in every repair — outside the blocks-pick-one
     reading the FO rewriting encodes.  Auto falls back, visibly, to the
     SAT compilation and stays exact. *)
  let db =
    Instance.of_rows mentor_schema
      [
        ( "Advises",
          [ [ Value.str "ann"; Value.str "bob" ]; [ Value.str "ann"; Value.Null ] ] );
        ("Assists", [ [ Value.str "bob"; Value.str "ann" ] ]);
      ]
  in
  let eng = Cqa.Engine.create ~schema:mentor_schema ~ics:mentor_ics db in
  let auto, d = with_delta (fun () -> Cqa.Engine.consistent_answers eng pair_q) in
  check Alcotest.int "one fallback" 1 (d "engine.fallbacks");
  check Alcotest.int "by SAT, not enumeration" 0 (d "repairs.enumerations");
  check Alcotest.bool "auto stays exact on NULLs" true
    (auto
    = Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng pair_q);
  check Alcotest.bool "ann is certain" true (auto = [ [ Value.str "ann" ] ])

(* NULLs the rewriting is exact on: in singleton key blocks of the
   relations the query reads, and anywhere in a relation it never reads.
   The query stays on the compiled FO route. *)
let test_null_pair_stays_on_key_rewriting () =
  let str = Value.str in
  let db =
    Instance.of_rows mentor_schema
      [
        ( "Advises",
          [
            [ str "ann"; str "bob" ];
            [ str "cara"; str "dan" ];
            [ str "cara"; str "ed" ];
            [ str "gil"; Value.Null ];
          ] );
        ( "Assists",
          [
            [ str "bob"; str "ann" ];
            [ str "dan"; str "cara" ];
            [ str "hal"; Value.Null ];
          ] );
        ( "Notes",
          [
            [ str "ann"; Value.Null ]; [ str "ann"; str "x" ]; [ Value.Null; str "y" ];
          ] );
      ]
  in
  let eng = Cqa.Engine.create ~schema:mentor_schema ~ics:mentor_ics db in
  let auto, d = with_delta (fun () -> Cqa.Engine.consistent_answers eng pair_q) in
  check Alcotest.int "no fallback" 0 (d "engine.fallbacks");
  check Alcotest.int "compiled: no row scans" 0 (d "scan.row");
  check Alcotest.int "no repairs enumerated" 0 (d "repairs.enumerations");
  check Alcotest.bool "answers = enumeration" true
    (auto = [ [ str "ann" ] ]
    && auto
       = Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng pair_q)

(* chain(X, W) :- T(X, V, L), S(V, W): the child guard binds no fresh
   variable.  It must compile (no row scans) and answer like
   enumeration. *)
let test_chain_xw_compiled () =
  let schema = Schema.of_list [ ("T", [ "k"; "v"; "l" ]); ("S", [ "v"; "w" ]) ] in
  let ics = [ Ic.key ~rel:"T" [ 0 ]; Ic.key ~rel:"S" [ 0 ] ] in
  let i = Value.int in
  let t_rows =
    List.concat_map
      (fun k ->
        let base = [ i k; i (k mod 5); i 0 ] in
        if k mod 3 = 0 then [ base; [ i k; i ((k + 1) mod 5); i 1 ] ] else [ base ])
      (List.init 12 Fun.id)
  in
  let s_rows =
    [ [ i 0; i 7 ]; [ i 1; i 7 ]; [ i 2; i 8 ]; [ i 2; i 9 ]; [ i 3; i 7 ] ]
  in
  let db = Instance.of_rows schema [ ("T", t_rows); ("S", s_rows) ] in
  let eng = Cqa.Engine.create ~schema ~ics db in
  let q =
    Cq.make ~name:"chain" [ Term.var "X"; Term.var "W" ]
      [
        Atom.make "T" [ Term.var "X"; Term.var "V"; Term.var "L" ];
        Atom.make "S" [ Term.var "V"; Term.var "W" ];
      ]
  in
  check Alcotest.string "route" "key_rewriting"
    (Cqa.Engine.route_label (Cqa.Engine.plan eng q).Cqa.Engine.route);
  let auto, d = with_delta (fun () -> Cqa.Engine.consistent_answers eng q) in
  check Alcotest.int "compiled: no row scans" 0 (d "scan.row");
  check Alcotest.bool "some answers" true (auto <> []);
  check Alcotest.bool "answers = enumeration" true
    (auto = Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q)

(* Koutris–Wijsen: one strong attack makes a 2-cycle strong.  R attacks
   S weakly (X -> Z -> W through T), S attacks R strongly. *)
let test_mixed_two_cycle_is_hard () =
  let schema =
    Schema.of_list
      [ ("R", [ "a"; "b" ]); ("S", [ "c"; "d" ]); ("T", [ "e"; "f"; "g" ]) ]
  in
  let ics = [ Ic.key ~rel:"R" [ 0 ]; Ic.key ~rel:"S" [ 0 ]; Ic.key ~rel:"T" [ 0 ] ] in
  let w = Term.var "w" in
  let q =
    Cq.make ~name:"mixed" []
      [ Atom.make "R" [ x; z ]; Atom.make "S" [ w; z ]; Atom.make "T" [ z; w; z ] ]
  in
  let c = Classify.classify ics q in
  check Alcotest.string "verdict" "coNP_hard" (Classify.verdict_label c.verdict);
  check Alcotest.string "witness" "attack-graph/strong-cycle"
    (Classify.witness_code c.witness);
  let eng = Cqa.Engine.create ~schema ~ics (Instance.create schema) in
  check Alcotest.string "route" "sat_compilation"
    (Cqa.Engine.route_label (Cqa.Engine.plan eng q).Cqa.Engine.route)

(* ---- Saturation ------------------------------------------------------- *)

(* The Koutris–Wijsen triangle: q() :- R(x,y), S(y,z), T(x,z), all keyed
   on their first column.  T's non-key z is internally determined
   (x -> y by R, y -> z by S), so saturation fires for (T, z). *)
let tri_schema =
  Schema.of_list [ ("R", [ "a"; "b" ]); ("S", [ "b"; "c" ]); ("T", [ "a"; "c" ]) ]

let tri_ics =
  [ Ic.key ~rel:"R" [ 0 ]; Ic.key ~rel:"S" [ 0 ]; Ic.key ~rel:"T" [ 0 ] ]

let tri_keys = [ ("R", [ 0 ]); ("S", [ 0 ]); ("T", [ 0 ]) ]

let triangle =
  Cq.make ~name:"tri" []
    [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ]; Atom.make "T" [ x; z ] ]

let test_saturation_fires_on_triangle () =
  match Attack_graph.saturate triangle ~keys:tri_keys with
  | None -> Alcotest.fail "saturation should fire on the triangle query"
  | Some sat ->
      check Alcotest.int "one internal dependency" 1
        (List.length sat.Attack_graph.derived);
      let fd = List.hd sat.Attack_graph.derived in
      check Alcotest.string "on atom T" "T" fd.Attack_graph.rel;
      check Alcotest.string "for variable z" "z" fd.Attack_graph.var;
      check Alcotest.int "one helper atom appended" 4
        (List.length sat.Attack_graph.squery.Cq.body);
      check Alcotest.int "one defining rule" 1
        (List.length sat.Attack_graph.rules);
      (* The helper carries a whole-tuple key. *)
      let helper =
        (List.nth sat.Attack_graph.squery.Cq.body 3 : Atom.t).rel
      in
      check Alcotest.(option (list int)) "whole-tuple key" (Some [ 0; 1 ])
        (List.assoc_opt helper sat.Attack_graph.skeys);
      check Alcotest.bool "description names the path" true
        (String.length (Attack_graph.describe_fd fd) > 0)

(* Materialize the helper predicates over the raw database and hand back
   the extended (schema, ics, instance) triple for enumeration. *)
let extend_with_helpers schema ics db (sat : Attack_graph.saturation) =
  let heads =
    List.sort_uniq String.compare
      (List.map (fun (r : Datalog.Rule.t) -> r.head.Atom.rel) sat.rules)
  in
  let derived = Datalog.Eval.run_instance (Datalog.Program.make sat.rules) db in
  let helper_facts =
    List.filter
      (fun (f : Fact.t) -> List.mem f.rel heads)
      (Fact.Set.elements derived)
  in
  let arity r =
    match List.assoc_opt r sat.skeys with
    | Some ps -> List.length ps
    | None -> invalid_arg "helper without a whole-tuple key"
  in
  let schema' =
    List.fold_left
      (fun sc r ->
        Schema.add_relation sc ~name:r
          ~attributes:(List.init (arity r) (Printf.sprintf "a%d")))
      schema heads
  in
  let ics' =
    ics @ List.map (fun r -> Ic.key ~rel:r (List.init (arity r) Fun.id)) heads
  in
  let db' =
    Instance.add_all (Instance.of_facts schema' (Instance.fact_list db)) helper_facts
  in
  (schema', ics', db')

let certain_enum schema ics db q =
  let eng = Cqa.Engine.create ~schema ~ics db in
  List.sort compare
    (Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q)

let saturation_equivalent db =
  match Attack_graph.saturate triangle ~keys:tri_keys with
  | None -> false
  | Some sat ->
      let schema', ics', db' = extend_with_helpers tri_schema tri_ics db sat in
      certain_enum tri_schema tri_ics db triangle
      = certain_enum schema' ics' db' sat.Attack_graph.squery

let test_saturation_preserves_certainty () =
  let db =
    Instance.of_rows tri_schema
      [
        ("R", [ [ Value.int 1; Value.int 2 ]; [ Value.int 1; Value.int 3 ] ]);
        ("S", [ [ Value.int 2; Value.int 5 ]; [ Value.int 3; Value.int 5 ] ]);
        ("T", [ [ Value.int 1; Value.int 5 ]; [ Value.int 1; Value.int 6 ] ]);
      ]
  in
  check Alcotest.bool "CERTAINTY(q) = CERTAINTY(saturate q)" true
    (saturation_equivalent db)

(* ---- Self-join lint --------------------------------------------------- *)

let test_self_join_lint () =
  let sj =
    Cq.make ~name:"sj" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "R" [ y; z ] ]
  in
  let fs = Lint.query_findings sj in
  check Alcotest.int "one finding" 1 (List.length fs);
  let f = List.hd fs in
  check Alcotest.string "code" "query/self-join" f.Finding.code;
  check Alcotest.string "severity is a warning, not an error" "warning"
    (Finding.severity_label f.Finding.severity);
  check Alcotest.string "subject is the query" "sj" f.Finding.subject;
  check Alcotest.bool "message explains the fallback" true
    (let msg = f.Finding.message in
     let has sub = Str.string_match (Str.regexp (".*" ^ sub ^ ".*")) msg 0 in
     has "trichotomy" && has "enumeration");
  let sjf =
    Cq.make ~name:"ok" [ x ] [ Atom.make "R" [ x; y ]; Atom.make "S" [ y; z ] ]
  in
  check Alcotest.int "self-join-free query is clean" 0
    (List.length (Lint.query_findings sjf))

(* ---- qcheck: one FO route, exact on the whole acyclic class ---------- *)

(* A random self-join-free CQ over R0..R2 (arity 2 or 3, keyed on a
   prefix or not at all) with constants, repeated variables, free
   variables anywhere and at most one comparison — atom-local, possibly
   spanning elimination levels, or now and then across atoms — plus an
   instance with NULLs both in the relations the query reads and in U,
   which it never reads.  The two queries of the former L tier (hard,
   cyc) are drawn as fixed cases. *)
type case = {
  schema : Schema.t;
  ics : Ic.t list;
  query : Cq.t;
  db : Instance.t;
}

let vars = [| "X"; "Y"; "Z"; "W" |]

(* Relation shapes (arity, key length; 0 = no key), body and head. *)
let gen_query =
  let open QCheck.Gen in
  let x = Term.var "X" and y = Term.var "Y" and z = Term.var "Z" in
  let former_l_tier =
    [
      [ Atom.make "R0" [ x; y ]; Atom.make "R1" [ z; y ] ] (* hard *);
      [ Atom.make "R0" [ x; y ]; Atom.make "R1" [ y; x ] ] (* cyc *);
    ]
  in
  let random =
    let* nrels = int_range 1 3 in
    let* shapes =
      list_repeat nrels
        (let* arity = int_range 2 3 in
         let* key = frequency [ (4, return 1); (1, return 2); (1, return 0) ] in
         return (arity, min key (arity - 1)))
    in
    let term =
      frequency
        [
          (5, map (fun i -> Term.var vars.(i)) (int_bound 3));
          (1, map (fun n -> Term.const (Value.int n)) (int_bound 1));
        ]
    in
    let* body =
      flatten_l
        (List.mapi
           (fun i (arity, _) ->
             map (Atom.make (Printf.sprintf "R%d" i)) (list_repeat arity term))
           shapes)
    in
    let body_vars =
      Term.vars (List.concat_map (fun (a : Atom.t) -> a.args) body)
    in
    let* picks = list_repeat (List.length body_vars) (int_bound 2) in
    let head = List.filteri (fun i _ -> List.nth picks i = 0) body_vars in
    return (shapes, body, List.map Term.var head)
  in
  frequency
    [
      (1, map (fun b -> ([ (2, 1); (2, 1) ], b, [ x ])) (oneofl former_l_tier));
      (2, random);
    ]

let gen_case =
  let open QCheck.Gen in
  let cell =
    map
      (fun n -> if n = 6 then Value.Null else Value.int (n mod 3))
      (int_bound 6)
  in
  let* shapes, body, head = gen_query in
  let rel i = Printf.sprintf "R%d" i in
  let body_vars =
    Term.vars (List.concat_map (fun (a : Atom.t) -> a.args) body)
  in
  let* comps =
    let atom_vars = List.filter (fun (a : Atom.t) -> Atom.vars a <> []) body in
    if atom_vars = [] then return []
    else
      let* a = oneofl atom_vars in
      let local = Atom.vars a in
      let* l = oneofl local in
      let* r =
        frequency
          [
            (2, map (fun n -> Term.const (Value.int n)) (int_bound 2));
            (2, map Term.var (oneofl local));
            (1, map Term.var (oneofl body_vars));
          ]
      in
      let* op = oneofl [ Cmp.Eq; Cmp.Neq; Cmp.Lt; Cmp.Le ] in
      frequency [ (1, return []); (1, return [ Cmp.make op (Term.var l) r ]) ]
  in
  let rels = List.mapi (fun i (arity, key) -> (rel i, arity, key)) shapes in
  let* rows =
    flatten_l
      (List.map
         (fun (r, arity, _) ->
           map
             (fun rows -> (r, rows))
             (list_size (int_bound 5) (list_repeat arity cell)))
         rels)
  in
  let* u_rows = list_size (int_bound 3) (list_repeat 2 cell) in
  let schema =
    Schema.of_list
      (("U", [ "a"; "b" ])
      :: List.map
           (fun (r, arity, _) -> (r, List.init arity (Printf.sprintf "c%d")))
           rels)
  in
  let ics =
    Ic.key ~rel:"U" [ 0 ]
    :: List.filter_map
         (fun (r, _, key) ->
           if key = 0 then None else Some (Ic.key ~rel:r (List.init key Fun.id)))
         rels
  in
  return
    {
      schema;
      ics;
      query = Cq.make ~name:"q" ~comps head body;
      db = Instance.of_rows schema (("U", u_rows) :: rows);
    }

let arb_case =
  QCheck.make gen_case ~print:(fun c ->
      Format.asprintf "%a@.keys: %s@.%a" Cq.pp c.query
        (String.concat ", " (List.map Ic.name c.ics))
        Instance.pp c.db)

let sorted rows = List.sort compare rows

(* Every exact method that accepts the input returns the enumeration
   answer; on the FO tier auto runs the compiled rewriting — no row
   scans, no fallback — unless Key_rewrite.null_hazard names a reason,
   and then the fallback is counted.  method=datalog is checked on
   every FO case, over the NULL-free part of the instance. *)
let prop_fo_route_is_exact =
  QCheck.Test.make ~count:900 ~name:"acyclic CQs: FO route = enumeration"
    arb_case (fun c ->
      let eng = Cqa.Engine.create ~schema:c.schema ~ics:c.ics c.db in
      let q = c.query in
      let enum = sorted (Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q) in
      let auto, d = with_delta (fun () -> Cqa.Engine.consistent_answers eng q) in
      let cls = Classify.classify c.ics q in
      let keys = Classify.rewrite_keys c.ics q in
      let fo = cls.Classify.verdict = Classify.Fo_rewritable in
      let hazard = Rewriting.Key_rewrite.null_hazard q ~keys c.db in
      (* The Datalog program declines NULLs: check it on the NULL-free
         part of the instance. *)
      let datalog_agrees () =
        let db =
          Instance.of_facts c.schema
            (List.filter
               (fun (f : Fact.t) -> not (Array.exists Value.is_null f.row))
               (Instance.fact_list c.db))
        in
        let eng = Cqa.Engine.create ~schema:c.schema ~ics:c.ics db in
        sorted (Cqa.Engine.consistent_answers ~method_:`Datalog eng q)
        = sorted (Cqa.Engine.consistent_answers ~method_:`Repair_enumeration eng q)
      in
      sorted auto = enum
      && (not fo || cls.witness = Classify.No_constraints
         || (Rewriting.Key_rewrite.rewrite q ~keys <> None
            && sorted (Cqa.Engine.consistent_answers ~method_:`Sat eng q) = enum
            && (if hazard = None then d "scan.row" = 0 && d "engine.fallbacks" = 0
                else d "engine.fallbacks" = 1)
            && datalog_agrees ())))

let arb_tri =
  QCheck.make
    QCheck.Gen.(
      triple
        (list_size (int_range 0 4) (pair (int_range 0 2) (int_range 0 2)))
        (list_size (int_range 0 4) (pair (int_range 0 2) (int_range 0 2)))
        (list_size (int_range 0 4) (pair (int_range 0 2) (int_range 0 2))))
    ~print:(fun (rs, ss, ts) ->
      let side l =
        String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) l)
      in
      Printf.sprintf "R=%s S=%s T=%s" (side rs) (side ss) (side ts))

let prop_saturation_preserves_certainty =
  QCheck.Test.make ~count:100
    ~name:"saturation fires => CERTAINTY(q) = CERTAINTY(saturate q)" arb_tri
    (fun (rs, ss, ts) ->
      let rows l = List.map (fun (a, b) -> [ Value.int a; Value.int b ]) l in
      let db =
        Instance.of_rows tri_schema
          [ ("R", rows rs); ("S", rows ss); ("T", rows ts) ]
      in
      saturation_equivalent db)

let suite =
  [
    Alcotest.test_case "attack edges, strength and cycles" `Quick
      test_attack_edges;
    Alcotest.test_case "acyclic pair routes to key rewriting" `Quick
      test_acyclic_pair_routing_and_answers;
    Alcotest.test_case "datalog counters fire" `Quick
      test_datalog_counters_fire;
    Alcotest.test_case "NULL instances fall back soundly" `Quick
      test_null_instance_falls_back;
    Alcotest.test_case "NULL-bearing pair stays on key rewriting" `Quick
      test_null_pair_stays_on_key_rewriting;
    Alcotest.test_case "chain(X, W) compiles and answers" `Quick
      test_chain_xw_compiled;
    Alcotest.test_case "mixed strong/weak 2-cycle is coNP-hard" `Quick
      test_mixed_two_cycle_is_hard;
    Alcotest.test_case "saturation fires on the triangle" `Quick
      test_saturation_fires_on_triangle;
    Alcotest.test_case "saturation preserves certainty" `Quick
      test_saturation_preserves_certainty;
    Alcotest.test_case "self-join lint" `Quick test_self_join_lint;
    QCheck_alcotest.to_alcotest prop_fo_route_is_exact;
    QCheck_alcotest.to_alcotest prop_saturation_preserves_certainty;
  ]
