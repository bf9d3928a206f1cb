(* The traced run: each workload's inputs replayed in this process
   through the layers' public functions, one span around every call, so
   the time of a request or a cqa_cli item splits into the layers it
   went through.  The calls mirror what Cqa.Engine, Server.Handler and
   bin/cqa_cli do, route by route, so the spans name the layer that did
   the work.  End-to-end numbers come from the untraced run. *)

module Instance = Relational.Instance
module Value = Relational.Value
module P = Server.Protocol

module Rows = Set.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

let span = Spans.with_span

(* ---- one conjunctive query, route by route ----------------------------- *)

let enumerate (e : Cqa.Engine.t) q =
  if List.for_all Constraints.Ic.is_denial_class e.ics then
    span "conflict_graph.build" (fun () ->
        ignore
          (Constraints.Conflict_graph.build_cached e.instance e.schema e.ics));
  let repairs =
    span "repairs.enumerate" (fun () ->
        Repairs.S_repair.enumerate e.instance e.schema e.ics)
  in
  span "repairs.query" (fun () ->
      match
        List.map
          (fun (r : Repairs.Repair.t) ->
            Rows.of_list (Logic.Cq.answers q r.repaired))
          repairs
      with
      | [] -> []
      | first :: rest -> Rows.elements (List.fold_left Rows.inter first rest))

let sat (e : Cqa.Engine.t) q =
  span "conflict_graph.build" (fun () ->
      ignore
        (Constraints.Conflict_graph.build_cached e.instance e.schema e.ics));
  span "cavsat.solve" (fun () ->
      Cavsat.Certain.consistent_answers e.instance e.schema e.ics q)

(* The columnar views the fused plan scans, built ahead of it so their
   cost shows apart from the plan's. *)
let columnar (e : Cqa.Engine.t) (q : Logic.Cq.t) =
  if Relational.Columnar.enabled () then
    span "instance.columnar" (fun () ->
        List.iter
          (fun rel -> ignore (Instance.columnar e.instance ~rel))
          (List.sort_uniq String.compare
             (List.map (fun (a : Logic.Atom.t) -> a.rel) q.body)))

let key_rewriting (e : Cqa.Engine.t) q =
  match
    span "key_rewrite.compile" (fun () ->
        Rewriting.Key_rewrite.rewrite q
          ~keys:(Analysis.Classify.rewrite_keys e.ics q))
  with
  | None -> enumerate e q
  | Some f ->
      columnar e q;
      span "fo.execute" (fun () ->
          Logic.Formula.answers e.instance ~free:(Logic.Cq.head_vars q) f)

let datalog_rewriting (e : Cqa.Engine.t) q =
  match
    span "datalog_rewrite.compile" (fun () ->
        let keys = Analysis.Classify.rewrite_keys e.ics q in
        match Analysis.Attack_graph.rewriting_input q ~keys with
        | None -> None
        | Some ri ->
            Rewriting.Datalog_rewrite.rewrite ~prefix:ri.prefix ri.query
              ~keys:ri.keys ~order:ri.order)
  with
  | None -> enumerate e q
  | Some (program, goal) ->
      let facts =
        span "datalog.eval" (fun () ->
            Datalog.Eval.run_instance program e.instance)
      in
      span "datalog.extract" (fun () ->
          Relational.Fact.Set.fold
            (fun (f : Relational.Fact.t) acc ->
              if String.equal f.rel goal then Array.to_list f.row :: acc else acc)
            facts []
          |> List.sort_uniq (List.compare Value.compare))

(* What method=auto runs, with the planned route and the classifier's
   verdict attached to the enclosing span. *)
let answer (e : Cqa.Engine.t) q =
  let p = span "plan" (fun () -> Cqa.Engine.plan e q) in
  let route = Cqa.Engine.route_label p.route in
  let verdict =
    Analysis.Classify.verdict_label p.classification.Analysis.Classify.verdict
  in
  Spans.attr "route" route;
  Spans.attr "verdict" verdict;
  let rows =
    match p.route with
    | `Direct -> span "fo.execute" (fun () -> Logic.Cq.answers q e.instance)
    | `Key_rewriting -> key_rewriting e q
    | `Datalog_rewriting -> datalog_rewriting e q
    | `Sat_compilation -> sat e q
    | `Repair_enumeration -> enumerate e q
  in
  (rows, route, verdict)

let pp_row row =
  if row = [] then "true" else String.concat ", " (List.map Value.to_string row)

(* ---- metrics ------------------------------------------------------------ *)

(* [f] and the counters it moved, from Obs registry snapshots. *)
let with_counters f =
  let reg = Obs.Registry.current () in
  let before = Obs.Registry.counter_snapshot reg in
  let v = f () in
  (v, Obs.Registry.counter_delta ~since:before reg)

let count deltas name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name deltas))

(* Self time per call of the spans named [name], and their total (0 when
   the layer never ran). *)
let mean tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (t, n) when n > 0 -> t /. float_of_int n
  | _ -> 0.0

let total tbl name =
  match Hashtbl.find_opt tbl name with Some (t, _) -> t | None -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Spans of library layers: all but the roots (requests, items) and the
   replay of bin/cqa_cli's own rendering. *)
let library_layers =
  [
    "parse.doc"; "plan"; "key_rewrite.compile"; "instance.columnar";
    "fo.execute"; "datalog_rewrite.compile"; "datalog.eval"; "datalog.extract";
    "conflict_graph.build"; "cavsat.solve"; "repairs.enumerate";
    "repairs.query"; "protocol.parse"; "protocol.render"; "handler.query";
    "handler.update"; "cache.lookup"; "cache.insert"; "cache.invalidate";
    "session.load"; "session.update";
  ]

(* Every per-layer metric, in BENCHMARK.json order.  [time] gives a
   layer's self time in seconds, [counter] a counter's movement, and
   [extra] the metrics only a workload's own replay can compute; the
   rest read 0. *)
let metrics ~time ~counter extra =
  let ms name = time name *. 1e3 and us name = time name *. 1e6 in
  let c = counter in
  let base =
    [
      ("protocol.parse_us", us "protocol.parse", "us");
      ("protocol.render_us", us "protocol.render", "us");
      ("protocol.bytes_per_resp", 0.0, "bytes");
      ("cache.hit_ratio", 0.0, "ratio");
      ("cache.evictions", 0.0, "count");
      ("handler.query_service_ms", 0.0, "ms");
      ("handler.update_service_ms", 0.0, "ms");
      ("loop.wait_ms", 0.0, "ms");
      ("session.load_ms", ms "session.load", "ms");
      ("session.digest_ms", ms "session.digest", "ms");
      ("session.update_ms", ms "session.update", "ms");
      ("parse.doc_ms", ms "parse.doc", "ms");
      ("parse.us_per_fact", 0.0, "us/fact");
      ("plan.us", us "plan", "us");
      ("instance.columnar_ms", ms "instance.columnar", "ms");
      ("index.builds", c "index.builds", "count");
      ("key_rewrite.compile_us", us "key_rewrite.compile", "us");
      ("fo.execute_ms", ms "fo.execute", "ms");
      ("scan.columnar", c "scan.columnar", "count");
      ("join.fused", c "join.fused", "count");
      ("scan.row", c "scan.row", "count");
      ("datalog_rewrite.compile_us", us "datalog_rewrite.compile", "us");
      ("datalog.eval_ms", ms "datalog.eval", "ms");
      ("datalog.seminaive.rounds", c "datalog.seminaive.rounds", "count");
      ("datalog.seminaive.facts", c "datalog.seminaive.facts", "count");
      ( "datalog.us_per_fact",
        ratio (us "datalog.eval") (c "datalog.seminaive.facts"),
        "us/fact" );
      ("conflict_graph.build_ms", ms "conflict_graph.build", "ms");
      ("cavsat.solve_ms", ms "cavsat.solve", "ms");
      ("cavsat.sat_calls", c "cavsat.sat_calls", "count");
      ("cavsat.clauses", c "cavsat.clauses", "count");
      ("sat.dpll.decisions", c "sat.dpll.decisions", "count");
      ("repairs.enumerate_ms", ms "repairs.enumerate", "ms");
      ("repairs.query_ms", ms "repairs.query", "ms");
      ("repairs.found", c "repairs.found", "count");
      ( "repairs.found_per_candidate",
        ratio (c "repairs.found") (c "repairs.candidates"),
        "ratio" );
      ("gc.top_heap_mb", 0.0, "MB");
      ("other_ms", 0.0, "ms");
      ("layer.coverage", 0.0, "ratio");
      ("hardx.forced_sat_ms", 0.0, "ms");
      ("trace.overhead_ms", 0.0, "ms");
    ]
  in
  List.map
    (fun (name, v, unit) ->
      (name, Option.value ~default:v (List.assoc_opt name extra), unit))
    base

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : string list;  (** human-readable lines for the summary *)
}

(* ---- cqa_cli items ------------------------------------------------------ *)

(* One cold replay of one item: its spans, counter movements, and what
   it answered. *)
type replay = {
  spans : Spans.span list;
  counters : (string * int) list;
  route : string;
  verdict : string;
  ok : bool;
  top_heap_mb : float;  (** the replaying process's peak major heap *)
}

(* Run [f] in a forked child and return its result: every replay starts
   as the binary does, with empty memo caches (conflict graphs, SAT
   theories) and a fresh heap.  The benchmark runs no other domain, so
   forking is safe. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc v [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file -> Error "replay child died"
      in
      close_in ic;
      ignore (Proc.waitpid_noeintr pid);
      match v with Ok v -> v | Error msg -> failwith msg)

(* One item as bin/cqa_cli runs it, minus process start, the file read
   and printing: parse, plan, the route's layers, render. *)
let cli_item ~rid (item : Cli_load.item) text =
  Spans.clear ();
  let (lines, route, verdict), counters =
    with_counters (fun () ->
        Spans.with_span ~rid ("item." ^ item.name) (fun () ->
            let doc =
              span "parse.doc" (fun () -> Cqa.Parse.document_of_string text)
            in
            let e =
              Cqa.Engine.create ~schema:doc.schema ~ics:doc.ics doc.instance
            in
            let rows, route, verdict =
              answer e (Cqa.Parse.find_query doc item.name)
            in
            (span "render" (fun () -> List.map pp_row rows), route, verdict)))
  in
  {
    spans = Spans.all ();
    counters;
    route;
    verdict;
    ok = item.check lines;
    top_heap_mb = top_heap_mb ();
  }

(* Forced SAT on the same document: an ungated finding next to the
   planned route (hardx is planned as datalog_rewriting). *)
let forced_sat (item : Cli_load.item) text =
  let doc = Cqa.Parse.document_of_string text in
  let e = Cqa.Engine.create ~schema:doc.schema ~ics:doc.ics doc.instance in
  let q = Cqa.Parse.find_query doc item.name in
  let t0 = Unix.gettimeofday () in
  let rows = sat e q in
  (Unix.gettimeofday () -. t0, item.check (List.map pp_row rows))

let median_of l = Harness.median (Harness.sorted l)

(* Wall, library-layer and covered time of one replay, in seconds: the
   root's duration, the self time of the library spans under it, and
   its duration minus the root's own self time. *)
let split r =
  let selfs = Spans.self_times r.spans in
  let sum p =
    List.fold_left
      (fun acc ((s : Spans.span), t) -> if p s then acc +. t else acc)
      0.0 selfs
  in
  let root = List.find (fun (s : Spans.span) -> s.parent = 0) r.spans in
  let wall = Spans.duration root in
  ( wall,
    sum (fun s -> List.mem s.name library_layers),
    wall -. sum (fun s -> s.id = root.id) )

type item_run = {
  item : Cli_load.item;
  binary_s : float;  (** median untraced invocation *)
  replays : replay list;
  wall_s : float;  (** medians over the replays of [split] *)
  layers_s : float;
  covered_s : float;
  forced_sat_s : float option;
}

(* A cqa_cli workload: per item, [runs] untraced invocations of the
   binary against [runs] cold in-process replays, medians of each.
   Layer times are totals over the workload's items. *)
let cli ~cli_bin ~runs (items : Cli_load.item list) =
  let per_span = Spans.cost_per_span () in
  let failed = ref 0 and attempted = ref 0 in
  let tally ok =
    incr attempted;
    if not ok then incr failed
  in
  let run_item k (item : Cli_load.item) =
    let text = In_channel.with_open_bin item.path In_channel.input_all in
    let binary_s =
      median_of
        (List.init runs (fun _ ->
             let s = Cli_load.invoke ~cli:cli_bin item in
             tally s.ok;
             s.wall_s))
    in
    let replays =
      List.init runs (fun _ ->
          let r = in_child (fun () -> cli_item ~rid:(k + 1) item text) in
          tally r.ok;
          r)
    in
    let forced_sat_s =
      if item.name = "hardx" then begin
        let t, ok = in_child (fun () -> forced_sat item text) in
        tally ok;
        Some t
      end
      else None
    in
    let m f = median_of (List.map (fun r -> f (split r)) replays) in
    {
      item;
      binary_s;
      replays;
      wall_s = m (fun (w, _, _) -> w);
      layers_s = m (fun (_, l, _) -> l);
      covered_s = m (fun (_, _, c) -> c);
      forced_sat_s;
    }
  in
  let runs_ = List.mapi run_item items in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs_ in
  let layer_time name =
    sum (fun r ->
        median_of
          (List.map (fun p -> total (Spans.by_name p.spans) name) r.replays))
  in
  (* Counts repeat exactly from one replay to the next: take the first. *)
  let first = List.map (fun r -> List.hd r.replays) runs_ in
  let counter name =
    List.fold_left (fun acc p -> acc +. count p.counters name) 0.0 first
  in
  let spans = List.concat_map (fun p -> p.spans) first in
  Spans.restore spans;
  let facts =
    List.fold_left (fun acc (i : Cli_load.item) -> acc + i.facts) 0 items
  in
  let forced = List.filter_map (fun r -> r.forced_sat_s) runs_ in
  let extra =
    [
      ( "parse.us_per_fact",
        ratio (layer_time "parse.doc" *. 1e6) (float_of_int facts) );
      ("other_ms", sum (fun r -> r.binary_s -. r.layers_s) *. 1e3);
      ( "layer.coverage",
        ratio (sum (fun r -> r.layers_s)) (sum (fun r -> r.wall_s)) );
      ("hardx.forced_sat_ms", List.fold_left ( +. ) 0.0 forced *. 1e3);
      ( "trace.overhead_ms",
        float_of_int (List.length spans) *. per_span *. 1e3 );
      ( "gc.top_heap_mb",
        List.fold_left (fun acc p -> Float.max acc p.top_heap_mb) 0.0 first );
    ]
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics = metrics ~time:layer_time ~counter extra;
    notes =
      List.map2
        (fun r p ->
          Printf.sprintf
            "%s: route=%s verdict=%s binary %.1f ms, in-process %.1f ms, \
             library layers %.1f ms (%.1f%% of in-process, %.1f%% with the \
             rendering replay), other %.1f ms"
            r.item.name p.route p.verdict (r.binary_s *. 1e3)
            (r.wall_s *. 1e3) (r.layers_s *. 1e3)
            (100.0 *. ratio r.layers_s r.wall_s)
            (100.0 *. ratio r.covered_s r.wall_s)
            ((r.binary_s -. r.layers_s) *. 1e3))
        runs_ first
      @ List.map
          (Printf.sprintf
             "finding: hardx with method=sat answers in %.2f ms (ungated)")
          (List.map (fun t -> t *. 1e3) forced);
  }

(* ---- serve_fo_rw ---------------------------------------------------------- *)

let query_key (s : Server.Session.t) name =
  String.concat "|" [ s.digest; "query"; name; "auto"; "s" ]

(* One request as Server.Handler serves it: parse, the QUERY path (the
   cache, then the engine on a miss) or the UPDATE path, clamp, render. *)
let serve_request store cache ~hit line =
  let cmd =
    span "protocol.parse" (fun () ->
        P.parse (String.sub line 0 (String.length line - 1)))
  in
  let with_session sid f =
    match Server.Session.find store sid with
    | None -> P.err ("unknown session " ^ sid)
    | Some s -> f s
  in
  let resp =
    match cmd with
    | Ok (P.Query { sid; name; method_ = P.Auto; semantics = P.S; _ }) ->
        span "handler.query" (fun () ->
            with_session sid (fun s ->
                let key = query_key s name in
                match
                  span "cache.lookup" (fun () -> Server.Lru.find cache key)
                with
                | Some (head, body) ->
                    hit ();
                    P.ok ~body head
                | None ->
                    let rows, _, _ =
                      answer s.engine (Cqa.Parse.find_query s.doc name)
                    in
                    let body = List.map pp_row rows in
                    let head = Printf.sprintf "answers=%d" (List.length rows) in
                    span "cache.insert" (fun () ->
                        Server.Lru.add cache key (head, body);
                        Server.Session.remember_key s key);
                    P.ok ~body head))
    | Ok (P.Update { sid; op; rel; values }) ->
        span "handler.update" (fun () ->
            with_session sid (fun s ->
                match
                  span "session.update" (fun () ->
                      Server.Session.apply_update s ~op ~rel values)
                with
                | Error msg -> P.err msg
                | Ok () ->
                    span "cache.invalidate" (fun () ->
                        List.iter (Server.Lru.remove cache)
                          (Server.Session.take_keys s));
                    P.ok
                      (Printf.sprintf "size=%d"
                         (Instance.size s.doc.instance))))
    | Ok _ -> P.err "unexpected command"
    | Error msg -> P.err msg
  in
  span "protocol.render" (fun () -> P.render (P.clamp resp))

type served = {
  step : int;
  query : bool;
  wait_s : float;  (** scheduled send to the start of service *)
  service_s : float;
  bytes : int;
}

(* The serve_fo_rw schedule replayed in process, open loop except for
   the closed loop's requests, which run back to back until the step's
   time is up: a request starts at its due time or, when the one before
   overran, as soon as that one finishes -- the single-threaded server's queue, without the
   sockets.  Times are means per call; service is taken in the closed
   loop, wait at the ladder's first step. *)
let serve ~seed ~seconds =
  let per_span = Spans.cost_per_span () in
  Spans.clear ();
  let models = Serve_load.models ~seed in
  let steps = Serve_load.steps ~seconds in
  let reqs = Serve_load.requests ~seed models steps in
  let store = Server.Session.create_store () in
  let cache = Server.Lru.create ~capacity:512 in
  let rid = ref 0 and hits = ref 0 and failed = ref 0 and attempted = ref 0 in
  let oracles =
    Array.map (fun m -> (Docs.copy_fo m, Docs.checker Serve_load.keys)) models
  in
  let load i (m : Docs.fo) =
    incr rid;
    incr attempted;
    let text = Docs.fo_text m in
    span ~rid:!rid "request" (fun () ->
        let doc =
          span "parse.doc" (fun () -> Cqa.Parse.document_of_string text)
        in
        ignore
          (span "session.load" (fun () ->
               Server.Session.load store ~id:(Serve_load.sid i) doc)))
  in
  let serve_step step (rs : Serve_load.req array) =
    let start = Proc.now () +. 0.01 in
    (* The closed loop sends each request when the one before is
       answered, until its time is up. *)
    let closed = step = Serve_load.closed_step in
    let stop = start +. snd (List.nth steps step) in
    let serve (r : Serve_load.req) =
      let due = if closed then Proc.now () else start +. r.due in
      let ahead = due -. Proc.now () in
      if ahead > 0.0 then Unix.sleepf ahead;
      let began = Proc.now () in
      incr rid;
      incr attempted;
      let text =
        span ~rid:!rid "request" (fun () ->
            serve_request store cache ~hit:(fun () -> incr hits) r.line)
      in
      let service_s = Proc.now () -. began in
      let model, checker = oracles.(r.session) in
      (match
         Harness.Framer.feed (Harness.Framer.create ())
           (Bytes.unsafe_of_string text) 0 (String.length text)
       with
      | [ lines ] when Serve_load.check model checker r.kind lines -> ()
      | _ -> incr failed);
      {
        step;
        query = (match r.kind with Serve_load.Update _ -> false | _ -> true);
        wait_s = Float.max 0.0 (began -. due);
        service_s;
        bytes = String.length text;
      }
    in
    Array.to_list rs
    |> List.filter_map (fun r ->
           if closed && Proc.now () >= stop then None else Some (serve r))
  in
  let served, counters =
    with_counters (fun () ->
        Array.iteri load models;
        List.concat (List.mapi serve_step reqs))
  in
  (* Digest cost on each session's final document, apart from the
     replay so that it does not delay the schedule. *)
  List.iter
    (fun id ->
      Option.iter
        (fun (s : Server.Session.t) ->
          span ~rid:0 "session.digest" (fun () ->
              ignore (Server.Session.digest_of s.doc)))
        (Server.Session.find store id))
    (Server.Session.ids store);
  let spans = Spans.all () in
  let tbl = Spans.by_name spans in
  let at step p = List.filter (fun s -> s.step = step && p s) served in
  let closed = at Serve_load.closed_step in
  let mean_of f l =
    ratio
      (List.fold_left (fun acc x -> acc +. f x) 0.0 l)
      (float_of_int (List.length l))
  in
  let requests, root_self =
    List.fold_left
      (fun (n, self) ((s : Spans.span), t) ->
        if s.name = "request" then (n + 1, self +. t) else (n, self))
      (0, 0.0) (Spans.self_times spans)
  in
  let request_time =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if s.name = "request" then acc +. Spans.duration s else acc)
      0.0 spans
  in
  let lookups =
    Option.fold ~none:0 ~some:snd (Hashtbl.find_opt tbl "cache.lookup")
  in
  let routes =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (s : Spans.span) ->
           if s.name = "handler.query" then List.assoc_opt "route" s.attrs
           else None)
         spans)
  in
  let facts = Array.fold_left (fun acc (m : Docs.fo) -> acc + m.facts) 0 models in
  let per_request x = ratio x (float_of_int requests) in
  let extra =
    [
      ("protocol.bytes_per_resp", mean_of (fun s -> float_of_int s.bytes) served);
      ("cache.hit_ratio", ratio (float_of_int !hits) (float_of_int lookups));
      ("cache.evictions", float_of_int (Server.Lru.evictions cache));
      ( "handler.query_service_ms",
        mean_of (fun s -> s.service_s *. 1e3) (closed (fun s -> s.query)) );
      ( "handler.update_service_ms",
        mean_of
          (fun s -> s.service_s *. 1e3)
          (closed (fun s -> not s.query)) );
      ( "loop.wait_ms",
        mean_of
          (fun s -> s.wait_s *. 1e3)
          (at Serve_load.first_ladder_step (fun _ -> true)) );
      ( "parse.us_per_fact",
        ratio (total tbl "parse.doc" *. 1e6) (float_of_int facts) );
      ("other_ms", per_request (root_self *. 1e3));
      ("layer.coverage", ratio (request_time -. root_self) request_time);
      ( "trace.overhead_ms",
        per_request (float_of_int (List.length spans) *. per_span *. 1e3) );
      ("gc.top_heap_mb", top_heap_mb ());
    ]
  in
  {
    attempted = !attempted;
    failed = !failed;
    metrics = metrics ~time:(mean tbl) ~counter:(count counters) extra;
    notes =
      [
        Printf.sprintf
          "replay: %d requests, planned routes %s, cache hits %d of %d \
           lookups"
          (List.length served)
          (String.concat "," routes)
          !hits lookups;
      ];
  }
