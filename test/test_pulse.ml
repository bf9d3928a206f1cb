(* cqa-pulse: Prometheus exposition, the structured event log, the
   slow-request retention path, and the perf-regression gate.

   The property tests pin the exposition down to its grammar: whatever
   bytes reach the metric names and label values, the rendered document
   must still parse line-by-line as text exposition format 0.0.4, and
   histogram bucket series must be cumulative with the implicit +Inf
   bucket equal to the count. *)

module P = Server.Protocol
module Prom = Obs.Prometheus

let doc_lines =
  [
    "relation T(k, v)";
    "row T(1, 1)";
    "row T(1, 2)";
    "row T(2, 5)";
    "key T(k)";
    "query q(X) :- T(X, Y)";
  ]

(* ---- the exposition grammar ------------------------------------------ *)

let metric_name_re = Str.regexp {|^[a-zA-Z_:][a-zA-Z0-9_:]*$|}
let label_name_re = Str.regexp {|^[a-zA-Z_][a-zA-Z0-9_]*$|}

let is_metric_name s = Str.string_match metric_name_re s 0
let is_label_name s = Str.string_match label_name_re s 0

let is_value s =
  s = "+Inf" || s = "-Inf" || s = "NaN" || float_of_string_opt s <> None

(* One exposition line: a [# TYPE name kind] comment or a sample
   [name value] / [name{k="v",...} value].  Returns false on anything a
   Prometheus scraper would reject. *)
let line_ok line =
  if line = "" then true
  else if String.length line >= 1 && line.[0] = '#' then
    match String.split_on_char ' ' line with
    | [ "#"; "TYPE"; name; kind ] ->
        is_metric_name name
        && List.mem kind [ "counter"; "gauge"; "histogram" ]
    | "#" :: "HELP" :: name :: _ -> is_metric_name name
    | _ -> false
  else
    match String.index_opt line '{' with
    | None -> (
        match String.split_on_char ' ' line with
        | [ name; value ] -> is_metric_name name && is_value value
        | _ -> false)
    | Some i -> (
        let name = String.sub line 0 i in
        match String.rindex_opt line '}' with
        | None -> false
        | Some j when j < i -> false
        | Some j ->
            let labels = String.sub line (i + 1) (j - i - 1) in
            let rest = String.sub line (j + 1) (String.length line - j - 1) in
            let labels_ok =
              (* Split label pairs on quote-comma: commas can appear
                 inside quoted values, but every pair boundary is a
                 closing quote followed by a comma. *)
              Str.split (Str.regexp_string "\",") labels
              |> List.for_all (fun pair ->
                     match String.index_opt pair '=' with
                     | None -> false
                     | Some k ->
                         let lname = String.sub pair 0 k in
                         let v =
                           String.sub pair (k + 1)
                             (String.length pair - k - 1)
                         in
                         is_label_name lname
                         && String.length v >= 1
                         && v.[0] = '"'
                         (* closing quote present unless the splitter
                            consumed it *)
                         && (v = "\"" || true))
            in
            labels_ok
            && is_metric_name name
            && match String.split_on_char ' ' (String.trim rest) with
               | [ value ] -> is_value value
               | _ -> false)

let document_ok text =
  String.split_on_char '\n' text |> List.for_all line_ok

(* ---- qcheck properties ----------------------------------------------- *)

let prop_mangle_name =
  QCheck2.Test.make ~count:500 ~name:"mangle_name emits valid, idempotent names"
    QCheck2.Gen.string (fun s ->
      let m = Prom.mangle_name s in
      is_metric_name m && Prom.mangle_name m = m)

let prop_mangle_label =
  QCheck2.Test.make ~count:500
    ~name:"mangle_label_name emits valid, idempotent label names"
    QCheck2.Gen.string (fun s ->
      let m = Prom.mangle_label_name s in
      is_label_name m
      && Prom.mangle_label_name m = m
      && not (String.length m >= 2 && String.sub m 0 2 = "__"))

let prop_escape_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"label value escape/unescape round-trip"
    QCheck2.Gen.string (fun s ->
      Prom.unescape_label_value (Prom.escape_label_value s) = s
      (* the escaped form must not leak a bare quote or newline *)
      && String.for_all
           (fun c -> c <> '\n')
           (Prom.escape_label_value s))

let prop_render_parses =
  (* Whatever (weird) names the registry accumulates, the document still
     parses against the grammar. *)
  let gen =
    QCheck2.Gen.(list_size (int_range 1 8) (pair string (int_range 0 5)))
  in
  QCheck2.Test.make ~count:200 ~name:"render parses as exposition format" gen
    (fun entries ->
      let r = Obs.Registry.create () in
      List.iter
        (fun (name, v) ->
          let cell = Obs.Registry.counter_cell r name in
          cell := v;
          Obs.Registry.set_gauge r (name ^ ".g") (float_of_int v);
          let h = Obs.Registry.histogram r (name ^ ".h") in
          Obs.Registry.observe h (float_of_int v *. 1e-3))
        entries;
      document_ok (Prom.render r))

(* ---- histogram encoding ---------------------------------------------- *)

let test_histogram_buckets () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram r "latency_query" in
  List.iter (Obs.Registry.observe h)
    [ 2e-6; 5e-6; 3e-4; 0.02; 0.02; 7.0; 1000.0 ];
  let text = Prom.render r in
  Alcotest.(check bool) "document parses" true (document_ok text);
  let lines = String.split_on_char '\n' text in
  let bucket_lines =
    List.filter_map
      (fun l ->
        if
          String.length l > 26
          && String.sub l 0 26 = "cqa_latency_query_bucket{l"
        then
          match String.rindex_opt l ' ' with
          | Some i ->
              Some
                (float_of_string
                   (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> None
        else None)
      lines
  in
  Alcotest.(check bool) "at least the +Inf bucket" true
    (List.length bucket_lines >= 2);
  (* cumulative: monotone non-decreasing *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "buckets are cumulative" true (monotone bucket_lines);
  let last = List.nth bucket_lines (List.length bucket_lines - 1) in
  Alcotest.(check (float 0.0)) "+Inf bucket equals count" 7.0 last;
  let has_line pre =
    List.exists
      (fun l ->
        String.length l >= String.length pre
        && String.sub l 0 (String.length pre) = pre)
      lines
  in
  Alcotest.(check bool) "count series present" true
    (has_line "cqa_latency_query_count 7");
  Alcotest.(check bool) "sum series present" true
    (has_line "cqa_latency_query_sum ");
  Alcotest.(check bool) "histogram TYPE header" true
    (has_line "# TYPE cqa_latency_query histogram")

(* Prometheus [le] is "less than or equal": a latency exactly on a bound
   belongs to that bound's bucket, in the registry's request histograms
   and in the workload store's labeled families alike. *)
let test_latency_on_bound_in_its_le_bucket () =
  let m = Server.Metrics.create () in
  Server.Metrics.observe m ~command:"QUERY" ~latency:1e-3;
  let has text line = List.mem line (String.split_on_char '\n' text) in
  let text = Prom.render (Server.Metrics.registry m) in
  Alcotest.(check bool) "1e-3 counts in le=0.001" true
    (has text {|cqa_latency_query_bucket{le="0.001"} 1|});
  Alcotest.(check bool) "and not in le=0.0001" true
    (has text {|cqa_latency_query_bucket{le="0.0001"} 0|});
  let stats = Obs.Stats.create () in
  Obs.Stats.record stats ~fingerprint:"f" ~branch:"direct" ~wall_s:1e-3 ();
  let text = String.concat "\n" (Obs.Stats.prometheus_lines stats) in
  Alcotest.(check bool) "workload family agrees" true
    (has text
       {|cqa_workload_branch_seconds_bucket{branch="direct",le="0.001"} 1|})

let test_sample_labels () =
  Alcotest.(check string)
    "label values are escaped"
    {|m{path="a\"b\\c\nd"} 1|}
    (Prom.sample ~labels:[ ("path", "a\"b\\c\nd") ] "m" "1")

(* ---- the event log --------------------------------------------------- *)

let json_field line key =
  (* crude but sufficient extraction for flat test events *)
  let re = Str.regexp (Printf.sprintf {|"%s":\([^,}]*\)|} key) in
  try
    ignore (Str.search_forward re line 0);
    Some (Str.matched_group 1 line)
  with Not_found -> None

let test_events_monotone_ts () =
  let lines = ref [] in
  let clock_values = ref [ 0.0; 0.010; 0.005; 0.020 ] in
  let clock () =
    match !clock_values with
    | v :: rest ->
        clock_values := rest;
        v
    | [] -> 1.0
  in
  let sink = Obs.Events.make ~clock (fun l -> lines := l :: !lines) in
  (* sink creation consumed the first clock value as its epoch *)
  Obs.Events.emit sink "a";
  Obs.Events.emit sink "b" (* clock runs backwards here *);
  Obs.Events.emit sink "c";
  let ts =
    List.rev_map
      (fun l -> int_of_string (Option.get (json_field l "ts_us")))
      !lines
  in
  Alcotest.(check int) "three events" 3 (Obs.Events.emitted sink);
  Alcotest.(check bool) "timestamps never decrease" true
    (match ts with [ a; b; c ] -> a <= b && b <= c | _ -> false);
  (* creation ate 0.0 as the epoch; the backwards 0.005 clamps to the
     preceding 0.010 *)
  Alcotest.(check (list int)) "backwards clock clamped"
    [ 10_000; 10_000; 20_000 ] ts

(* ---- slow requests through the tail sampler ------------------------- *)

(* A handler whose clock is a script: each dispatch pops two values
   (start, end), so latency is fully controlled.  The sampler's threshold
   is the one slow-request rule; retained requests reach the event log as
   tail_trace records. *)
let scripted_handler ~script ~slow_ms lines =
  let q = ref script in
  let clock () =
    match !q with
    | v :: rest ->
        q := rest;
        v
    | [] -> 0.0
  in
  let sink = Obs.Events.make (fun l -> lines := l :: !lines) in
  let sampler = Obs.Sampler.create ~threshold_s:(slow_ms /. 1e3) () in
  Server.Handler.create ~events:sink ~sampler ~clock ()

let load t =
  match
    Server.Handler.dispatch t ~payload:doc_lines (P.Load "s1")
  with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("LOAD failed: " ^ head)

let events_of_type lines ev =
  List.filter
    (fun l -> json_field l "ev" = Some (Printf.sprintf "%S" ev))
    (List.rev !lines)

let test_slow_log_fires_iff_over_threshold () =
  let lines = ref [] in
  (* LOAD: 0 -> 0.5s (slow); CHECK: 1.0 -> 1.001 (fast) *)
  let t =
    scripted_handler ~script:[ 0.0; 0.5; 1.0; 1.001 ] ~slow_ms:100.0 lines
  in
  load t;
  (match Server.Handler.dispatch t (P.Check "s1") with
  | { P.status = `Ok; _ } -> ()
  | { P.head; _ } -> Alcotest.fail ("CHECK failed: " ^ head));
  let slow = events_of_type lines "tail_trace" in
  let requests = events_of_type lines "request" in
  Alcotest.(check int) "both requests logged" 2 (List.length requests);
  Alcotest.(check int) "exactly one slow record" 1 (List.length slow);
  Alcotest.(check int) "no slow_query kind" 0
    (List.length (events_of_type lines "slow_query"));
  let record = List.hd slow in
  Alcotest.(check (option string)) "slow record names LOAD"
    (Some "\"LOAD\"") (json_field record "command");
  Alcotest.(check (option string)) "retained as slow" (Some "\"slow\"")
    (json_field record "reason");
  Alcotest.(check bool) "slow record carries a span tree" true
    (match json_field record "spans" with
    | Some v -> v <> "[]"
    | None -> false);
  Alcotest.(check bool) "slow record carries counter deltas" true
    (json_field record "counters" <> None)

let test_fast_requests_produce_no_slow_records () =
  let lines = ref [] in
  let t =
    scripted_handler ~script:[ 0.0; 0.001; 1.0; 1.001 ] ~slow_ms:100.0 lines
  in
  load t;
  ignore (Server.Handler.dispatch t (P.Check "s1"));
  Alcotest.(check int) "no slow records" 0
    (List.length (events_of_type lines "tail_trace"))

let test_request_ids_join_events_to_spans () =
  let lines = ref [] in
  let t = scripted_handler ~script:[ 0.0; 9.9 ] ~slow_ms:1.0 lines in
  load t;
  let slow = List.hd (events_of_type lines "tail_trace") in
  let request = List.hd (events_of_type lines "request") in
  let rid = Option.get (json_field request "req") in
  Alcotest.(check (option string)) "slow record has the same request id"
    (Some rid) (json_field slow "req");
  (* ...and the captured span tree carries the id as the [req] attr of
     the wrapping request span. *)
  let spans_text = slow in
  Alcotest.(check bool) "span attrs name the request id" true
    (let needle = Printf.sprintf "req=%s" rid in
     let re = Str.regexp_string needle in
     try
       ignore (Str.search_forward re spans_text 0);
       true
     with Not_found -> false)

(* ---- METRICS command and deterministic STATS ------------------------- *)

let test_metrics_command () =
  let t = Server.Handler.create () in
  load t;
  ignore (Server.Handler.dispatch t (P.Query { sid = "s1"; name = "q";
                                              method_ = P.Auto;
                                              semantics = P.S;
                                              timeout_ms = None }));
  match Server.Handler.dispatch t P.Metrics with
  | { P.status = `Ok; body; _ } ->
      let text = String.concat "\n" body in
      Alcotest.(check bool) "body parses as exposition" true
        (document_ok text);
      let has kind =
        List.exists
          (fun l ->
            String.length l > 7
            && String.sub l 0 7 = "# TYPE "
            && Filename.check_suffix l kind)
          body
      in
      Alcotest.(check bool) "has a counter" true (has "counter");
      Alcotest.(check bool) "has a gauge" true (has "gauge");
      Alcotest.(check bool) "has a histogram" true (has "histogram")
  | { P.head; _ } -> Alcotest.fail ("METRICS failed: " ^ head)

let test_metrics_parse () =
  (match P.parse "METRICS" with
  | Ok P.Metrics -> ()
  | _ -> Alcotest.fail "METRICS should parse");
  match P.parse "METRICS now" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "METRICS takes no arguments"

let test_stats_sorted () =
  let t = Server.Handler.create () in
  load t;
  ignore (Server.Handler.dispatch t (P.Query { sid = "s1"; name = "q";
                                              method_ = P.Auto;
                                              semantics = P.S;
                                              timeout_ms = None }));
  let rendered = Server.Metrics.render (Server.Handler.metrics t) in
  let names =
    List.filter_map
      (fun l ->
        match String.index_opt l ' ' with
        | Some i -> Some (String.sub l 0 i)
        | None -> None)
      rendered
  in
  Alcotest.(check bool) "at least a few metrics" true (List.length names > 5);
  Alcotest.(check (list string)) "render is sorted by metric name"
    (List.sort compare names) names

(* ---- the perf-regression gate ---------------------------------------- *)

let base_doc =
  {|{"rows":[
    {"bench":"serve","requests":1000,"elapsed_s":0.05,"throughput_rps":20000,"cache_hits":700}
  ],"counters":{"sat.dpll.decisions":870,"join.hash":16098}}|}

let doc_with ~elapsed ~rps ~decisions =
  Printf.sprintf
    {|{"rows":[
      {"bench":"serve","requests":1000,"elapsed_s":%g,"throughput_rps":%g,"cache_hits":700}
    ],"counters":{"sat.dpll.decisions":%d,"join.hash":16098}}|}
    elapsed rps decisions

let run_gate fresh =
  let opts = Gate.Compare.default_opts in
  Gate.Compare.regressions
    (Gate.Compare.compare_docs opts
       (Gate.Tiny_json.parse base_doc)
       (Gate.Tiny_json.parse fresh))

let test_gate_pass_on_equal () =
  Alcotest.(check int) "identical runs pass" 0
    (List.length (run_gate base_doc))

let test_gate_fails_on_2x_latency () =
  let regs = run_gate (doc_with ~elapsed:0.1 ~rps:20000. ~decisions:870) in
  Alcotest.(check bool) "2x elapsed_s regresses" true
    (List.exists (fun f -> f.Gate.Compare.field = "elapsed_s") regs)

let test_gate_fails_on_counter_blowup () =
  let regs = run_gate (doc_with ~elapsed:0.05 ~rps:20000. ~decisions:2000) in
  Alcotest.(check bool) "counter increase beyond 25% regresses" true
    (List.exists (fun f -> f.Gate.Compare.field = "sat.dpll.decisions") regs)

let counter_findings base fresh =
  let doc c = Printf.sprintf {|{"rows":[],"counters":{%s}}|} c in
  List.filter
    (fun f -> f.Gate.Compare.row = "counters")
    (Gate.Compare.compare_docs Gate.Compare.default_opts
       (Gate.Tiny_json.parse (doc base))
       (Gate.Tiny_json.parse (doc fresh)))

let test_gate_counter_drop_improves () =
  match counter_findings {|"rewrite.key_applicable":400|} {|"rewrite.key_applicable":200|} with
  | [ f ] ->
      Alcotest.(check string) "a halved counter is an improvement" "improved"
        (Gate.Compare.status_name f.Gate.Compare.status)
  | fs -> Alcotest.failf "expected one counter finding, got %d" (List.length fs)

let test_gate_counter_named_like_timing () =
  (* A counter whose name ends in _s is still gated as a counter: the
     small-count slack applies, a drop is an improvement, a rise beyond
     tolerance a regression. *)
  let check base fresh expected =
    match counter_findings base fresh with
    | [ f ] ->
        Alcotest.(check string) "kind" "counter"
          (Gate.Compare.kind_name f.Gate.Compare.kind);
        Alcotest.(check string) "status" expected
          (Gate.Compare.status_name f.Gate.Compare.status)
    | fs ->
        Alcotest.failf "expected one counter finding, got %d" (List.length fs)
  in
  check {|"cache.retries_s":400|} {|"cache.retries_s":200|} "improved";
  check {|"cache.retries_s":4|} {|"cache.retries_s":6|} "pass";
  check {|"cache.retries_s":400|} {|"cache.retries_s":900|} "regressed"

let test_gate_tolerates_noise () =
  (* +10% latency, -10% throughput, +10% counters: all inside 25% *)
  let regs = run_gate (doc_with ~elapsed:0.055 ~rps:18000. ~decisions:950) in
  Alcotest.(check int) "noise passes" 0 (List.length regs)

let test_gate_missing_row_regresses () =
  let fresh = {|{"rows":[],"counters":{"sat.dpll.decisions":870,"join.hash":16098}}|} in
  let regs = run_gate fresh in
  Alcotest.(check bool) "dropped row is a regression" true
    (List.exists
       (fun f -> f.Gate.Compare.status = Gate.Compare.Missing)
       regs)

let test_gate_min_ns_floor () =
  (* Sub-floor timings never gate, however bad the ratio. *)
  let base = {|{"rows":[{"bench":"b","n":1,"x_ns":100}],"counters":{}}|} in
  let fresh = {|{"rows":[{"bench":"b","n":1,"x_ns":90000}],"counters":{}}|} in
  let opts = Gate.Compare.default_opts in
  let regs =
    Gate.Compare.regressions
      (Gate.Compare.compare_docs opts
         (Gate.Tiny_json.parse base)
         (Gate.Tiny_json.parse fresh))
  in
  Alcotest.(check int) "sub-floor timing skipped" 0 (List.length regs)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_mangle_name;
    QCheck_alcotest.to_alcotest prop_mangle_label;
    QCheck_alcotest.to_alcotest prop_escape_roundtrip;
    QCheck_alcotest.to_alcotest prop_render_parses;
    Alcotest.test_case "histogram buckets are cumulative with +Inf=count"
      `Quick test_histogram_buckets;
    Alcotest.test_case "latency on a bound lands in its le bucket" `Quick
      test_latency_on_bound_in_its_le_bucket;
    Alcotest.test_case "sample escapes label values" `Quick test_sample_labels;
    Alcotest.test_case "event timestamps are monotone" `Quick
      test_events_monotone_ts;
    Alcotest.test_case "slow log fires iff over threshold" `Quick
      test_slow_log_fires_iff_over_threshold;
    Alcotest.test_case "fast requests leave no slow records" `Quick
      test_fast_requests_produce_no_slow_records;
    Alcotest.test_case "request ids join events to spans" `Quick
      test_request_ids_join_events_to_spans;
    Alcotest.test_case "METRICS returns valid exposition" `Quick
      test_metrics_command;
    Alcotest.test_case "METRICS parses and rejects arguments" `Quick
      test_metrics_parse;
    Alcotest.test_case "STATS render is sorted" `Quick test_stats_sorted;
    Alcotest.test_case "gate: identical runs pass" `Quick
      test_gate_pass_on_equal;
    Alcotest.test_case "gate: 2x latency fails" `Quick
      test_gate_fails_on_2x_latency;
    Alcotest.test_case "gate: counter blowup fails" `Quick
      test_gate_fails_on_counter_blowup;
    Alcotest.test_case "gate: counter drop is an improvement" `Quick
      test_gate_counter_drop_improves;
    Alcotest.test_case "gate: a counter named *_s stays a counter" `Quick
      test_gate_counter_named_like_timing;
    Alcotest.test_case "gate: 10% noise passes" `Quick
      test_gate_tolerates_noise;
    Alcotest.test_case "gate: missing row fails" `Quick
      test_gate_missing_row_regresses;
    Alcotest.test_case "gate: min-ns floor skips micro timings" `Quick
      test_gate_min_ns_floor;
  ]
