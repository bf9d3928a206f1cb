(* The benchmark program.  `run.py` builds cqa_server, cqa_cli and this
   program, then runs

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --bin DIR --out DIR

   The inputs are generated here from the seed; the binaries only ever
   see the generated documents and requests.  The last line of stdout is
   the JSON result; the lines before it print every metric by name and
   unit for a reader. *)

let workloads = [ "serve_fo_rw"; "cli_fo_bulk"; "cli_tiers" ]

let ms x = x *. 1e3

let tail_note what (t : Harness.tail) =
  Printf.sprintf "%s tail: p%.1f of %d samples, %d beyond it" what
    (t.pct *. 100.0) t.n t.beyond

(* serve_fo_rw, untraced: five timed set-ups, then the steps.  Median
   and tail latency come from the closed loop, throughput from the
   saturation step. *)
let serve_e2e ~bin ~out ~seed ~seconds : Traced.outcome =
  let r =
    Serve_load.run
      ~server_bin:(Filename.concat bin "cqa_server.exe")
      ~sock:(Filename.concat out "cqa.sock") ~seed ~seconds ~setups:5
  in
  let ref_step = List.hd r.steps in
  let all = r.closed.all_ms in
  let tail = Harness.tail all in
  let everything = (r.warmup :: r.closed :: r.steps) @ [ r.saturated ] in
  let attempted =
    List.fold_left
      (fun acc (s : Serve_load.step) -> acc + Array.length s.backlog)
      0 everything
    + (Array.length r.setup_s * Serve_load.sessions)
  and failed =
    List.fold_left
      (fun acc (s : Serve_load.step) -> acc + s.failed)
      0 everything
  in
  let pct a p =
    if Array.length a = 0 then Float.nan else Harness.percentile a p
  in
  let step_notes =
    List.map
      (fun (s : Serve_load.step) ->
        Printf.sprintf
          "step %3.0f req/s: sent %d answered %d failed %d achieved %.2f req/s \
           p50 %.2f ms p99 %.2f ms lateness p99 %.2f ms max %.2f ms backlog \
           max %d grows %b -> %s"
          s.rate s.sent s.answered s.failed (Serve_load.achieved_rps s)
          (pct s.all_ms 0.5) (pct s.all_ms 0.99) (pct s.lateness_ms 0.99)
          (pct s.lateness_ms 1.0)
          (Array.fold_left max 0 s.backlog)
          (Serve_load.backlog_grows s)
          (if Serve_load.passes s then "pass" else "fail"))
      r.steps
  in
  let kinds what (s : Serve_load.step) =
    Printf.sprintf
      "%s: query p50 %.2f ms p99 %.2f ms (%d), update p50 %.2f ms p90 %.2f \
       ms (%d)"
      what (pct s.query_ms 0.5) (pct s.query_ms 0.99)
      (Array.length s.query_ms) (pct s.update_ms 0.5) (pct s.update_ms 0.9)
      (Array.length s.update_ms)
  in
  let sat = r.saturated in
  let stat k = Option.value ~default:Float.nan (List.assoc_opt k r.stats) in
  {
    attempted;
    failed;
    metrics =
      [
        ("setup_s", Harness.median r.setup_s, "s");
        ("p50_ms", Harness.median all, "ms");
        ("tail_ms", tail.value, "ms");
        ("throughput_per_s", Serve_load.achieved_rps r.saturated, "1/s");
        ("peak_rss_mb", r.peak_rss_mb, "MB");
      ];
    notes =
      Printf.sprintf
        "closed loop: %d requests in %.2f s (%.2f req/s), failed %d"
        r.closed.answered r.closed.span_s
        (Serve_load.achieved_rps r.closed)
        r.closed.failed
      :: kinds "closed loop" r.closed
      :: tail_note "closed-loop request" tail
      :: Printf.sprintf
           "saturation, %d in flight per connection: sent %d answered %d \
            failed %d in %.2f s (%.2f req/s), p50 %.2f ms p99 %.2f ms"
           Serve_load.window sat.sent sat.answered sat.failed sat.span_s
           (Serve_load.achieved_rps sat)
           (pct sat.all_ms 0.5) (pct sat.all_ms 0.99)
      :: Printf.sprintf "set-ups: %s s"
           (String.concat ", "
              (Array.to_list (Array.map (Printf.sprintf "%.4f") r.setup_s)))
      :: step_notes
      @ [
          kinds (Printf.sprintf "open loop at %.0f req/s" ref_step.rate) ref_step;
          Printf.sprintf
            "sustained %.2f req/s (limits: p99 %.0f ms, lateness p99 %.0f ms, \
             no growing backlog)"
            (Serve_load.sustained r.steps) Serve_load.p99_limit_ms
            Serve_load.lateness_limit_ms;
          Printf.sprintf "server STATS: cache_hits %.0f cache_misses %.0f \
                          cache_evictions %.0f"
            (stat "cache_hits") (stat "cache_misses") (stat "cache_evictions");
        ];
  }

(* Set-up of a cqa_cli workload (generating and writing its document),
   timed [n] times; the last copy is the one used. *)
let cli_setup ~workload ~seed ~out n =
  let rec go k acc =
    let t0 = Proc.now () in
    let items = Cli_load.items ~workload ~seed ~dir:out in
    let acc = (Proc.now () -. t0) :: acc in
    if k > 1 then go (k - 1) acc else (items, Harness.sorted acc)
  in
  go n []

let geomean l =
  exp
    (List.fold_left (fun acc x -> acc +. log x) 0.0 l
    /. float_of_int (List.length l))

let wall_ms (s : Cli_load.sample) = ms s.wall_s

(* The cqa_cli workloads.  A round answers every document once; its
   time is the geometric mean of the invocations' wall times, so a
   relative gain on any one tier counts the same (with one document,
   the invocation's wall time).  The tail is taken over invocations: a
   run holds too few rounds for a percentile above the median. *)
let cli_e2e ~bin ~out ~workload ~seed ~seconds : Traced.outcome =
  let items, setup = cli_setup ~workload ~seed ~out 5 in
  let warm, rounds =
    Cli_load.run ~cli:(Filename.concat bin "cqa_cli.exe") ~seconds items
  in
  let samples = List.concat rounds in
  let round_ms =
    Harness.sorted (List.map (fun r -> geomean (List.map wall_ms r)) rounds)
  in
  let busy_s =
    List.fold_left (fun acc (s : Cli_load.sample) -> acc +. s.wall_s) 0.0 samples
  in
  let tail = Harness.tail (Harness.sorted (List.map wall_ms samples)) in
  let all = warm @ samples in
  let item_note (i : Cli_load.item) =
    let mine =
      List.filter (fun (s : Cli_load.sample) -> s.item = i.name) samples
    in
    let p50 f = Harness.median (Harness.sorted (List.map f mine)) in
    Printf.sprintf
      "%s: %d facts, %d invocations, wall p50 %.2f ms, cpu p50 %.2f ms"
      i.name i.facts (List.length mine) (p50 wall_ms)
      (p50 (fun (s : Cli_load.sample) -> ms s.cpu_s))
  in
  {
    attempted = List.length all;
    failed =
      List.length (List.filter (fun (s : Cli_load.sample) -> not s.ok) all);
    metrics =
      [
        ("setup_s", Harness.median setup, "s");
        ("p50_ms", Harness.median round_ms, "ms");
        ("tail_ms", tail.value, "ms");
        ("throughput_per_s", float_of_int (List.length rounds) /. busy_s, "1/s");
        ( "peak_rss_mb",
          List.fold_left
            (fun acc (s : Cli_load.sample) -> Float.max acc s.peak_rss_mb)
            0.0 samples,
          "MB" );
      ];
    notes = List.map item_note items @ [ tail_note "invocation" tail ];
  }

let traced ~bin ~out ~workload ~seed ~seconds =
  let r =
    if workload = "serve_fo_rw" then Traced.serve ~seed ~seconds
    else
      let items, _ = cli_setup ~workload ~seed ~out 1 in
      Traced.cli ~cli_bin:(Filename.concat bin "cqa_cli.exe") ~runs:3 items
  in
  Spans.write
    (Filename.concat out (Printf.sprintf "spans-%s-%d.jsonl" workload seed))
    (Spans.all ());
  r

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and bin = ref "_build/default/bin" in
  let out = ref ".perfbench-out" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " one of " ^ String.concat ", " workloads );
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measurement length");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
      ("--bin", Arg.Set_string bin, " directory of cqa_server.exe, cqa_cli.exe");
      ("--out", Arg.Set_string out, " directory for documents, socket, spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline
      ("bench: --workload must be one of " ^ String.concat ", " workloads
     ^ " and --trace 0 or 1");
    exit 2
  end;
  (try Unix.mkdir !out 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  (* A server that goes away must show up as failed requests, not kill
     the generator on its next write. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  ignore (Proc.pin 0 Proc.generator_cpu);
  (* On SIGTERM/SIGINT unwind, so the server and children started so far
     are stopped and reaped on the way out. *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> raise Exit)))
    [ Sys.sigterm; Sys.sigint ];
  let workload = !workload and seed = !seed and seconds = !seconds in
  let bin = !bin and out = !out in
  let r =
    if !trace = 1 then traced ~bin ~out ~workload ~seed ~seconds
    else if workload = "serve_fo_rw" then serve_e2e ~bin ~out ~seed ~seconds
    else cli_e2e ~bin ~out ~workload ~seed ~seconds
  in
  Printf.printf "workload %s seed %d trace %d\n" workload seed !trace;
  List.iter (fun n -> print_endline ("  " ^ n)) r.notes;
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-28s %14.4f %s\n" name v unit)
    r.metrics;
  Printf.printf "  error_rate %.6f (%d failed of %d attempted)\n"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  print_endline
    (Harness.result_line ~correct:(r.failed = 0) ~attempted:r.attempted
       ~failed:r.failed r.metrics)
