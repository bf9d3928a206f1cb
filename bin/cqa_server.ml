(* cqa-serve — the resident CQA service: a single-process select loop
   speaking the line protocol of Server.Protocol over a Unix-domain or
   TCP socket.  See `cqa client` for an interactive front end, and
   docs/TUTORIAL.md ("Serving CQA") for the protocol. *)

open Cmdliner

let version = "1.0.0"

let run unix_path port cache_capacity max_requests metrics_dump trace_dir
    metrics_port events_path workload_capacity workload_dump tail_sample_ms
    tail_sample_every default_timeout_ms =
  let fd, where =
    match
      match port with
      | Some p ->
          let fd, actual = Server.Loop.listen_tcp ~port:p () in
          (fd, Printf.sprintf "tcp://127.0.0.1:%d" actual)
      | None -> (Server.Loop.listen_unix unix_path, "unix://" ^ unix_path)
    with
    | listening -> listening
    | exception Failure msg ->
        prerr_endline ("cqa_server: " ^ msg);
        exit 1
    | exception Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "cqa_server: cannot listen on %s: %s\n" arg
          (Unix.error_message e);
        exit 1
  in
  let metrics_fd, metrics_where =
    match metrics_port with
    | None -> (None, None)
    | Some p -> (
        match Server.Loop.listen_tcp ~port:p () with
        | mfd, actual ->
            (Some mfd, Some (Printf.sprintf "http://127.0.0.1:%d/metrics" actual))
        | exception Unix.Unix_error (e, _, arg) ->
            Printf.eprintf "cqa_server: cannot listen on %s: %s\n" arg
              (Unix.error_message e);
            exit 1)
  in
  (* The event log: --events PATH, or stderr when a latency threshold is
     set without a destination (slow requests you ask to keep should go
     somewhere visible, not nowhere). *)
  let events =
    match (events_path, tail_sample_ms) with
    | Some path, _ -> (
        match Obs.Events.open_file path with
        | sink -> Some sink
        | exception Sys_error msg ->
            Printf.eprintf "cqa_server: cannot open event log: %s\n" msg;
            exit 1)
    | None, Some _ -> Some (Obs.Events.stderr_sink ())
    | None, None -> None
  in
  (* --trace-dir: turn tracing on for the whole process, stream every
     request's spans to DIR/spans.jsonl as they are drained, and keep a
     bounded copy to write DIR/trace.json (Chrome trace_event, loadable
     in Perfetto) at shutdown. *)
  let kept = ref [] and nkept = ref 0 in
  let keep_limit = 100_000 in
  let on_trace =
    match trace_dir with
    | None -> None
    | Some dir ->
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error ((EEXIST | EISDIR), _, _) -> ());
        Obs.Trace.set_enabled true;
        let path = Filename.concat dir "spans.jsonl" in
        Some
          (fun spans ->
            let oc =
              open_out_gen [ Open_append; Open_creat ] 0o644 path
            in
            List.iter
              (fun line -> output_string oc (line ^ "\n"))
              (Obs.Export.jsonl spans);
            close_out oc;
            if !nkept < keep_limit then begin
              kept := List.rev_append spans !kept;
              nkept := !nkept + List.length spans
            end)
  in
  (* Workload introspection: --workload 0 turns the statements store
     off; anything else bounds it.  The tail sampler — the one retention
     path for slow, errored and sampled requests — arms when either of
     its rules is requested. *)
  let stats =
    if workload_capacity = 0 then None
    else Some (Obs.Stats.create ~capacity:workload_capacity ())
  in
  let sampler =
    if tail_sample_ms = None && tail_sample_every = 0 then None
    else
      Some
        (Obs.Sampler.create
           ?threshold_s:(Option.map (fun ms -> ms /. 1e3) tail_sample_ms)
           ~sample_every:tail_sample_every ())
  in
  let t =
    Server.Loop.create ~cache_capacity ?on_trace ?events ?stats ?sampler
      ?default_timeout_ms ~version ?metrics_fd fd
  in
  (* Everything that must survive a shutdown — the Chrome trace, the
     metrics dump, the event log's final lines — goes through one
     idempotent flush, called both on the normal exit path and from
     at_exit so a signal arriving mid-write still leaves the files
     whole. *)
  let flushed = ref false in
  let flush_all () =
    if not !flushed then begin
      flushed := true;
      (* The in-flight table first: when a signal interrupts a wedged
         request, the flight recorder is the record of what it was doing.
         The table is read lock-free, so this is safe from a signal
         handler even if the interrupted code was mid-registration. *)
      (match Obs.Progress.inflight () with
      | [] -> ()
      | ctxs ->
          Printf.eprintf "in-flight at shutdown (%d):\n" (List.length ctxs);
          List.iter
            (fun c ->
              Printf.eprintf "  %s\n" (Obs.Progress.describe c);
              List.iter
                (fun l -> Printf.eprintf "    %s\n" l)
                (Obs.Progress.history_lines c))
            ctxs;
          flush stderr);
      (match trace_dir with
      | Some dir when !kept <> [] ->
          let path = Filename.concat dir "trace.json" in
          let oc = open_out path in
          output_string oc (Obs.Export.chrome (List.rev !kept));
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "wrote %d spans to %s\n%!" !nkept path
      | _ -> ());
      if metrics_dump then begin
        Server.Handler.sample_gauges (Server.Loop.handler t);
        List.iter print_endline
          (Server.Metrics.render
             (Server.Handler.metrics (Server.Loop.handler t)))
      end;
      (* The workload dump: one JSON object combining the statements
         store and the tail-sampling summary — the input of
         `cqa report`. *)
      (match (workload_dump, stats) with
      | Some path, Some stats -> (
          let sampler_json =
            match sampler with
            | Some s -> Obs.Sampler.summary_json s
            | None -> "null"
          in
          let doc =
            Printf.sprintf "{\"workload\":%s,\"sampler\":%s}"
              (Obs.Stats.to_json stats) sampler_json
          in
          try
            let oc = open_out path in
            output_string oc doc;
            output_char oc '\n';
            close_out oc;
            Printf.eprintf "wrote workload stats to %s\n%!" path
          with Sys_error msg ->
            Printf.eprintf "cqa_server: cannot write workload dump: %s\n%!" msg)
      | _ -> ());
      Option.iter
        (fun sink ->
          (* A wall-clock anchor next to the final lines, so this log
             can be correlated with other processes' logs. *)
          Obs.Events.anchor ~label:"shutdown" sink;
          Obs.Events.emit sink "shutdown";
          Obs.Events.close sink)
        events
    end
  in
  at_exit flush_all;
  let stopping = ref false in
  let stop_and_note _ =
    if !stopping then begin
      (* Second signal: the loop is wedged or the user is impatient —
         flush what we can and leave now. *)
      flush_all ();
      exit 130
    end;
    stopping := true;
    prerr_endline "shutting down";
    Server.Loop.stop t
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_and_note);
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_and_note)
   with Invalid_argument _ -> ());
  Printf.printf "cqa-serve listening on %s (cache capacity %d)\n%!" where
    cache_capacity;
  Option.iter (Printf.printf "metrics exposed at %s\n%!") metrics_where;
  Option.iter
    (fun sink ->
      Obs.Events.emit sink "startup";
      Obs.Events.anchor ~label:"startup" sink)
    events;
  Server.Loop.run ?max_requests t;
  flush_all ()

let unix_arg =
  Arg.(
    value
    & opt string "/tmp/cqa-serve.sock"
    & info [ "unix" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen on TCP 127.0.0.1:$(docv) instead of a Unix socket (0 \
              picks a free port).")

let cache_arg =
  Arg.(
    value
    & opt int 512
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Entries in the certain-answer memoization cache.")

let max_requests_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-requests" ] ~docv:"N"
        ~doc:"Exit after serving $(docv) requests (for scripted runs).")

let metrics_dump_arg =
  Arg.(
    value & flag
    & info [ "metrics-dump" ]
        ~doc:"Print the metrics registry to stdout on shutdown.")

let trace_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dir" ] ~docv:"DIR"
        ~doc:
          "Enable tracing and write spans to $(docv)/spans.jsonl as they \
           complete, plus a Chrome trace_event file $(docv)/trace.json \
           (open in Perfetto) on shutdown.")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve Prometheus text exposition over HTTP on \
           127.0.0.1:$(docv)/metrics (0 picks a free port).")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"PATH"
        ~doc:
          "Append structured JSONL events (one request record per request, \
           one tail_trace record per retained request, plus \
           startup/shutdown/anchor) to $(docv).")

let workload_arg =
  Arg.(
    value
    & opt int 256
    & info [ "workload" ] ~docv:"N"
        ~doc:
          "Workload introspection: aggregate per-query-fingerprint call \
           counts, latency histograms, cache traffic, plan-branch cost \
           centers and solver-counter deltas in a statements store bounded \
           to $(docv) entries (deterministic eviction).  Read back with \
           the WORKLOAD command; 0 disables.")

let workload_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload-dump" ] ~docv:"PATH"
        ~doc:
          "Write the workload statements store and tail-sampling summary \
           as one JSON object to $(docv) on shutdown (the input of `cqa \
           report`).")

let tail_sample_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "tail-sample-ms"; "slow-ms" ] ~docv:"MS"
        ~doc:
          "Retain every request that runs for at least $(docv) \
           milliseconds (errors are always retained): each is written at \
           once as one tail_trace event with reason slow, carrying its \
           span tree, counter deltas and flight-recorder trail, to \
           --events (stderr if unset), and kept in a 64-entry ring \
           summarized by --workload-dump.")

let tail_sample_every_arg =
  Arg.(
    value
    & opt int 0
    & info [ "tail-sample-every" ] ~docv:"K"
        ~doc:
          "Also retain every $(docv)-th request as a baseline of normal \
           traffic (tail_trace reason sampled; 0 disables).")

let default_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "default-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Deadline applied to every session-touching request that does \
           not carry its own timeout= option: past the budget the request \
           is cancelled cooperatively at the next solver heartbeat and \
           answered with a structured ERR deadline carrying its last \
           progress snapshot.")

let main =
  Cmd.v
    (Cmd.info "cqa_server" ~version
       ~doc:
         "Persistent CQA service: sessions, memoized certain answers, \
          request metrics.")
    Term.(
      const run $ unix_arg $ port_arg $ cache_arg $ max_requests_arg
      $ metrics_dump_arg $ trace_dir_arg $ metrics_port_arg $ events_arg
      $ workload_arg $ workload_dump_arg $ tail_sample_ms_arg
      $ tail_sample_every_arg $ default_timeout_arg)

let () = exit (Cmd.eval main)
