(* serve_fo_rw: traffic against cqa_server on a Unix socket, in three
   phases: an open loop of Poisson arrivals over a ladder of fixed
   offered rates, a saturation step that keeps the server busy, and a
   closed loop of one request at a time.

   In the ladder and the saturation step each session's requests travel
   on that session's own connection; the closed loop sends everything
   on one connection.  Either way the server executes a session's
   requests in send order, so the generator's model of the session (its
   UPDATEs applied in the same order) is an exact oracle for every
   answer.  A request's latency runs to the arrival of its response's
   closing "." line: in the ladder from its scheduled send time, so a
   stall is charged to every request queued behind it, elsewhere from
   its actual send. *)

let sessions = 2
let keys = 8000  (* ~1e4 T facts per session; proj/chain ~8e3 rows *)
let values = 800  (* one at<v> point query per value *)
let conflict = 0.2

let mix =
  {
    Harness.sessions;
    keys;
    values;
    point = 0.75;
    scan = 0.15 (* UPDATEs: the remaining 10% *);
  }

(* The phases, in the order they run, as (rate, length); the rate times
   the length is the number of requests a phase is dealt.  The ladder's
   and the closed loop's lengths are shares of the run.

   - A warm-up step (fixed length, open loop, checked but not measured)
     fills the server's heap and caches.
   - The ladder (open loop): the highest step whose p99 stays within
     [p99_limit_ms], whose generator stays within [lateness_limit_ms]
     and whose backlog does not grow is the sustained rate; the latency
     of each step is printed.  Latency at a low offered rate is not
     gated: between two requests the server's CPU idles for tens of
     milliseconds, and on a shared host the time to wake it and refill
     its caches moved the median of the 30 req/s step by a quarter
     between runs of the same code.
   - The saturation step sends 2,400 requests with [window] of them in
     flight on each connection, so the server always has work; the rate
     at which it completes them is the throughput.  Its size is fixed,
     not its time.  The window stays small because an open loop far
     above the server's rate piles hundreds of responses into the
     server's output buffer, whose appends copy it whole, and the
     throughput then depends on how the requests happen to batch: it
     spread by a quarter between runs.
   - The closed loop, for more than half of the run: requests are sent
     one at a time on one connection, each as soon as the one before is
     answered, with the generator on the server's CPU, until the step's
     time is up.  The server never waits long for work and no request
     queues behind another, so a request's latency is its service time
     plus the round trip: the median and tail latency are taken here.
     It is dealt more requests than it can send (the server answered
     140 to 420 a second this way when this was written); it runs last
     so that the requests it leaves unsent change no later step's
     UPDATEs. *)
let warmup = (20.0, 2.0)
let ladder = [ (30.0, 0.1); (60.0, 0.05); (120.0, 0.05) ]
let saturation = (800.0, 3.0)
let window = 4
let closed = (600.0, 0.55)
let p99_limit_ms = 250.0
let lateness_limit_ms = 10.0

let sid i = Printf.sprintf "s%d" i

type kind =
  | Point of int
  | Proj
  | Chain
  | Update of { key : int; second : (int * int) option; size : int }
      (** the claimant state after the toggle, and the session size *)

type req = { due : float; session : int; line : string; kind : kind }

(* Turn the seeded schedule into request lines, replaying the UPDATEs on
   a private copy of each session's model to draw the claimants. *)
let requests ~seed models steps =
  let rng = Random.State.make [| seed; 0x0bd |] in
  let gen = Array.map Docs.copy_fo models in
  List.map
    (Array.map (fun (due, op) ->
         match op with
         | Harness.Point { session; value } ->
             {
               due;
               session;
               line = Printf.sprintf "QUERY %s at%d\n" (sid session) value;
               kind = Point value;
             }
         | Harness.Scan { session; chain } ->
             {
               due;
               session;
               line =
                 Printf.sprintf "QUERY %s %s\n" (sid session)
                   (if chain then "chain" else "proj");
               kind = (if chain then Chain else Proj);
             }
         | Harness.Update { session; key } ->
             let m = gen.(session) in
             let fact = Docs.toggle m rng key in
             {
               due;
               session;
               line = Printf.sprintf "UPDATE %s %s\n" (sid session) fact;
               kind =
                 Update
                   { key; second = m.Docs.second.(key); size = m.Docs.facts };
             }))
    (Harness.schedule ~seed ~mix ~steps)

(* ---- connections ------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  framer : Harness.Framer.t;
  pending : (req * float) Queue.t;  (** in flight, with its due time *)
  mutable out : string;  (** bytes not yet accepted by the socket *)
  mutable eof : bool;  (** the server closed the connection *)
  model : Docs.fo;
      (** the oracle of the session with this connection's index: its
          UPDATEs applied as they are answered *)
  checker : Docs.checker;
}

let buf = Bytes.create 65536

let flush c =
  if c.out <> "" then
    match Unix.write_substring c.fd c.out 0 (String.length c.out) with
    | n -> c.out <- String.sub c.out n (String.length c.out - n)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* The server is gone: what is in flight is never answered. *)
        c.eof <- true;
        c.out <- ""

(* Responses completed by whatever is readable now ([] at EOF too; EOF
   itself shows up as requests that never get answered). *)
let read_responses c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 ->
      c.eof <- true;
      []
  | n -> Harness.Framer.feed c.framer buf 0 n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> []
  | exception Unix.Unix_error _ ->
      c.eof <- true;
      []

(* ---- checking ---------------------------------------------------------- *)

let is_truncation l =
  String.length l >= 12 && String.sub l 0 12 = "...truncated"

(* Is this the right response to a request of [kind]?  An ERR, a
   truncated body, an answers=N that disagrees with the body, and a
   stale or wrong answer all fail.  An UPDATE the server acknowledged
   is applied to the model [m]. *)
let check (m : Docs.fo) checker kind = function
  | [] -> false
  | status :: body -> (
      (not (String.length status >= 3 && String.sub status 0 3 = "ERR"))
      && (not (List.exists is_truncation body))
      &&
      match kind with
      | Update { key; second; size } ->
          Docs.set_second m key second;
          status = Printf.sprintf "OK size=%d" size
      | Point _ | Proj | Chain -> (
          status = Printf.sprintf "OK answers=%d" (List.length body)
          &&
          match kind with
          | Point v -> Docs.check_point m checker v body
          | Proj -> Docs.check_proj m checker body
          | _ -> Docs.check_chain m checker body))

(* ---- one ladder step --------------------------------------------------- *)

type step = {
  rate : float;
  sent : int;
  answered : int;
  failed : int;  (** ERR, wrong, stale, truncated or missing *)
  query_ms : float array;  (** sorted *)
  update_ms : float array;
  all_ms : float array;
  lateness_ms : float array;
  backlog : int array;  (** in flight at each send, in send order *)
  span_s : float;  (** step start to its last response *)
}

(* Mean of a slice of the backlog samples. *)
let mean_of a lo hi =
  if hi <= lo then 0.0
  else begin
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + a.(i)
    done;
    float_of_int !s /. float_of_int (hi - lo)
  end

(* The queue grows when the last third of the step saw clearly more
   requests in flight than the first third. *)
let backlog_grows s =
  let n = Array.length s.backlog in
  let first = mean_of s.backlog 0 (n / 3)
  and last = mean_of s.backlog (n - (n / 3)) n in
  last > (2.0 *. first) +. 1.0

let passes s =
  s.failed = 0
  && Array.length s.all_ms > 0
  && Harness.percentile s.all_ms 0.99 <= p99_limit_ms
  && Harness.percentile s.lateness_ms 0.99 <= lateness_limit_ms
  && not (backlog_grows s)

let achieved_rps s = float_of_int s.answered /. s.span_s

(* How a step sends its requests: [Open], each at its due time on its
   session's connection; [Window w], each on its session's connection
   as soon as fewer than [w] are in flight there; [Closed s], one at a
   time on the first connection, each as soon as the one before is
   answered, for [s] seconds (the rest are not sent).  Outside the open
   loop a request is due when it is sent. *)
type mode = Open | Window of int | Closed of float

(* Drive one step's requests through [conns], then wait for the
   stragglers, up to [drain_s] past [last_due]: the last due time in the
   open loop, the end of a closed loop, the start of a window. *)
let run_step ~mode ~drain_s conns rate (reqs : req array) =
  let n = Array.length reqs in
  let start = Proc.now () +. 0.01 in
  let last_due =
    match mode with
    | Closed s -> start +. s
    | Open -> if n = 0 then start else start +. reqs.(n - 1).due
    | Window _ -> start
  in
  (* A window keeps each session's requests in order on its own queue. *)
  let queues = Array.map (fun _ -> Queue.create ()) conns in
  (match mode with
  | Window _ -> Array.iter (fun r -> Queue.push r queues.(r.session)) reqs
  | Open | Closed _ -> ());
  let query_ms = ref [] and update_ms = ref [] and lateness = ref [] in
  let backlog = Array.make n 0 in
  let in_flight = ref 0 and answered = ref 0 and failed = ref 0 in
  let last_response = ref start in
  let next = ref 0 in
  let deadline = last_due +. drain_s in
  let to_send () =
    !next < n
    && match mode with Closed _ -> Proc.now () < last_due | _ -> true
  in
  (* The next request to send now, with its connection and due time. *)
  let ready t =
    if not (to_send ()) then None
    else
      match mode with
      | Open ->
          let r = reqs.(!next) in
          if start +. r.due <= t then Some (r, conns.(r.session), start +. r.due)
          else None
      | Closed _ ->
          if !in_flight = 0 then Some (reqs.(!next), conns.(0), t) else None
      | Window w ->
          let rec free i =
            if i = Array.length conns then None
            else if
              Queue.length conns.(i).pending < w
              && not (Queue.is_empty queues.(i))
            then Some (Queue.pop queues.(i), conns.(i), t)
            else free (i + 1)
          in
          free 0
  in
  while (to_send () || !in_flight > 0) && Proc.now () < deadline do
    let rec send_ready () =
      match ready (Proc.now ()) with
      | None -> ()
      | Some (r, c, due) ->
          backlog.(!next) <- !in_flight;
          c.out <- c.out ^ r.line;
          Queue.push (r, due) c.pending;
          flush c;
          if mode = Open then
            lateness := ((Proc.now () -. due) *. 1000.0) :: !lateness;
          incr in_flight;
          incr next;
          send_ready ()
    in
    send_ready ();
    let wait =
      if !next < n && mode = Open then
        Float.max 0.0 (start +. reqs.(!next).due -. Proc.now ())
      else 0.05
    in
    let fds =
      List.filter_map (fun c -> if c.eof then None else Some c.fd)
        (Array.to_list conns)
    in
    let wfds =
      List.filter_map (fun c -> if c.out <> "" then Some c.fd else None)
        (Array.to_list conns)
    in
    match Unix.select fds wfds [] wait with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, writable, _ ->
        Array.iter
          (fun c ->
            if List.memq c.fd writable then flush c;
            if List.memq c.fd readable then
              List.iter
                (fun lines ->
                  let t = Proc.now () in
                  match Queue.take_opt c.pending with
                  | None -> incr failed (* a response nobody asked for *)
                  | Some (r, due) ->
                      decr in_flight;
                      incr answered;
                      last_response := t;
                      let ms = (t -. due) *. 1000.0 in
                      (match r.kind with
                      | Update _ -> update_ms := ms :: !update_ms
                      | _ -> query_ms := ms :: !query_ms);
                      let o = conns.(r.session) in
                      if not (check o.model o.checker r.kind lines) then
                        incr failed)
                (read_responses c))
          conns
  done;
  (* Requests never answered, and outside a closed loop never sent,
     count as failures. *)
  (match mode with
  | Closed _ -> ()
  | Open | Window _ -> failed := !failed + (n - !next));
  failed := !failed + !in_flight;
  let q = Harness.sorted !query_ms and u = Harness.sorted !update_ms in
  {
    rate;
    sent = !next;
    answered = !answered;
    failed = !failed;
    query_ms = q;
    update_ms = u;
    all_ms = Harness.sorted (!query_ms @ !update_ms);
    lateness_ms = Harness.sorted !lateness;
    backlog =
      (match mode with Closed _ -> Array.sub backlog 0 !next | _ -> backlog);
    span_s = Float.max 1e-6 (!last_response -. start);
  }

(* ---- set-up ------------------------------------------------------------ *)

let send_all fd text =
  let rec go off =
    if off < String.length text then
      go (off + Unix.write_substring fd text off (String.length text - off))
  in
  go 0

(* Blocking read of one whole response. *)
let read_response fd framer =
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> failwith "cqa_server closed the connection"
    | n -> (
        match Harness.Framer.feed framer buf 0 n with
        | [ r ] -> r
        | [] -> go ()
        | _ -> failwith "unexpected extra response")
  in
  go ()

let expect_ok what = function
  | status :: _ when String.length status >= 2 && String.sub status 0 2 = "OK" ->
      ()
  | status :: _ -> failwith (what ^ ": " ^ status)
  | [] -> failwith (what ^ ": empty response")

(* Start a server and LOAD every session, one connection per session;
   returns when every LOAD is acknowledged (and stops the server if one
   is not). *)
let setup ~server_bin ~sock texts =
  let server, probe = Proc.start_server ~bin:server_bin ~sock in
  Unix.close probe;
  let load () =
    let fds =
      Array.map
        (fun _ ->
          match Proc.connect sock with
          | Some fd -> fd
          | None -> failwith "cannot connect to cqa_server")
        texts
    in
    Array.iteri
      (fun i text ->
        send_all fds.(i) (Printf.sprintf "LOAD %s\n%s.\n" (sid i) text))
      texts;
    Array.iteri
      (fun i fd ->
        expect_ok ("LOAD " ^ sid i)
          (read_response fd (Harness.Framer.create ())))
      fds;
    fds
  in
  match load () with
  | fds -> (server, fds)
  | exception e ->
      Proc.stop_server server;
      raise e

let stats fd =
  send_all fd "STATS\n";
  match read_response fd (Harness.Framer.create ()) with
  | _ :: body ->
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ k; v ] -> Option.map (fun v -> (k, v)) (float_of_string_opt v)
          | _ -> None)
        body
  | [] -> []

type run = {
  setup_s : float array;  (** sorted, one per set-up *)
  warmup : step;
  closed : step;  (** the closed loop *)
  steps : step list;  (** the ladder, lowest rate first *)
  saturated : step;
  peak_rss_mb : float;
  stats : (string * float) list;  (** STATS at the end of the run *)
}

let models ~seed =
  Array.init sessions (fun i ->
      Docs.fo_model ~seed:((seed * 31) + i) ~keys ~values ~conflict)

(* (rate, seconds) of the phases, in the order they run. *)
let steps ~seconds =
  let share (rate, s) = (rate, s *. seconds) in
  (warmup :: List.map share ladder) @ [ saturation; share closed ]

(* Indices in [steps] of the ladder's first step, the saturation step
   and the closed loop. *)
let first_ladder_step = 1
let saturation_step = first_ladder_step + List.length ladder
let closed_step = saturation_step + 1

(* [setups] full set-ups are timed (server spawn to the last LOAD
   acknowledged); the steps then run on the last one.  During set-up
   and the closed loop only one of the generator and the server has
   work at a time, so they share the server's CPU. *)
let run ~server_bin ~sock ~seed ~seconds ~setups =
  let models = models ~seed in
  let texts = Array.map (fun m -> Docs.fo_text m) models in
  let steps = steps ~seconds in
  let reqs = requests ~seed models steps in
  let rec setup_n k acc =
    let t0 = Proc.now () in
    let server, fds = setup ~server_bin ~sock texts in
    let dt = Proc.now () -. t0 in
    if k > 1 then begin
      Array.iter Unix.close fds;
      Proc.stop_server server;
      setup_n (k - 1) (dt :: acc)
    end
    else (server, fds, dt :: acc)
  in
  let server, fds, setup_s =
    Proc.on_measured_cpu (fun () -> setup_n setups [])
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds;
      Proc.stop_server server)
    (fun () ->
      let conns =
        Array.mapi
          (fun i fd ->
            Unix.set_nonblock fd;
            {
              fd;
              framer = Harness.Framer.create ();
              pending = Queue.create ();
              out = "";
              eof = false;
              model = Docs.copy_fo models.(i);
              checker = Docs.checker keys;
            })
          fds
      in
      let steps =
        List.mapi
          (fun i ((rate, length), rs) ->
            if i = closed_step then
              Proc.on_measured_cpu (fun () ->
                  run_step ~mode:(Closed length) ~drain_s:20.0 conns rate rs)
            else if i = saturation_step then
              run_step ~mode:(Window window) ~drain_s:60.0 conns rate rs
            else run_step ~mode:Open ~drain_s:20.0 conns rate rs)
          (List.combine steps reqs)
      in
      let stats =
        match Proc.connect sock with
        | Some fd ->
            Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> stats fd)
        | None -> []
      in
      {
        warmup = List.hd steps;
        closed = List.nth steps closed_step;
        steps =
          List.filteri
            (fun i _ -> i >= first_ladder_step && i < saturation_step)
            steps;
        saturated = List.nth steps saturation_step;
        setup_s = Harness.sorted setup_s;
        peak_rss_mb = Option.value ~default:0.0 (Proc.vm_hwm_mb server.Proc.pid);
        stats;
      })

(* The highest ladder step that passes with every step below it passing
   too; its achieved rate is the sustained rate (0 if the first fails). *)
let sustained steps =
  let rec go best = function
    | s :: rest when passes s -> go (achieved_rps s) rest
    | _ -> best
  in
  go 0.0 steps
