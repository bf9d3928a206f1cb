module P = Protocol

(* Per-connection state.  [payload] is set while a LOAD's document lines
   are being collected (session id, lines in reverse). *)
type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable out : string;
  mutable payload : (string * string list) option;
  mutable closing : bool; (* QUIT seen: close once output drains *)
}

(* A metrics-port connection: a minimal HTTP/1.0 exchange — read one
   request head, write one response, close. *)
type http_conn = {
  hfd : Unix.file_descr;
  hinbuf : Buffer.t;
  mutable hout : string;
  mutable responded : bool;
}

type t = {
  listen_fd : Unix.file_descr;
  metrics_fd : Unix.file_descr option;
  handler : Handler.t;
  mutable conns : conn list;
  mutable hconns : http_conn list;
  mutable stopped : bool;
}

let create ?cache_capacity ?max_body_lines ?on_trace ?events ?stats ?sampler
    ?default_timeout_ms ?(progress = true) ?version ?clock ?metrics_fd
    listen_fd =
  Unix.set_nonblock listen_fd;
  Option.iter Unix.set_nonblock metrics_fd;
  {
    listen_fd;
    metrics_fd;
    handler =
      Handler.create ?cache_capacity ?max_body_lines ?on_trace ?events ?stats
        ?sampler ?default_timeout_ms ~progress ?version ?clock ();
    conns = [];
    hconns = [];
    stopped = false;
  }

let handler t = t.handler
let connections t = List.length t.conns

let close_conn t conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c -> c != conn) t.conns

let enqueue t conn response =
  let text = P.render response in
  Metrics.add_bytes_out (Handler.metrics t.handler) (String.length text);
  conn.out <- conn.out ^ text

(* One complete request line (without its newline). *)
let process_line t conn line =
  match conn.payload with
  | Some (sid, acc) ->
      if String.trim line = P.terminator then begin
        conn.payload <- None;
        enqueue t conn
          (Handler.dispatch t.handler ~payload:(List.rev acc) (P.Load sid))
      end
      else conn.payload <- Some (sid, line :: acc)
  | None -> (
      if String.trim line = "" then () (* blank lines between requests ok *)
      else
        match P.parse line with
        | Ok (P.Load sid) -> conn.payload <- Some (sid, [])
        | Ok P.Quit ->
            enqueue t conn (Handler.dispatch t.handler P.Quit);
            conn.closing <- true
        | Ok command -> enqueue t conn (Handler.dispatch t.handler command)
        | Error msg -> enqueue t conn (Handler.parse_failure t.handler msg))

(* Split off every complete line accumulated in [inbuf]. *)
let drain_lines conn =
  let s = Buffer.contents conn.inbuf in
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | None ->
        Buffer.clear conn.inbuf;
        Buffer.add_substring conn.inbuf s start (String.length s - start);
        List.rev acc
    | Some i ->
        let line = String.sub s start (i - start) in
        let line =
          (* Tolerate CRLF clients (telnet, netcat -C). *)
          if line <> "" && line.[String.length line - 1] = '\r' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        go (i + 1) (line :: acc)
  in
  go 0 []

let read_conn t conn =
  let bytes = Bytes.create 4096 in
  let rec read_all () =
    match Unix.read conn.fd bytes 0 (Bytes.length bytes) with
    | 0 -> close_conn t conn
    | n ->
        Metrics.add_bytes_in (Handler.metrics t.handler) n;
        Buffer.add_subbytes conn.inbuf bytes 0 n;
        read_all ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t conn
  in
  read_all ();
  (* Only process lines if the connection survived the read. *)
  if List.memq conn t.conns then
    List.iter (process_line t conn) (drain_lines conn)

let write_conn t conn =
  (match
     Unix.write_substring conn.fd conn.out 0 (String.length conn.out)
   with
  | n -> conn.out <- String.sub conn.out n (String.length conn.out - n)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t conn);
  if List.memq conn t.conns && conn.closing && conn.out = "" then
    close_conn t conn

let accept_all t =
  let rec go n =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        t.conns <-
          {
            fd;
            inbuf = Buffer.create 256;
            out = "";
            payload = None;
            closing = false;
          }
          :: t.conns;
        go (n + 1)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> n
  in
  go 0

(* ---- the metrics HTTP listener --------------------------------------- *)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let close_hconn t hc =
  (try Unix.close hc.hfd with Unix.Unix_error _ -> ());
  t.hconns <- List.filter (fun c -> c != hc) t.hconns

let accept_http t fd =
  let rec go n =
    match Unix.accept fd with
    | hfd, _ ->
        Unix.set_nonblock hfd;
        t.hconns <-
          { hfd; hinbuf = Buffer.create 256; hout = ""; responded = false }
          :: t.hconns;
        go (n + 1)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> n
  in
  go 0

(* Answer as soon as the request line is complete; the rest of the head
   is irrelevant to a metrics endpoint. *)
let http_respond t hc =
  match String.index_opt (Buffer.contents hc.hinbuf) '\n' with
  | None -> ()
  | Some i ->
      let line = String.trim (String.sub (Buffer.contents hc.hinbuf) 0 i) in
      hc.responded <- true;
      hc.hout <-
        (match String.split_on_char ' ' line with
        | [ ("GET" | "HEAD"); path; _ ] -> (
            match String.split_on_char '?' path with
            | ("/metrics" | "/") :: _ ->
                http_response ~status:"200 OK"
                  ~content_type:"text/plain; version=0.0.4; charset=utf-8"
                  (Handler.metrics_text t.handler)
            | "/healthz" :: _ ->
                http_response ~status:"200 OK" ~content_type:"text/plain"
                  "ok\n"
            | _ ->
                http_response ~status:"404 Not Found"
                  ~content_type:"text/plain" "not found\n")
        | _ ->
            http_response ~status:"400 Bad Request" ~content_type:"text/plain"
              "bad request\n")

let read_hconn t hc =
  let bytes = Bytes.create 1024 in
  (match Unix.read hc.hfd bytes 0 (Bytes.length bytes) with
  | 0 -> close_hconn t hc
  | n -> Buffer.add_subbytes hc.hinbuf bytes 0 n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_hconn t hc);
  if List.memq hc t.hconns && not hc.responded then http_respond t hc

let write_hconn t hc =
  (match Unix.write_substring hc.hfd hc.hout 0 (String.length hc.hout) with
  | n -> hc.hout <- String.sub hc.hout n (String.length hc.hout - n)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_hconn t hc);
  if List.memq hc t.hconns && hc.responded && hc.hout = "" then
    close_hconn t hc

let step ?(timeout = 0.0) t =
  let reads =
    t.listen_fd
    :: (Option.to_list t.metrics_fd
       @ List.map (fun c -> c.fd) t.conns
       @ List.map (fun c -> c.hfd) t.hconns)
  in
  let writes =
    List.filter_map (fun c -> if c.out <> "" then Some c.fd else None) t.conns
    @ List.filter_map
        (fun c -> if c.hout <> "" then Some c.hfd else None)
        t.hconns
  in
  match Unix.select reads writes [] timeout with
  | exception Unix.Unix_error (EINTR, _, _) -> 0
  | readable, writable, _ ->
      let serviced = ref 0 in
      if List.memq t.listen_fd readable then
        serviced := !serviced + accept_all t;
      (match t.metrics_fd with
      | Some fd when List.memq fd readable ->
          serviced := !serviced + accept_http t fd
      | _ -> ());
      List.iter
        (fun conn ->
          if List.mem conn.fd readable then begin
            incr serviced;
            read_conn t conn
          end)
        t.conns;
      List.iter
        (fun hc ->
          if List.mem hc.hfd readable then begin
            incr serviced;
            read_hconn t hc
          end)
        t.hconns;
      List.iter
        (fun conn ->
          if List.mem conn.fd writable && List.memq conn t.conns then begin
            incr serviced;
            write_conn t conn
          end)
        t.conns;
      List.iter
        (fun hc ->
          if List.mem hc.hfd writable && List.memq hc t.hconns then begin
            incr serviced;
            write_hconn t hc
          end)
        t.hconns;
      !serviced

let stop t = t.stopped <- true

let run ?max_requests ?(gauge_interval = 5.0) t =
  let budget_left () =
    match max_requests with
    | None -> true
    | Some n -> Metrics.requests (Handler.metrics t.handler) < n
  in
  Handler.sample_gauges t.handler;
  let next_sample = ref (Unix.gettimeofday () +. gauge_interval) in
  while (not t.stopped) && budget_left () do
    ignore (step ~timeout:0.5 t);
    let now = Unix.gettimeofday () in
    if now >= !next_sample then begin
      Handler.sample_gauges t.handler;
      next_sample := now +. gauge_interval
    end
  done;
  (* Deliver the responses already produced — the last request of a
     [max_requests] run included — waiting at most a second for slow
     readers before closing. *)
  let deadline = Unix.gettimeofday () +. 1.0 in
  let rec drain () =
    match List.filter (fun c -> c.out <> "") t.conns with
    | [] -> ()
    | pending ->
        let left = deadline -. Unix.gettimeofday () in
        if left > 0.0 then begin
          (match Unix.select [] (List.map (fun c -> c.fd) pending) [] left with
          | _, writable, _ ->
              List.iter
                (fun c -> if List.mem c.fd writable then write_conn t c)
                pending
          | exception Unix.Unix_error (EINTR, _, _) -> ());
          drain ()
        end
  in
  drain ();
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [];
  List.iter
    (fun c -> try Unix.close c.hfd with Unix.Unix_error _ -> ())
    t.hconns;
  t.hconns <- [];
  (match t.metrics_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

let listen_unix path =
  (* Reclaim only a leftover socket; anything else at that path is not
     ours to delete. *)
  (match Unix.stat path with
  | { Unix.st_kind = S_SOCK; _ } -> Unix.unlink path
  | _ ->
      failwith
        (Printf.sprintf "listen_unix: %s exists and is not a socket" path)
  | exception Unix.Unix_error (ENOENT, _, _) -> ());
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 64;
  let actual =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, actual)
