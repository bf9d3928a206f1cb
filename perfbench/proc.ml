(* Child processes of the benchmark: one-shot cqa_cli invocations whose
   output is captured, reaped before [run] returns, and the cqa_server
   the open loop talks to, reaped by [stop_server]. *)

let now = Unix.gettimeofday

let rec waitpid_noeintr pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (EINTR, _, _) -> waitpid_noeintr pid

let read_all fd =
  let b = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents b

external wait4 : int -> int * float * float * int = "perfbench_wait4"
external pin : int -> int -> bool = "perfbench_pin"

(* The generator runs on CPU 0 and what it measures on CPU 1, so that
   neither migrates and, while both have work, they do not share a CPU;
   no-op on a single CPU. *)
let generator_cpu = 0
let measured_cpu = 1
let pin_measured pid = ignore (pin pid measured_cpu)

(* Run [f] with the generator on the measured CPU: while the generator
   and what it measures take turns, neither then waits for the other's
   CPU to wake. *)
let on_measured_cpu f =
  ignore (pin 0 measured_cpu);
  Fun.protect ~finally:(fun () -> ignore (pin 0 generator_cpu)) f

type run = {
  wall_s : float;  (** spawn to exit *)
  cpu_s : float;  (** child user + system time *)
  peak_rss_mb : float;
  ok : bool;  (** exited with status 0 *)
  stdout : string;
}

(* Run [prog args] to completion with stdout captured and stderr
   discarded; wall time covers process start, the run and its exit. *)
let run prog args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ O_WRONLY; O_CLOEXEC ] 0 in
  let w0 = now () in
  let pid =
    Unix.create_process prog
      (Array.of_list (prog :: args))
      Unix.stdin out_w null
  in
  pin_measured pid;
  Unix.close out_w;
  Unix.close null;
  let stdout = read_all out_r in
  Unix.close out_r;
  let code, user, sys, maxrss_kb = wait4 pid in
  {
    wall_s = now () -. w0;
    cpu_s = user +. sys;
    peak_rss_mb = float_of_int maxrss_kb /. 1024.0;
    ok = code = 0;
    stdout;
  }

let lines s =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rest -> List.rev rest
  | l -> List.rev l

(* ---- the server ------------------------------------------------------- *)

type server = { pid : int; sock : string }

let connect sock =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* Start cqa_server on a Unix socket and wait until it accepts a
   connection (the probe connection is returned for use). *)
let start_server ~bin ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ O_WRONLY; O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process bin [| bin; "--unix"; sock |] Unix.stdin null null
  in
  pin_measured pid;
  Unix.close null;
  let deadline = now () +. 30.0 in
  let rec wait () =
    match connect sock with
    | Some fd -> fd
    | None ->
        (match Unix.waitpid [ WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "cqa_server exited during start-up");
        if now () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (waitpid_noeintr pid);
          failwith "cqa_server did not accept connections within 30 s"
        end;
        Unix.sleepf 0.002;
        wait ()
  in
  let fd = wait () in
  ({ pid; sock }, fd)

(* Peak resident set of a live process, from /proc (kB -> MB). *)
let vm_hwm_mb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  with
  | text ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
          | _ -> None)
        (String.split_on_char '\n' text)
  | exception Sys_error _ -> None

(* SIGTERM is the server's graceful stop; it is reaped here. *)
let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ WNOHANG ] s.pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_noeintr s.pid)
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> wait ()
  in
  wait ();
  try Sys.remove s.sock with Sys_error _ -> ()
