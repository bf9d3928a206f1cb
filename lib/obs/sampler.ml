(* Tail sampler: bounded ring of retained requests.  Pure — the wall
   time of each request is an argument, never read from a clock. *)

type reason = Error | Slow | Sampled

let reason_label = function
  | Error -> "error"
  | Slow -> "slow"
  | Sampled -> "sampled"

type record = {
  rid : int;
  command : string;
  wall_s : float;
  reason : reason;
  spans : Trace.span list;
  counters : (string * int) list;
  progress : string list;
}

type t = {
  cap : int;
  threshold_s : float option;
  sample_every : int;
  ring : record option array;
  mutable next : int; (* write position *)
  mutable seen : int;
  mutable kept : int;
  mutable overwritten : int;
}

let create ?(capacity = 64) ?threshold_s ?(sample_every = 0) () =
  let cap = max 1 capacity in
  {
    cap;
    threshold_s;
    sample_every;
    ring = Array.make cap None;
    next = 0;
    seen = 0;
    kept = 0;
    overwritten = 0;
  }

let offer t ~rid ~command ~wall_s ~ok ?(counters = lazy [])
    ?(progress = lazy []) spans =
  t.seen <- t.seen + 1;
  let reason =
    if not ok then Some Error
    else
      match t.threshold_s with
      | Some thr when wall_s >= thr -> Some Slow
      | _ ->
          if t.sample_every > 0 && t.seen mod t.sample_every = 0 then Some Sampled
          else None
  in
  match reason with
  | None -> None
  | Some reason ->
      (* Only a retained request pays for its counter deltas and its
         flight-recorder lines. *)
      let r =
        {
          rid;
          command;
          wall_s;
          reason;
          spans;
          counters = Lazy.force counters;
          progress = Lazy.force progress;
        }
      in
      if t.ring.(t.next) <> None then t.overwritten <- t.overwritten + 1;
      t.ring.(t.next) <- Some r;
      t.next <- (t.next + 1) mod t.cap;
      t.kept <- t.kept + 1;
      Some r

let emit sink r =
  let json_list xs =
    "[" ^ String.concat "," (List.map Export.json_string xs) ^ "]"
  in
  let counters =
    "{"
    ^ String.concat ","
        (List.map
           (fun (n, v) -> Printf.sprintf "%s:%d" (Export.json_string n) v)
           r.counters)
    ^ "}"
  in
  Events.emit sink ~req:r.rid
    ~fields:
      ([
         ("command", Events.Str r.command);
         ("wall_us", Events.Float (r.wall_s *. 1e6));
         ("reason", Events.Str (reason_label r.reason));
         ("spans", Events.Raw (json_list (Export.tree r.spans)));
         ("counters", Events.Raw counters);
       ]
      @
      match r.progress with
      | [] -> []
      | lines -> [ ("progress", Events.Raw (json_list lines)) ])
    "tail_trace"

let retained t =
  let out = ref [] in
  for i = t.cap - 1 downto 0 do
    match t.ring.((t.next + i) mod t.cap) with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  !out

let seen t = t.seen
let kept t = t.kept
let overwritten t = t.overwritten
let capacity t = t.cap

let clear t =
  Array.fill t.ring 0 t.cap None;
  t.next <- 0;
  t.seen <- 0;
  t.kept <- 0;
  t.overwritten <- 0

let summary_json t =
  let records =
    List.map
      (fun r ->
        Printf.sprintf
          "{\"req\":%d,\"command\":%s,\"wall_s\":%.9g,\"reason\":%s,\"spans\":%d}"
          r.rid
          (Export.json_string r.command)
          r.wall_s
          (Export.json_string (reason_label r.reason))
          (List.length r.spans))
      (retained t)
  in
  Printf.sprintf
    "{\"capacity\":%d,\"seen\":%d,\"kept\":%d,\"overwritten\":%d,\"retained\":[%s]}"
    t.cap t.seen t.kept t.overwritten
    (String.concat "," records)
