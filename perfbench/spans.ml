(* Spans recorded by the traced run around each call it makes into a
   layer: name, start, end, the span that caused it, and the request id
   its root carries.  They stay in memory until [write] at the end. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  rid : int;  (** request or item id, shared by a root and its children *)
  name : string;
  t0 : float;
  mutable t1 : float;
  mutable attrs : (string * string) list;
}

let recorded : span list ref = ref []  (* newest first *)
let stack : span list ref = ref []
let next_id = ref 0

let clear () =
  recorded := [];
  stack := [];
  next_id := 0

let open_span ?rid name =
  incr next_id;
  let parent, inherited =
    match !stack with p :: _ -> (p.id, p.rid) | [] -> (0, 0)
  in
  let s =
    {
      id = !next_id;
      parent;
      rid = Option.value ~default:inherited rid;
      name;
      t0 = Unix.gettimeofday ();
      t1 = Float.nan;
      attrs = [];
    }
  in
  stack := s :: !stack;
  s

let close_span s =
  s.t1 <- Unix.gettimeofday ();
  (match !stack with
  | top :: rest when top == s -> stack := rest
  | _ -> invalid_arg ("Spans: unbalanced close of " ^ s.name));
  recorded := s :: !recorded

let with_span ?rid name f =
  let s = open_span ?rid name in
  match f () with
  | v ->
      close_span s;
      v
  | exception e ->
      close_span s;
      raise e

(* Attach [k=v] to the innermost open span. *)
let attr k v =
  match !stack with s :: _ -> s.attrs <- (k, v) :: s.attrs | [] -> ()

let all () = List.rev !recorded

(* Replace what is recorded, e.g. by spans recorded in another process. *)
let restore spans =
  clear ();
  recorded := List.rev spans

let duration s = s.t1 -. s.t0

(* Self time of every span: its duration minus what its direct children
   cover (children of one span never overlap: the run is sequential). *)
let self_times spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    spans;
  List.map
    (fun s ->
      let covered =
        Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      (s, duration s -. covered))
    spans

(* Sum of self times and call count per span name, over [spans]. *)
let by_name spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (t +. self, n + 1))
    (self_times spans);
  tbl

(* Cost of recording one span, measured on empty spans, so the traced
   run can state its own overhead. *)
let cost_per_span () =
  let saved = (!recorded, !stack, !next_id) in
  let n = 20_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    with_span "probe" ignore
  done;
  let per = (Unix.gettimeofday () -. t0) /. float_of_int n in
  let r, s, i = saved in
  recorded := r;
  stack := s;
  next_id := i;
  per

let write path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"rid\": %d, \"name\": %s, \
             \"start_us\": %.1f, \"end_us\": %.1f%s}\n"
            s.id s.parent s.rid (Harness.json_string s.name) (s.t0 *. 1e6)
            (s.t1 *. 1e6)
            (String.concat ""
               (List.rev_map
                  (fun (k, v) ->
                    Printf.sprintf ", %s: %s" (Harness.json_string k)
                      (Harness.json_string v))
                  s.attrs)))
        (List.sort (fun a b -> compare a.id b.id) spans))
