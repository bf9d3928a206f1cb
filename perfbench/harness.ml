(* Pure helpers of the benchmark program, kept apart so that the unit
   tests in test/ can exercise them without a server: percentiles, the
   seeded open-loop arrival schedule, and FIFO framing of pipelined
   protocol responses. *)

(* ---- percentiles ----------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array, [p] in [0, 1]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Harness.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median a = percentile a 0.5

type tail = {
  value : float;
  pct : float;  (** the percentile [value] sits at, in [0, 1] *)
  n : int;  (** samples *)
  beyond : int;  (** samples strictly above the percentile's rank *)
}

(* The highest percentile that still has at least ten samples, and at
   least one sample in twenty, past it (the twentieth keeps a large
   sample's tail from resting on a handful of stalls).  With eleven
   samples or fewer it degrades to the minimum and says so in
   [beyond]. *)
let tail a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Harness.tail: no samples";
  let rank = max 1 (n - max 10 ((n + 19) / 20)) in
  {
    value = a.(rank - 1);
    pct = float_of_int rank /. float_of_int n;
    n;
    beyond = n - rank;
  }

(* ---- the open-loop schedule ------------------------------------------ *)

(* Arrival offsets (seconds from the step start) of a Poisson process of
   [rate] per second conditioned on exactly round(rate * duration)
   arrivals in [0, duration): that many sorted uniform draws.  Fixing
   the count keeps the offered load of a step identical across seeds
   while the gaps stay exponential. *)
let arrivals rng ~rate ~duration =
  let n = max 1 (int_of_float (Float.round (rate *. duration))) in
  let a = Array.init n (fun _ -> Random.State.float rng duration) in
  Array.sort Float.compare a;
  a

(* Zipf(1) over ranks 0..n-1 as a cumulative table; [zipf_draw] maps a
   uniform draw to a rank by binary search. *)
let zipf_cdf n =
  let w = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf rng =
  let u = Random.State.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

type op =
  | Point of { session : int; value : int }  (** QUERY at<value> *)
  | Scan of { session : int; chain : bool }  (** QUERY proj / chain *)
  | Update of { session : int; key : int }
      (** toggle the second claimant of [key] *)

type mix = {
  sessions : int;
  keys : int;  (** keys per session *)
  values : int;  (** point-query values per session *)
  point : float;  (** share of point QUERYs *)
  scan : float;  (** share of scan QUERYs; UPDATEs take the rest *)
}

(* One request per arrival.  Each step deals its arrivals a shuffled
   deck holding the mix's shares exactly (split evenly over sessions,
   and scans evenly over proj and chain), so every seed offers the same
   amount of each kind of work; point queries draw Zipf-popular values
   (the popularity order is a seeded permutation of the values, one per
   session) and updates uniform keys. *)
let schedule ~seed ~mix ~steps =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let popular =
    Array.init mix.sessions (fun _ ->
        let p = Array.init mix.values Fun.id in
        shuffle rng p;
        p)
  in
  let cdf = zipf_cdf mix.values in
  List.map
    (fun (rate, duration) ->
      let times = arrivals rng ~rate ~duration in
      let n = Array.length times in
      let points = int_of_float (Float.round (mix.point *. float_of_int n)) in
      let scans = int_of_float (Float.round (mix.scan *. float_of_int n)) in
      let deck =
        Array.init n (fun i ->
            let session = i mod mix.sessions in
            if i < points then `Point session
            else if i < points + scans then
              `Scan (session, (i - points) / mix.sessions mod 2 = 0)
            else `Update session)
      in
      shuffle rng deck;
      Array.mapi
        (fun i t ->
          let op =
            match deck.(i) with
            | `Point session ->
                Point { session; value = popular.(session).(zipf_draw cdf rng) }
            | `Scan (session, chain) -> Scan { session; chain }
            | `Update session ->
                Update { session; key = Random.State.int rng mix.keys }
          in
          (t, op))
        times)
    steps

(* ---- response framing ----------------------------------------------- *)

(* Responses are a status line, body lines and a lone "." line; a
   pipelining client reads them back in request order.  [feed] takes
   whatever bytes arrived and returns the responses they completed,
   oldest first, each as its lines without the terminator. *)
module Framer = struct
  type t = {
    partial : Buffer.t;  (** bytes of an unfinished line *)
    mutable lines : string list;  (** current response, reversed *)
  }

  let create () = { partial = Buffer.create 4096; lines = [] }

  let feed t bytes off len =
    let out = ref [] in
    let start = ref off in
    for i = off to off + len - 1 do
      if Bytes.get bytes i = '\n' then begin
        Buffer.add_subbytes t.partial bytes !start (i - !start);
        let line = Buffer.contents t.partial in
        Buffer.clear t.partial;
        if String.equal line "." then begin
          out := List.rev t.lines :: !out;
          t.lines <- []
        end
        else t.lines <- line :: t.lines;
        start := i + 1
      end
    done;
    Buffer.add_subbytes t.partial bytes !start (off + len - !start);
    List.rev !out

  (* Nothing half-read: no partial line and no open response. *)
  let idle t = Buffer.length t.partial = 0 && t.lines = []
end

(* ---- the result line -------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* A JSON number with every digit the float has.  JSON cannot carry a
   non-finite value; the benchmark never computes one, and 0 keeps the
   line parseable if it ever did. *)
let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let result_line ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
      (json_number value) (json_string unit)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
