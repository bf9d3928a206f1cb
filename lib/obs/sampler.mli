(** Tail-sampled tracing — the one retention path for interesting
    requests, kept in a bounded ring buffer.

    Always-on tracing to disk is a firehose; what an operator actually
    wants kept are the {e interesting} requests.  The serving layer
    offers every finished request to a sampler, which retains it only
    when the request

    - failed (retained with reason {!Error}), or
    - ran for at least the latency threshold (reason {!Slow}), or
    - fell on the deterministic 1-in-[sample_every] grid (reason
      {!Sampled}) — a background rate that keeps a baseline of normal
      traffic for comparison.

    Reasons take that precedence order (an over-threshold error is an
    [Error]).  A retained record carries the span tree, the solver
    counter deltas and the flight-recorder lines; the last two are
    passed lazily and forced only on retention, so a discarded request
    costs nothing beyond the decision.  The buffer holds at most
    [capacity] records; a new retention overwrites the oldest.  The
    sampler never reads a clock — wall time is passed in — so tests
    drive it with stubbed values. *)

type reason = Error | Slow | Sampled

val reason_label : reason -> string
(** ["error"], ["slow"], ["sampled"]. *)

type record = {
  rid : int;  (** request id, joinable with the event log *)
  command : string;
  wall_s : float;
  reason : reason;
  spans : Trace.span list;  (** the request's full span tree, start order *)
  counters : (string * int) list;
      (** counter deltas the request caused, sorted by name *)
  progress : string list;
      (** the request's flight-recorder trail ({!Progress.history_lines}) *)
}

type t

val create : ?capacity:int -> ?threshold_s:float -> ?sample_every:int -> unit -> t
(** [capacity] bounds the ring (default 64, minimum 1).  Omitting
    [threshold_s] disables the slow rule; [sample_every <= 0] (the
    default [0]) disables reservoir sampling, leaving error-only
    retention. *)

val offer :
  t ->
  rid:int ->
  command:string ->
  wall_s:float ->
  ok:bool ->
  ?counters:(string * int) list Lazy.t ->
  ?progress:string list Lazy.t ->
  Trace.span list ->
  record option
(** Consider one finished request; returns the retained record, or
    [None] when the request was discarded.  [counters] and [progress]
    (default empty) are forced only on retention. *)

val emit : Events.sink -> record -> unit
(** Write the record as one ["tail_trace"] event: [req], [command],
    [wall_us], [reason], [spans] (the rendered tree, one string per
    span), [counters] (an object of deltas) and, when non-empty,
    [progress]. *)

val retained : t -> record list
(** The ring's contents, oldest first. *)

val seen : t -> int
(** Requests offered since creation (or {!clear}). *)

val kept : t -> int
(** Requests retained, including any since overwritten. *)

val overwritten : t -> int
(** Retained records later displaced by the ring bound. *)

val capacity : t -> int

val clear : t -> unit
(** Empty the ring and restart the counters. *)

val summary_json : t -> string
(** [{"capacity":..,"seen":..,"kept":..,"overwritten":..,
    "retained":[{"req":..,"command":..,"wall_s":..,"reason":..,
    "spans":<n>},...]}] — record bodies are written as events at
    retention time, not inlined here. *)
