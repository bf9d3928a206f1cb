(** The single-process event loop: a [Unix.select]-based server speaking
    the {!Protocol} over a Unix-domain or TCP socket.

    The loop owns one {!Handler} (hence one session store, one cache, one
    metrics registry) shared by every connection.  [step] services all
    ready descriptors exactly once and returns, which makes the server
    drivable from a test or benchmark in the same process — interleave
    [step] with client reads/writes on a connected socket — while [run]
    is the production loop of [bin/cqa_server]. *)

type t

val create :
  ?cache_capacity:int ->
  ?max_body_lines:int ->
  ?on_trace:(Obs.Trace.span list -> unit) ->
  ?events:Obs.Events.sink ->
  ?stats:Obs.Stats.t ->
  ?sampler:Obs.Sampler.t ->
  ?default_timeout_ms:float ->
  ?progress:bool ->
  ?version:string ->
  ?clock:(unit -> float) ->
  ?metrics_fd:Unix.file_descr ->
  Unix.file_descr ->
  t
(** Wrap a listening socket (see {!listen_unix}/{!listen_tcp}).  The
    descriptor is set non-blocking.  [metrics_fd] is a second listening
    socket served as a minimal HTTP endpoint: [GET /metrics] returns
    {!Handler.metrics_text} (Prometheus text exposition, one response
    per connection, then close), [GET /healthz] returns [ok].  The
    remaining optional arguments are passed to {!Handler.create};
    [progress] defaults to [true] here (the production loop arms the
    in-flight machinery) where {!Handler.create} defaults it off. *)

val handler : t -> Handler.t

val connections : t -> int
(** Currently open client connections. *)

val step : ?timeout:float -> t -> int
(** Wait up to [timeout] seconds (default 0: poll) for readiness, then
    accept new connections, read and execute every complete request, and
    flush pending output.  Returns the number of descriptors serviced;
    0 means the server is idle. *)

val run : ?max_requests:int -> ?gauge_interval:float -> t -> unit
(** [step] until {!stop} is called (e.g. from a signal handler) or the
    handler has seen [max_requests] requests; responses already produced
    are then delivered (waiting at most a second) before the
    connections close.  Every [gauge_interval]
    seconds (default 5, sampled once up front) the runtime gauges are
    refreshed via {!Handler.sample_gauges}, so a scrape between requests
    still sees fresh GC and session numbers. *)

val stop : t -> unit
(** Make [run] return after the current iteration; open connections are
    closed and the listening socket shut. *)

val listen_unix : string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket path (unlinking any stale
    socket file first). *)

val listen_tcp : ?host:string -> port:int -> unit -> Unix.file_descr * int
(** Bind and listen on [host] (default 127.0.0.1); returns the actual
    port, useful with [port:0]. *)
