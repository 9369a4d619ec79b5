(** The [mae top] live dashboard: poll a running serve instance's
    observability plane ([/metrics], [/slo], [/tracez], [/runtimez])
    and render a text frame per interval -- throughput, cache hit
    ratio, SLO burn rates, per-method latency quantiles from the
    sketches, a per-domain GC pane (pause quantiles, collections/s,
    allocation rate), and the worst recently captured traces.

    The fetch/parse/render stages are exposed separately so tests can
    exercise the parsers and the renderer on canned payloads without a
    server. *)

val http_get :
  host:string -> port:int -> path:string -> (string, string) result
(** Blocking HTTP/1.0 GET; returns the response body. *)

type pm_sample = {
  pm_name : string;  (** metric name, label block stripped *)
  pm_quantile : float option;  (** the [quantile="q"] label, if any *)
  pm_value : float;
}

val parse_prometheus : string -> pm_sample list
(** Parse Prometheus text exposition; comment lines and unparsable
    lines are skipped. *)

val metric_value : pm_sample list -> string -> float option
(** First unlabelled sample of that name (counters, gauges). *)

val sketch_quantiles : pm_sample list -> string -> (float * float) list
(** All [(quantile, value)] samples of a summary metric. *)

type slo_row = {
  slo_name : string;
  slo_kind : string;
  target : float;
  fast_burn : float;
  slow_burn : float;
  fast_bad : int;
  fast_total : int;
  slo_healthy : bool;
}

val parse_slo : string -> (bool * slo_row list, string) result
(** Parse a [GET /slo] body into (overall healthy, rows). *)

type capture_row = {
  cap_rid : string;
  cap_kind : string;  (** ["errored"] or ["slow"] *)
  cap_latency : float;
  cap_error : string option;
}

val parse_captures : string -> (capture_row list, string) result
(** Parse the tail-based captures out of a [GET /tracez] body. *)

type runtime_row = {
  rt_domain : int;
  rt_pauses : int;
  rt_p50 : float option;  (** median pause, seconds; [None] when unset *)
  rt_p99 : float option;
  rt_max_pause_s : float;
  rt_minors : int;
  rt_major_slices : int;
  rt_alloc_words : float;
  rt_heap_words : float;
}

val parse_runtimez : string -> (runtime_row list, string) result
(** Parse the per-domain GC rows out of a [GET /runtimez] body. *)

type sample = {
  at : float;  (** monotonic sample instant, for rate arithmetic *)
  metrics : pm_sample list;
  healthy : bool;
  slos : slo_row list;
  captures : capture_row list;
  runtime : runtime_row list;
}

val fetch : host:string -> port:int -> (sample, string) result
(** One poll: [/metrics] and [/slo] are required, [/tracez] and
    [/runtimez] are best-effort (the GC pane simply disappears when
    the runtime lens is off). *)

val render : ?prev:sample -> sample -> string
(** Render one dashboard frame; [prev] enables the req/s rate. *)

val run :
  host:string ->
  port:int ->
  interval_s:float ->
  iterations:int option ->
  clear:bool ->
  (unit, string) result
(** Poll and print frames every [interval_s] seconds until
    [iterations] frames have been shown ([None] means forever);
    [clear] redraws in place with ANSI clear-screen. *)
