(** Mergeable, bounded-memory streaming quantile sketches
    (log-bucket summaries in the style of DDSketch: Masson, Rim & Lee,
    VLDB 2019).

    A sketch counts observations in logarithmically sized buckets:
    bucket [k] holds the values in [(gamma^(k-1), gamma^k]] with
    [gamma = (1 + alpha) / (1 - alpha)], and a quantile query answers
    with the bucket's midpoint [2 gamma^k / (gamma + 1)].  When the
    exact order statistic at rank [max 1 (ceil (q * n))] lies between
    a floor of [1e-9] and a ceiling of [1e6], the answer is within
    relative error {!alpha} of it.  Observations at or below the floor
    share one underflow bucket (answered as 0), those above the
    ceiling one overflow bucket (answered as the exact maximum); every
    answer is clamped to the exact [[min, max]] of the stream.  Count,
    sum, min and max are exact.

    Storage is one fixed array of bucket counters per sketch, shared by
    all domains and allocated on the sketch's first observation, so a
    sketch that never observes (telemetry off) costs a few words.  An
    observation takes the sketch's mutex for a handful of stores and
    allocates nothing; reads copy the counters under the same mutex,
    so every read sees every observation that returned before it.
    Sketches merge by adding their counter arrays
    ({!quantile_of_many}), with the same relative-error guarantee. *)

type t

val alpha : float
(** Relative accuracy of every quantile answer: [0.005] (0.5%). *)

val create : ?help:string -> ?labels:(string * string) list -> string -> t
(** [create name] registers (or returns, idempotently) the sketch
    called [name].  [name] must match [mae_[a-z0-9_]*] -- same lint as
    {!Metrics}.  [labels] attaches constant label pairs
    ([[("domain", "3")]]); the registry keys on (name, labels), so
    differently-labelled sketches with the same name form one
    Prometheus family whose series carry the labels (merged with the
    [quantile] label) and whose HELP/TYPE metadata is emitted once.
    Label names must match [[a-z_][a-z0-9_]*] and values must not
    contain quotes, backslashes or newlines.
    Raises [Invalid_argument] on a bad name or label. *)

val observe : t -> float -> unit
(** Record one sample; safe from any domain. *)

val observe_exemplar : t -> label:string -> float -> unit
(** {!observe}, additionally offering [(label, value)] as an exemplar:
    the sketch keeps the largest few labelled observations (e.g.
    request ids of the slowest requests) so /metrics can cross-link to
    /tracez.  Exemplar slots are global and racy-by-design; losing one
    under contention is acceptable. *)

val quantile : t -> float -> float option
(** [quantile t q] for [q] in [[0, 1]]: within {!alpha} relative error
    of the exact order statistic at rank [max 1 (ceil (q * n))].
    [None] when empty. *)

val quantile_of_many : t list -> float -> float option
(** Pooled query over the union of several sketches' streams (their
    bucket arrays summed) -- used to answer "p99 GC pause across all
    domains" from the per-domain labelled sketches.  Same bound.
    [None] when all are empty. *)

type snapshot = {
  n : int;  (** sample count *)
  sum : float;
  min_v : float;  (** [nan] when empty *)
  max_v : float;  (** [nan] when empty *)
  quantiles : (float * float) list;  (** [(q, value)], ascending [q] *)
  exemplars : (float * string * float) list;
      (** [(value, label, wall_ts)], largest first *)
}

val snapshot : ?qs:float list -> t -> snapshot
(** One consistent read, every quantile answered in one pass over the
    buckets.  Default [qs] are [0.5; 0.9; 0.95; 0.99; 0.999]. *)

val name : t -> string

val labels : t -> (string * string) list
(** Constant labels this sketch was created with, sorted by name. *)

val all : unit -> t list
(** Registered sketches, sorted by (name, labels). *)

val reset : t -> unit
(** Drop every observation and exemplar. *)

val to_prometheus : unit -> string
(** Prometheus [summary]-typed exposition for every registered
    sketch, with exemplars as trailing comment lines.  Appended to
    {!Metrics.to_prometheus} output via the exposition hook. *)

val to_json_body : unit -> string
(** The sketches section as a JSON object body:
    [{"name": {"count": .., "quantiles": {..}, ..}, ..}]. *)
