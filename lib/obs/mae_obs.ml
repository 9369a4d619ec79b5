(* Mae_obs: the in-pipeline observability layer.

   Three pieces, one switch:

   - {!Span}: nested per-domain timed spans ([Span.with_ ~name f]),
     recorded into lock-free-per-domain buffers and exported by
     {!Trace} as Chrome trace-event JSON (one lane per domain) or a
     plain-text flame summary.
   - {!Metrics}: named counters and gauges with Prometheus-text and
     JSON dumps.  They are always live; they back
     [Kernel_cache.stats] and the engine's [--stats] line.
   - {!Sketch}: the one distribution primitive -- mergeable
     log-bucket quantile sketches (p50/p99/p999 within 0.5% relative
     error) with request-id exemplars; rides along in every /metrics
     dump.
   - {!Slo}: declarative latency / error-rate objectives with
     fast+slow rolling burn-rate windows; backs GET /slo, /statusz
     and the /healthz 503 degradation.
   - {!Capture}: tail-based trace retention -- full span trees kept
     only for errored and slowest-k requests, bounded memory.
   - {!Clock}: monotonic time for every duration measurement; wall
     clock only for display timestamps.
   - {!Log}: leveled JSON-lines structured logging with request-id
     scoping; the serve daemon's access log.  Off by default, and a
     single atomic check per disabled call site, like spans.
   - {!Runtime}: the runtime lens -- a self-monitoring Runtime_events
     consumer that attributes GC pauses, collections and allocation
     pressure per domain (sketches on /metrics, gc.* spans in traces,
     GET /runtimez), with {!Procstat} process gauges from /proc.
     Explicitly started; a single atomic check when off.
   - {!Control} (re-exported below): the single [enabled] flag.  With
     telemetry off, every instrumented code path costs one atomic
     read -- the @obs-smoke bench holds the pipeline to that.

   The library depends on nothing outside the compiler distribution
   (stdlib + unix for the wall clock + runtime_events for the GC
   lens). *)

module Control = Control
module Clock = Clock
module Span = Span
module Metrics = Metrics
module Sketch = Sketch
module Slo = Slo
module Capture = Capture
module Trace = Trace
module Json = Json
module Log = Log
module Runtime = Runtime
module Procstat = Procstat

let enabled = Control.enabled
let set_enabled = Control.set_enabled
let with_enabled = Control.with_enabled

(* Drop every recorded span, counter and gauge value, and every sketch's
   observations, so the next pass starts from zero. *)
let reset () =
  Span.reset ();
  Metrics.reset_values ();
  List.iter Sketch.reset (Sketch.all ())
