(* The traced run: per-layer metrics.  Every workload prints the same
   per-layer metric set; a layer the workload never calls reads 0 (the
   "bypass" prediction of NOTES.md). *)

module Json = Mae_obs.Json

let method_units =
  List.concat_map
    (fun m -> [ ("core.method_us." ^ m, "us"); ("core.method_errors." ^ m, "count") ])
    Pipeline.method_names

(* Every per-layer metric, in report order, with its unit. *)
let units =
  List.concat_map
    (fun m -> [ (m ^ "_us", "us"); (m ^ "_p99_us", "us") ])
    Pipeline.timed
  @ [
      ("prob.kernel_hit_ratio", "ratio");
      ("prob.kernel_lookups", "count");
      ("prob.kernel_misses", "count");
    ]
  @ method_units
  @ [
      ("engine.parallel_efficiency", "ratio");
      ("engine.domain_imbalance", "ratio");
      ("engine.pool_create_s", "s");
      ("engine.alloc_words_per_module", "words");
      ("engine.minor_gcs_per_kmodule", "count");
      ("db.hit_ratio", "ratio");
      ("db.lookups", "count");
      ("serve.dispatch.batch_requests_mean", "requests");
      ("serve.dispatch.shed", "count");
      ("serve.transport.reused_share", "ratio");
      ("serve.residual_us", "us");
      ("loadgen.send_lag_p99_ms", "ms");
      ("obs.trace_overhead_ratio", "ratio");
    ]
  @ List.map (fun l -> ("self." ^ l ^ "_us", "us")) Span.layer_order
  @ [ ("self.total_us", "us") ]

(* Fill [measured] out to the full metric set. *)
let complete measured =
  List.map
    (fun (name, unit) ->
      (name, Option.value (List.assoc_opt name measured) ~default:0., unit))
    units

(* Kernel-cache traffic of [f], run from a cleared cache: lookups,
   misses and the hit ratio. *)
let kernel_counts f =
  Mae_prob.Kernel_cache.clear ();
  let v = f () in
  let s = Mae_prob.Kernel_cache.stats () in
  let lookups = s.hits + s.misses in
  ( v,
    [
      ("prob.kernel_lookups", float_of_int lookups);
      ("prob.kernel_misses", float_of_int s.misses);
      ( "prob.kernel_hit_ratio",
        if lookups = 0 then 0. else float_of_int s.hits /. float_of_int lookups );
    ] )

(* Run [replay] (which records one op per element) once to warm up,
   then untraced, then traced; the traced spans and the overhead ratio
   (traced time over untraced time). *)
let traced_replay replay =
  Span.on := false;
  ignore (replay ());
  let t0 = Util.now () in
  ignore (replay ());
  let untraced = Util.now () -. t0 in
  Span.reset ();
  Span.on := true;
  let t1 = Util.now () in
  let entries = replay () in
  let traced = Util.now () -. t1 in
  Span.on := false;
  let spans = Span.spans () in
  (entries, spans, traced /. untraced, untraced, traced)

(* The self-time table: per-op self time of each layer plus the residual
   (the op root's own time), which sum to the per-op total. *)
let self_table spans =
  let ops, total, rows = Span.layer_table spans in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
  if Float.abs (sum -. total) > 1e-9 *. Float.max 1. total then
    Util.fail "self-time rows sum to %g s, per-op total is %g s" sum total;
  Util.log "per-layer self time over %d ops (us/op):" ops;
  List.iter (fun (l, v) -> Util.log "  %-10s %12.3f" l (v *. 1e6)) rows;
  Util.log "  %-10s %12.3f" "total" (total *. 1e6);
  ( List.map (fun (l, v) -> ("self." ^ l ^ "_us", v *. 1e6)) rows
    @ [ ("self.total_us", total *. 1e6) ],
    Json.Object
      [
        ("ops", Json.Number (float_of_int ops));
        ( "rows_us",
          Json.Object (List.map (fun (l, v) -> (l, Json.Number (v *. 1e6))) rows) );
        ("total_us", Json.Number (total *. 1e6));
      ] )
