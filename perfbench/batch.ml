(* batch-flat: a closed batch of seeded, distinct transistor-level
   modules through Mae_engine.run_circuits_with_stats ~methods:["all"] on
   one Pool sized to the host, estimate store off.  Each timed pass
   starts from a cleared kernel cache, as every CLI process does.  An
   untimed warm-up pass, the process's first batch, comes before them;
   the traced run counts the method errors of that pass and of the
   high-fanout probe (Gen.batch_flat) as the two known defects. *)

module Json = Mae_obs.Json

let batch_size = 1000
let methods = [ "all" ]
let setup_reps = 201
let min_passes = 3

(* Registry.create + Pool.create + methodology registration: the work a
   batch user pays before the first module. *)
let setup ~jobs =
  let t0 = Util.now () in
  let registry = Mae_tech.Registry.create () in
  let t1 = Util.now () in
  let pool = Mae_engine.Pool.create ~domains:(jobs - 1) in
  let t2 = Util.now () in
  Mae_baselines.Methods.ensure_registered ();
  ignore (Pipeline.resolve methods);
  (registry, pool, Util.now () -. t0, t2 -. t1)

let entries results =
  List.map
    (function
      | Ok report -> Gold.entry_of_report report
      | Error e -> Gold.Module_error (Format.asprintf "%a" Mae_engine.pp_error e))
    results

(* Failed modules (an engine Error slot or a methodology error slot) and
   mismatches against the gold table. *)
let check_entries ~what gold entries =
  let failed = ref 0 and mismatches = ref 0 in
  List.iteri
    (fun i answer ->
      match Gold.check ~gold:gold.(i) answer with
      | Gold.Pass -> ()
      | Gold.Failed _ -> incr failed
      | Gold.Mismatch why ->
          if !mismatches = 0 then Util.log "%s: module %d: %s" what i why;
          incr mismatches)
    entries;
  (!failed, !mismatches)

type pass = { wall : float; cpu : float; failed : int; mismatches : int }

(* One engine pass from a cleared kernel cache, checked against [gold];
   also returns its answers. *)
let engine_pass ?(what = "batch-flat") ~registry ~pool ~jobs ~gold circuits =
  Mae_prob.Kernel_cache.clear ();
  let c0 = Util.self_cpu_s () and t0 = Util.now () in
  let results, _ =
    Mae_engine.run_circuits_with_stats ~methods ~jobs ~pool ~registry circuits
  in
  let wall = Util.now () -. t0 and cpu = Util.self_cpu_s () -. c0 in
  let answers = entries results in
  let failed, mismatches = check_entries ~what gold answers in
  ({ wall; cpu; failed; mismatches }, answers)

(* The process's first batch, untimed: it forces the lazy models
   (CHAMP's fit), so the race of finding 1 can only hit here. *)
let warm_up = engine_pass ~what:"batch-flat warm-up"

let untraced ~registry ~pool ~jobs ~gold ~setup_s ~seconds circuits =
  let modules = List.length circuits in
  let warm, _ = warm_up ~registry ~pool ~jobs ~gold circuits in
  let deadline = Util.now () +. seconds in
  let rec passes acc =
    if List.length acc >= min_passes && Util.now () >= deadline then List.rev acc
    else passes (fst (engine_pass ~registry ~pool ~jobs ~gold circuits) :: acc)
  in
  let ps = Array.of_list (passes []) in
  let n = Array.length ps in
  let walls = Array.map (fun p -> p.wall) ps in
  let attempted = n * modules in
  let failed = Array.fold_left (fun a p -> a + p.failed) 0 ps in
  let mismatches = Array.fold_left (fun a p -> a + p.mismatches) 0 ps in
  let rate wall = float_of_int modules /. wall in
  {
    Util.correct = mismatches = 0 && warm.mismatches = 0;
    attempted;
    failed;
    metrics =
      [
        ("setup_s", setup_s, "s");
        ("throughput_mps", Util.median (Array.map rate walls), "modules/s");
        ( "sustained_rps",
          float_of_int attempted /. Array.fold_left ( +. ) 0. walls,
          "req/s" );
        ( "cpu_ms_per_op",
          Util.median (Array.map (fun p -> p.cpu) ps) *. 1e3 /. float_of_int modules,
          "ms" );
        ("peak_rss_mb", Util.peak_rss_mb 0, "MiB");
        ("failed_share", Util.failed_share ~failed ~attempted, "ratio");
      ];
    record =
      [
        ("passes", Json.Number (float_of_int n));
        ("warm_up_pass_ms", Json.Number (warm.wall *. 1e3));
        (* reported, not gated: see NOTES.md *)
        ("latency_p50_ms", Json.Number (Util.median walls *. 1e3));
        ("latency_p99_ms", Json.Number (Util.quantile walls 0.99 *. 1e3));
        ( "phases",
          Json.Array
            [
              Util.phase "warm-up pass (untimed, not counted)" ~attempted:modules
                ~failed:warm.failed;
              Util.phase "timed passes" ~attempted ~failed;
            ] );
      ];
  }

(* Traced: the warm-up pass and the probe through the engine (their
   method errors give the core.method_errors metrics), one engine pass
   with GC and kernel-cache deltas (the engine's own metrics), then the
   batch replayed sequentially through the layers' public calls,
   untraced and traced. *)
let traced ~registry ~pool ~jobs ~gold ~probe_gold ~pool_create_s circuits probe =
  let modules = List.length circuits in
  let engine_run () =
    Mae_engine.run_circuits_with_stats ~methods ~jobs ~pool ~registry circuits
  in
  (* the warm-up first, so the sequential and the parallel timing below
     both run with every lazy model forced *)
  let warm, warm_entries = warm_up ~registry ~pool ~jobs ~gold circuits in
  let probed, probe_entries =
    engine_pass ~what:"batch-flat probe" ~registry ~pool ~jobs ~gold:probe_gold probe
  in
  Mae_prob.Kernel_cache.clear ();
  let t0 = Util.now () in
  List.iter (fun c -> ignore (Mae.Driver.run_circuit ~methods ~registry c)) circuits;
  let seq_s = Util.now () -. t0 in
  let (results, stats, gc0, gc1), kernel =
    Traced.kernel_counts (fun () ->
        let gc0 = Gc.quick_stat () in
        let results, stats = engine_run () in
        (results, stats, gc0, Gc.quick_stat ()))
  in
  let failed, mismatches = check_entries ~what:"batch-flat" gold (entries results) in
  let per_domain = Array.map float_of_int stats.Mae_engine.per_domain in
  let engine =
    [
      ( "engine.parallel_efficiency",
        seq_s /. (stats.Mae_engine.elapsed_s *. float_of_int jobs) );
      ( "engine.domain_imbalance",
        Array.fold_left Float.max 0. per_domain /. Util.mean per_domain );
      ("engine.pool_create_s", pool_create_s);
      ( "engine.alloc_words_per_module",
        (gc1.Gc.minor_words -. gc0.Gc.minor_words +. gc1.Gc.major_words
       -. gc0.Gc.major_words -. gc1.Gc.promoted_words +. gc0.Gc.promoted_words)
        /. float_of_int modules );
      ( "engine.minor_gcs_per_kmodule",
        float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
        *. 1000. /. float_of_int modules );
    ]
  in
  let selected = Pipeline.resolve methods in
  let arr = Array.of_list circuits in
  let replay () =
    Mae_prob.Kernel_cache.clear ();
    Array.mapi
      (fun i c ->
        Span.op i (fun () ->
            fst (Pipeline.estimate ~process:(Pipeline.process_of registry c) ~selected c)))
      arr
  in
  let replayed, spans, overhead, untraced_s, traced_s = Traced.traced_replay replay in
  let replay_failed, replay_mismatches =
    check_entries ~what:"batch-flat replay" gold (Array.to_list replayed)
  in
  let self, table = Traced.self_table spans in
  {
    Util.correct =
      mismatches = 0 && replay_mismatches = 0 && warm.mismatches = 0 && probed.mismatches = 0;
    attempted = 2 * modules;
    failed = failed + replay_failed;
    metrics =
      Traced.complete
        (kernel @ engine @ Pipeline.span_metrics spans
        @ Pipeline.method_errors (warm_entries @ probe_entries)
        @ [ ("obs.trace_overhead_ratio", overhead) ]
        @ self);
    record =
      [
        ("layer_table", table);
        ( "phases",
          Json.Array
            [
              Util.phase "warm-up pass (untimed, not counted)" ~attempted:modules
                ~failed:warm.failed;
              Util.phase "high-fanout probe (not counted)" ~attempted:(List.length probe)
                ~failed:probed.failed;
              Util.phase "engine pass" ~attempted:modules ~failed;
              Util.phase "sequential replay" ~attempted:modules ~failed:replay_failed;
            ] );
        ( "bases",
          Json.Object
            [
              ("sequential_run_circuit_s", Json.Number seq_s);
              ("engine_elapsed_s", Json.Number stats.Mae_engine.elapsed_s);
              ("jobs", Json.Number (float_of_int jobs));
              ( "per_domain",
                Json.Array (Array.to_list (Array.map (fun v -> Json.Number v) per_domain)) );
              ("replay_untraced_s", Json.Number untraced_s);
              ("replay_traced_s", Json.Number traced_s);
            ] );
      ];
  }

let run ~seed ~seconds ~trace ~jobs =
  let t0 = Util.now () in
  let circuits, probe = Gen.batch_flat ~seed ~n:batch_size in
  let t1 = Util.now () in
  let table, _ =
    Gold.compute
      ~registry:(Mae_tech.Registry.create ())
      (Array.of_list (List.map (fun c -> (c, methods)) (circuits @ probe)))
  in
  let gold = Array.sub table 0 (List.length circuits) in
  let probe_gold = Array.sub table (List.length circuits) (List.length probe) in
  Util.log "batch-flat: inputs %.2f s, gold table %.2f s" (t1 -. t0) (Util.now () -. t1);
  (* set up several times for a steady set-up time; keep the last *)
  let setups =
    List.init setup_reps (fun i ->
        let ((_, pool, _, _) as s) = setup ~jobs in
        if i < setup_reps - 1 then Mae_engine.Pool.shutdown pool;
        s)
  in
  let registry, pool, _, _ = List.nth setups (setup_reps - 1) in
  let setup_s = Util.median (Array.of_list (List.map (fun (_, _, s, _) -> s) setups)) in
  let pool_create_s = Util.median (Array.of_list (List.map (fun (_, _, _, p) -> p) setups)) in
  let result =
    if trace then traced ~registry ~pool ~jobs ~gold ~probe_gold ~pool_create_s circuits probe
    else untraced ~registry ~pool ~jobs ~gold ~setup_s ~seconds circuits
  in
  Mae_engine.Pool.shutdown pool;
  {
    result with
    Util.record =
      ("batch_modules", Json.Number (float_of_int (List.length circuits)))
      :: ("probe_modules", Json.Number (float_of_int (List.length probe)))
      :: ("jobs", Json.Number (float_of_int jobs))
      :: result.Util.record;
  }
