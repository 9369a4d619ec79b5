(* The batch engine: input-order results, bit-for-bit determinism across
   domain counts, and per-module error isolation. *)

module S = Mae_test_support.Support

let registry = Mae_tech.Registry.create ()

(* 50 random gate-level circuits, fixed seeds: the determinism workload. *)
let random_batch ?(first_seed = 1000) n =
  List.init n (fun i ->
      Mae_workload.Random_circuit.generate
        ~name:(Printf.sprintf "rnd%02d" i)
        ~rng:(Mae_prob.Rng.create ~seed:(first_seed + i))
        {
          Mae_workload.Random_circuit.default_params with
          devices = 20 + (i mod 7) * 10;
        })

(* Every float of a report, as raw IEEE-754 bits: "equal digests" means
   bit-for-bit identical estimates, not merely close ones. *)
let bits = Int64.bits_of_float
let aspect_bits a = bits (Mae_geom.Aspect.ratio a)

let stdcell_digest (e : Mae.Estimate.stdcell) =
  [
    Int64.of_int e.rows;
    Int64.of_int e.tracks;
    Int64.of_int e.feed_throughs;
    bits e.height;
    bits e.width;
    bits e.area;
    aspect_bits e.aspect;
    aspect_bits e.aspect_raw;
  ]

let fullcustom_digest (e : Mae.Estimate.fullcustom) =
  [
    bits e.device_area;
    bits e.wire_area;
    bits e.area;
    bits e.width;
    bits e.height;
    aspect_bits e.aspect;
    aspect_bits e.aspect_raw;
  ]

(* every selected method contributes: its full payload digest for the
   structured outcomes, the shared dims for the scalar baselines *)
let outcome_digest (mr : Mae.Driver.method_result) =
  let name = Mae.Methodology.name mr.methodology in
  match mr.outcome with
  | Ok (Mae.Methodology.Stdcell { auto; sweep }) ->
      stdcell_digest auto @ List.concat_map stdcell_digest sweep
  | Ok (Mae.Methodology.Fullcustom fc) -> fullcustom_digest fc
  | Ok outcome ->
      let d = Mae.Methodology.dims outcome in
      [ bits d.area; bits d.width; bits d.height ]
  | Error e ->
      [ Int64.of_int (Hashtbl.hash (name, Mae.Methodology.error_to_string e)) ]

let result_digest = function
  | Ok (r : Mae.Driver.module_report) ->
      ( "ok:" ^ r.circuit.Mae_netlist.Circuit.name,
        List.concat_map outcome_digest r.results )
  | Error e -> (Format.asprintf "error: %a" Mae_engine.pp_error e, [])

let digests = Alcotest.(list (pair string (list int64)))

let test_determinism () =
  let batch = random_batch 50 in
  let seq = Mae_engine.run_circuits ~jobs:1 ~registry batch in
  let par = Mae_engine.run_circuits ~jobs:8 ~registry batch in
  Alcotest.check digests "jobs:1 = jobs:8, bit for bit"
    (List.map result_digest seq)
    (List.map result_digest par)

let test_order_preserved () =
  let batch = random_batch 12 in
  let results = Mae_engine.run_circuits ~jobs:4 ~registry batch in
  let names =
    List.map
      (function
        | Ok (r : Mae.Driver.module_report) ->
            r.circuit.Mae_netlist.Circuit.name
        | Error _ -> "<error>")
      results
  in
  Alcotest.(check (list string))
    "slot i holds module i"
    (List.map (fun (c : Mae_netlist.Circuit.t) -> c.name) batch)
    names

let test_error_isolation () =
  let bad =
    Mae_workload.Random_circuit.generate ~name:"bad"
      ~rng:(Mae_prob.Rng.create ~seed:7)
      {
        Mae_workload.Random_circuit.default_params with
        devices = 20;
        technology = "unobtanium";
      }
  in
  let good = random_batch 5 in
  let batch =
    match good with
    | g0 :: g1 :: rest -> g0 :: g1 :: bad :: rest
    | _ -> assert false
  in
  let results = Mae_engine.run_circuits ~jobs:4 ~registry batch in
  Alcotest.(check int) "one slot per module" 6 (List.length results);
  List.iteri
    (fun i result ->
      match (i, result) with
      | 2, Error (Mae_engine.Driver_error (Mae.Driver.Unknown_process p)) ->
          Alcotest.(check string) "failing module named" "bad" p.module_name
      | 2, _ -> Alcotest.fail "slot 2 should be Unknown_process"
      | _, Ok _ -> ()
      | i, Error e ->
          Alcotest.failf "slot %d unexpectedly failed: %a" i
            Mae_engine.pp_error e)
    results

let test_jobs_validation () =
  S.raises_invalid (fun () ->
      Mae_engine.run_circuits ~jobs:(-1) ~registry (random_batch 1));
  (* jobs:0 = one domain per core; must work on any host *)
  let auto = Mae_engine.run_circuits ~jobs:0 ~registry (random_batch 3) in
  Alcotest.(check int) "jobs:0 runs the batch" 3 (List.length auto);
  Alcotest.(check int)
    "empty batch" 0
    (List.length (Mae_engine.run_circuits ~jobs:4 ~registry []))

(* The persistent pool must be invisible in results: same bits as
   spawning fresh domains, across reuse, changing jobs counts (capped at
   the pool's width rather than erroring) and changing batch sizes. *)
let test_pool_reuse_deterministic () =
  let pool = Mae_engine.Pool.create ~domains:3 in
  Alcotest.(check int)
    "concurrency = domains + caller" 4
    (Mae_engine.Pool.concurrency pool);
  let batch = random_batch 17 in
  let seq = Mae_engine.run_circuits ~jobs:1 ~registry batch in
  List.iter
    (fun jobs ->
      let pooled = Mae_engine.run_circuits ~jobs ~pool ~registry batch in
      Alcotest.check digests
        (Printf.sprintf "pooled jobs:%d = jobs:1" jobs)
        (List.map result_digest seq)
        (List.map result_digest pooled))
    [ 2; 4; 8; 3; 4 ];
  let small = random_batch ~first_seed:2000 3 in
  let small_seq = Mae_engine.run_circuits ~jobs:1 ~registry small in
  let small_pooled = Mae_engine.run_circuits ~jobs:4 ~pool ~registry small in
  Alcotest.check digests "pool survives batch-size changes"
    (List.map result_digest small_seq)
    (List.map result_digest small_pooled);
  Mae_engine.Pool.shutdown pool;
  Mae_engine.Pool.shutdown pool (* idempotent *);
  (* a shut-down pool contributes no workers: the batch degrades to the
     calling domain, with identical bits *)
  let after = Mae_engine.run_circuits ~jobs:4 ~pool ~registry small in
  Alcotest.check digests "shut-down pool degrades to sequential"
    (List.map result_digest small_seq)
    (List.map result_digest after)

let test_stats () =
  let batch = random_batch 8 in
  Mae_prob.Kernel_cache.clear ();
  let results, stats =
    Mae_engine.run_circuits_with_stats ~jobs:2 ~registry batch
  in
  Alcotest.(check int) "modules" 8 stats.Mae_engine.modules;
  Alcotest.(check int)
    "ok + failed = modules" stats.Mae_engine.modules
    (stats.Mae_engine.ok + stats.Mae_engine.failed);
  Alcotest.(check int)
    "ok counts the Ok slots" stats.Mae_engine.ok
    (List.length (List.filter Result.is_ok results));
  Alcotest.(check int) "jobs as requested" 2 stats.Mae_engine.jobs;
  Alcotest.(check bool) "elapsed >= 0" true (stats.Mae_engine.elapsed_s >= 0.);
  Alcotest.(check bool)
    "repeated kernels hit the cache" true
    (stats.Mae_engine.cache_hits > 0)

(* --- the content-addressed estimate store through the engine --- *)

let test_estimate_store_hits () =
  let batch = random_batch ~first_seed:3000 6 in
  let cache = Mae_db.Cas.create () in
  let cold, cold_stats =
    Mae_engine.run_circuits_with_stats ~jobs:1 ~cache ~registry batch
  in
  Alcotest.(check int) "cold run misses every module" 6
    cold_stats.Mae_engine.store_misses;
  Alcotest.(check int) "cold run has no hits" 0
    cold_stats.Mae_engine.store_hits;
  let warm, warm_stats =
    Mae_engine.run_circuits_with_stats ~jobs:1 ~cache ~registry batch
  in
  Alcotest.(check int) "warm run hits every module" 6
    warm_stats.Mae_engine.store_hits;
  Alcotest.(check int) "warm run misses nothing" 0
    warm_stats.Mae_engine.store_misses;
  Alcotest.check digests "warm answers are bit-for-bit the cold ones"
    (List.map result_digest cold)
    (List.map result_digest warm);
  (* an explicit config changes results, so it must bypass the store *)
  let config = { Mae.Config.default with two_component_free = false } in
  let _, bypass =
    Mae_engine.run_circuits_with_stats ~jobs:1 ~cache ~config ~registry batch
  in
  Alcotest.(check int) "config bypasses the store" 0
    (bypass.Mae_engine.store_hits + bypass.Mae_engine.store_misses)

(* Store counts come from per-module lookup flags, so two batches that
   share one store on two domains each count exactly their own lookups
   (before/after deltas of the process-wide counters would attribute
   the overlap to both). *)
let test_store_counts_concurrent () =
  let cache = Mae_db.Cas.create () in
  let n = 150 in
  let started = Atomic.make 0 in
  let run batch () =
    Atomic.incr started;
    while Atomic.get started < 2 do
      Domain.cpu_relax ()
    done;
    snd (Mae_engine.run_circuits_with_stats ~jobs:1 ~cache ~registry batch)
  in
  let other = Domain.spawn (run (random_batch ~first_seed:5000 n)) in
  let mine = run (random_batch ~first_seed:6000 n) () in
  let theirs = Domain.join other in
  List.iter
    (fun (name, (s : Mae_engine.stats)) ->
      Alcotest.(check int)
        (name ^ ": store_hits + store_misses = its own modules")
        n
        (s.store_hits + s.store_misses))
    [ ("calling domain", mine); ("spawned domain", theirs) ]

(* Every configuration knob the engine exposes must leave the estimates
   bit-for-bit identical to a sequential driver run: store off/cold/warm
   x kernel cache on/off x jobs 1/default x telemetry off/on x entry
   point (one batch, or the same batch split into three groups). *)
let test_configuration_matrix () =
  let methods = [ "all" ] in
  let batch = random_batch ~first_seed:7000 12 in
  let gold =
    List.map
      (fun c ->
        result_digest
          (Result.map_error
             (fun e -> Mae_engine.Driver_error e)
             (Mae.Driver.run_circuit ~methods ~registry c)))
      batch
  in
  let thirds = List.init 3 (fun g -> List.filteri (fun i _ -> i / 4 = g) batch) in
  let run_entry ~entry ?cache ~jobs () =
    match entry with
    | `Batch ->
        let results, stats =
          Mae_engine.run_circuits_with_stats ~methods ~jobs ?cache ~registry
            batch
        in
        (results, stats.Mae_engine.store_hits)
    | `Grouped ->
        let grouped, stats =
          Mae_engine.run_grouped ~methods ~jobs ?cache ~registry thirds
        in
        ( List.concat_map (fun (results, _, _) -> results) grouped,
          stats.Mae_engine.store_hits )
  in
  let kernel_cache_was = Mae_prob.Kernel_cache.enabled () in
  let telemetry_was = Mae_obs.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Mae_prob.Kernel_cache.set_enabled kernel_cache_was;
      Mae_obs.set_enabled telemetry_was;
      Mae_obs.Span.reset ())
  @@ fun () ->
  List.iter
    (fun store ->
      List.iter
        (fun kernel_cache ->
          List.iter
            (fun jobs ->
              List.iter
                (fun telemetry ->
                  List.iter
                    (fun entry ->
                      Mae_prob.Kernel_cache.set_enabled kernel_cache;
                      Mae_obs.set_enabled telemetry;
                      let cache, expect_hits =
                        match store with
                        | `Off -> (None, 0)
                        | `Cold -> (Some (Mae_db.Cas.create ()), 0)
                        | `Warm ->
                            let cas = Mae_db.Cas.create () in
                            ignore
                              (Mae_engine.run_circuits ~methods ~cache:cas
                                 ~registry batch);
                            (Some cas, List.length batch)
                      in
                      let results, hits = run_entry ~entry ?cache ~jobs () in
                      let cell =
                        Printf.sprintf
                          "store=%s kernel_cache=%b jobs=%d telemetry=%b \
                           entry=%s"
                          (match store with
                          | `Off -> "off"
                          | `Cold -> "cold"
                          | `Warm -> "warm")
                          kernel_cache jobs telemetry
                          (match entry with
                          | `Batch -> "run_circuits_with_stats"
                          | `Grouped -> "run_grouped/3")
                      in
                      Alcotest.check digests (cell ^ ": = gold, bit for bit")
                        gold
                        (List.map result_digest results);
                      Alcotest.(check int) (cell ^ ": store hits") expect_hits
                        hits;
                      Mae_obs.Span.reset ())
                    [ `Batch; `Grouped ])
                [ false; true ])
            [ 1; Mae_engine.default_jobs () ])
        [ true; false ])
    [ `Off; `Cold; `Warm ]

let () =
  Alcotest.run "engine"
    [
      ( "batch",
        [
          Alcotest.test_case "determinism jobs:1 = jobs:8" `Slow
            test_determinism;
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "error isolation" `Quick test_error_isolation;
          Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
          Alcotest.test_case "pool reuse is deterministic" `Slow
            test_pool_reuse_deterministic;
          Alcotest.test_case "batch stats" `Quick test_stats;
        ] );
      ( "store",
        [
          Alcotest.test_case "repeat batch answers from the store" `Quick
            test_estimate_store_hits;
          Alcotest.test_case "concurrent batches count their own lookups"
            `Quick test_store_counts_concurrent;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "configuration matrix = sequential driver" `Slow
            test_configuration_matrix;
        ] );
    ]
