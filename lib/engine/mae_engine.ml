(* Baseline methodologies register at Mae_baselines.Methods init; this
   reference forces the linker to keep (and initialize) that unit, so
   every engine consumer can select them by name. *)
let () = Mae_baselines.Methods.ensure_registered ()

type error =
  | Driver_error of Mae.Driver.error
  | Crashed of { module_name : string; exn : string }

let pp_error ppf = function
  | Driver_error e -> Mae.Driver.pp_error ppf e
  | Crashed { module_name; exn } ->
      Format.fprintf ppf "module %s: estimator crashed: %s" module_name exn

type stats = {
  modules : int;
  ok : int;
  failed : int;
  jobs : int;
  elapsed_s : float;
  cache_hits : int;
  cache_misses : int;
  store_hits : int;
  store_misses : int;
  per_domain : int array;
}

(* --- registry instruments (always live; spans and latency sampling
   additionally honour Mae_obs.Control.enabled) --- *)

let modules_counter =
  Mae_obs.Metrics.counter "mae_engine_modules_total"
    ~help:"Modules submitted to the batch engine"

let ok_counter =
  Mae_obs.Metrics.counter "mae_engine_modules_ok_total"
    ~help:"Modules estimated successfully"

let failed_counter =
  Mae_obs.Metrics.counter "mae_engine_modules_failed_total"
    ~help:"Modules that returned a driver error or crashed"

let queue_wait_gauge =
  Mae_obs.Metrics.gauge "mae_engine_queue_wait_seconds"
    ~help:
      "Longest delay between batch start and a worker claiming its first \
       module, over the most recent batch (domain spawn + scheduling cost)"

let module_latency =
  Mae_obs.Metrics.histogram "mae_engine_module_seconds"
    ~help:"Per-module estimation latency (recorded while telemetry is on)"

(* True quantiles next to the bucketed histogram: same samples, no
   bucket-edge quantization.  Observed only while telemetry is on,
   like the histogram. *)
let module_latency_sketch =
  Mae_obs.Sketch.create "mae_engine_module_seconds_summary"
    ~help:"Per-module estimation latency quantiles (GK sketch)"

let queue_wait_sketch =
  Mae_obs.Sketch.create "mae_engine_queue_wait_seconds_summary"
    ~help:
      "Per-worker delay between batch start and first module claim \
       (GK sketch; one sample per worker per batch)"

let oversubscribed_gauge =
  Mae_obs.Metrics.gauge "mae_engine_jobs_oversubscribed"
    ~help:
      "Domains requested beyond Domain.recommended_domain_count in the most \
       recent batch (0 = batch fit the hardware)"

let pp_stats ppf s =
  let lookups = s.cache_hits + s.cache_misses in
  Format.fprintf ppf
    "%d module(s) (%d ok, %d failed) on %d domain(s) in %.3f s (%.0f \
     modules/s); kernel cache %d hits / %d misses (%.1f%% hit rate); \
     modules/domain [%s]"
    s.modules s.ok s.failed s.jobs s.elapsed_s
    (if s.elapsed_s > 0. then Float.of_int s.modules /. s.elapsed_s else 0.)
    s.cache_hits s.cache_misses
    (if lookups > 0 then 100. *. Float.of_int s.cache_hits /. Float.of_int lookups
     else 0.)
    (String.concat " " (List.map string_of_int (Array.to_list s.per_domain)));
  if s.store_hits + s.store_misses > 0 then
    Format.fprintf ppf "; estimate store %d hits / %d misses" s.store_hits
      s.store_misses

let default_jobs () = Stdlib.max 1 (Domain.recommended_domain_count ())

let resolve_jobs = function
  | None -> 1
  | Some 0 -> default_jobs ()
  | Some j when j >= 1 -> j
  | Some j -> invalid_arg (Printf.sprintf "Mae_engine: jobs = %d" j) (* invariant *)

(* Spawning more domains than the hardware offers pessimizes hard --
   BENCH_engine.json records jobs:8 at 0.18x of sequential on a 1-core
   host -- so an oversubscribed batch is announced loudly (stderr once
   per process, a warn log record every batch) and exposed as the
   [mae_engine_jobs_oversubscribed] gauge.  The request is still
   honoured: benches measure oversubscription on purpose, and the
   determinism contract (same results for any [jobs]) must stay
   testable above the core count. *)
let oversubscription_announced = Atomic.make false

let check_oversubscription jobs =
  let recommended = default_jobs () in
  let over = Stdlib.max 0 (jobs - recommended) in
  Mae_obs.Metrics.set oversubscribed_gauge (Float.of_int over);
  if over > 0 then begin
    Mae_obs.Log.warn ~event:"engine.jobs_oversubscribed"
      [
        ("requested", Mae_obs.Log.Int jobs);
        ("recommended", Mae_obs.Log.Int recommended);
      ];
    if not (Atomic.exchange oversubscription_announced true) then
      Printf.eprintf
        "mae_engine: warning: --jobs %d exceeds the %d domain(s) this host \
         recommends; expect a slowdown, not a speedup (gauge \
         mae_engine_jobs_oversubscribed)\n%!"
        jobs recommended
  end

(* --- the persistent domain pool --- *)

(* Spawning a domain costs hundreds of microseconds -- more than a
   whole cached module -- so per-batch spawns make small parallel
   batches (the serve daemon's request sizes) a guaranteed loss.  The
   pool keeps its domains parked on a condition variable between
   batches; submitting a job is one lock round-trip and a broadcast.

   Generation-counter barrier: [run] publishes the job under the lock
   and bumps [gen]; each pool domain wakes, runs the job with its fixed
   slot number, then decrements [active] and signals [done_cv].  [run]
   participates as slot 0 on the calling domain and returns only after
   [active] drops to zero, so job memory (result slots, atomics) is
   fully synchronized before the caller reads it and jobs never
   overlap. *)
module Pool = struct
  type t = {
    lock : Mutex.t;
    work_cv : Condition.t;
    done_cv : Condition.t;
    mutable job : (int -> unit) option;
    mutable gen : int;
    mutable active : int;
    mutable exn : exn option; (* first exception a pool domain caught *)
    mutable stop : bool;
    mutable domains : unit Domain.t array;
  }

  let worker_loop p slot =
    let my_gen = ref 0 in
    let rec loop () =
      Mutex.lock p.lock;
      while (not p.stop) && p.gen = !my_gen do
        Condition.wait p.work_cv p.lock
      done;
      if p.stop then Mutex.unlock p.lock
      else begin
        let job = Option.get p.job in
        my_gen := p.gen;
        Mutex.unlock p.lock;
        let failure = match job slot with () -> None | exception e -> Some e in
        Mutex.lock p.lock;
        (match failure with
        | Some e when p.exn = None -> p.exn <- Some e
        | _ -> ());
        p.active <- p.active - 1;
        if p.active = 0 then Condition.broadcast p.done_cv;
        Mutex.unlock p.lock;
        loop ()
      end
    in
    loop ()

  let create ~domains =
    if domains < 0 then invalid_arg "Mae_engine.Pool.create: domains < 0" (* invariant *);
    let p =
      {
        lock = Mutex.create ();
        work_cv = Condition.create ();
        done_cv = Condition.create ();
        job = None;
        gen = 0;
        active = 0;
        exn = None;
        stop = false;
        domains = [||];
      }
    in
    p.domains <-
      Array.init domains (fun k ->
          Domain.spawn (fun () -> worker_loop p (k + 1)));
    p

  let concurrency p = Array.length p.domains + 1

  let run p f =
    Mutex.lock p.lock;
    if p.stop then begin
      Mutex.unlock p.lock;
      invalid_arg "Mae_engine.Pool.run: pool is shut down" (* invariant *)
    end;
    if p.job <> None then begin
      Mutex.unlock p.lock;
      invalid_arg "Mae_engine.Pool.run: a job is already running" (* invariant *)
    end;
    p.job <- Some f;
    p.gen <- p.gen + 1;
    p.active <- Array.length p.domains;
    p.exn <- None;
    Condition.broadcast p.work_cv;
    Mutex.unlock p.lock;
    let caller_failure = match f 0 with () -> None | exception e -> Some e in
    Mutex.lock p.lock;
    while p.active > 0 do
      Condition.wait p.done_cv p.lock
    done;
    p.job <- None;
    let pool_failure = p.exn in
    p.exn <- None;
    Mutex.unlock p.lock;
    match (caller_failure, pool_failure) with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ()

  let shutdown p =
    Mutex.lock p.lock;
    if p.stop then Mutex.unlock p.lock
    else begin
      p.stop <- true;
      Condition.broadcast p.work_cv;
      Mutex.unlock p.lock;
      Array.iter Domain.join p.domains;
      p.domains <- [||]
    end
end

(* --- chunked claiming with steal-on-empty ---

   The input array is block-partitioned: worker [w] owns the range
   [[w*n/workers, (w+1)*n/workers)] and drains it in chunks of
   [max 1 (n / (8 * workers))] claimed with one [fetch_and_add] per
   chunk, so the per-module scheduling cost is amortized 8x and
   neighbouring modules stay on one domain (warm minor heap).  A worker
   whose range runs dry steals chunks from the other ranges with the
   same claim primitive, rescanning until a full sweep finds every
   range empty -- work only ever shrinks, so one clean sweep proves
   completion.  Result slot [i] always receives [f inputs.(i)]
   regardless of who claimed it: output order and content are
   independent of the schedule, which is why determinism survives
   stealing. *)

type range = { pos : int Atomic.t; hi : int }

let make_ranges ~workers n =
  Array.init workers (fun w ->
      { pos = Atomic.make (w * n / workers); hi = (w + 1) * n / workers })

(* claim up to [chunk] indices from [r]; None when the range is dry *)
let claim r chunk =
  let i = Atomic.fetch_and_add r.pos chunk in
  if i >= r.hi then None else Some (i, Stdlib.min r.hi (i + chunk))

let run_range results claimed f inputs w lo hi =
  for i = lo to hi - 1 do
    results.(i) <- Some (f inputs.(i))
  done;
  claimed.(w) <- claimed.(w) + (hi - lo)

(* Per worker: drain the own range, then sweep the others stealing
   chunks until a full sweep comes back empty. *)
let drain ~ranges ~chunk ~workers results claimed f inputs w =
  let rec own () =
    match claim ranges.(w) chunk with
    | Some (lo, hi) ->
        run_range results claimed f inputs w lo hi;
        own ()
    | None -> ()
  in
  own ();
  let rec sweep () =
    let stole = ref false in
    for v = 1 to workers - 1 do
      let victim = (w + v) mod workers in
      match claim ranges.(victim) chunk with
      | Some (lo, hi) ->
          stole := true;
          run_range results claimed f inputs w lo hi
      | None -> ()
    done;
    if !stole then sweep ()
  in
  sweep ()

let map_pool ~jobs ?pool ~t0 f inputs =
  let n = Array.length inputs in
  let results = Array.make n None in
  let workers = Stdlib.max 1 (Stdlib.min jobs n) in
  let workers =
    match pool with
    | Some p -> Stdlib.min workers (Pool.concurrency p)
    | None -> workers
  in
  let claimed = Array.make workers 0 in
  let first_wait = Array.make workers Float.nan in
  let cache_delta = Array.make workers 0 in
  let miss_delta = Array.make workers 0 in
  let ranges = make_ranges ~workers n in
  let chunk = Stdlib.max 1 (n / (8 * workers)) in
  let worker w =
    let c0 = Mae_prob.Kernel_cache.local_counts () in
    let body () =
      (* per worker, not per module: the queue-wait gauge stays live
         even with telemetry off, like every other gauge *)
      let wait = Mae_obs.Clock.monotonic () -. t0 in
      first_wait.(w) <- wait;
      if Mae_obs.Control.enabled () then
        Mae_obs.Sketch.observe queue_wait_sketch wait;
      drain ~ranges ~chunk ~workers results claimed f inputs w
    in
    (if Mae_obs.Control.enabled () then
       (* one root span per worker: its lane in the Chrome trace.  The
          domain id lets the trace viewer correlate this lane with the
          gc.* pause slices the runtime lens emits per domain. *)
       Mae_obs.Span.with_ ~name:"engine.worker"
         ~attrs:
           [
             ("worker", string_of_int w);
             ("domain", string_of_int (Domain.self () :> int));
           ]
         body
     else body ());
    let c1 = Mae_prob.Kernel_cache.local_counts () in
    cache_delta.(w) <- c1.Mae_prob.Kernel_cache.hits - c0.Mae_prob.Kernel_cache.hits;
    miss_delta.(w) <- c1.Mae_prob.Kernel_cache.misses - c0.Mae_prob.Kernel_cache.misses;
    (* keep the process-wide counters and published sketch summaries
       exact between batches, even on long-lived pool domains that may
       never observe again *)
    Mae_prob.Kernel_cache.flush_local ();
    Mae_obs.Sketch.flush_local ()
  in
  (match (pool, workers) with
  | _, 1 -> worker 0
  | Some p, _ ->
      (* pool domains beyond the requested worker count run an empty
         slot: they wake, find no range, and report done *)
      Pool.run p (fun slot -> if slot < workers then worker slot)
  | None, _ ->
      (* the calling domain is worker number 0; spawned domains are 1.. *)
      let spawned =
        List.init (workers - 1) (fun k ->
            Domain.spawn (fun () -> worker (k + 1)))
      in
      worker 0;
      List.iter Domain.join spawned);
  let results =
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every index below [n] was claimed *))
      results
  in
  let max_wait =
    Array.fold_left
      (fun acc w -> if Float.is_nan w then acc else Float.max acc w)
      0. first_wait
  in
  let batch_hits = Array.fold_left ( + ) 0 cache_delta in
  let batch_misses = Array.fold_left ( + ) 0 miss_delta in
  (results, claimed, max_wait, batch_hits, batch_misses)

(* Estimate one module and say how the estimate store answered for it:
   [`Hit]/[`Miss] when the store was consulted, [`Bypass] when the
   lookup never happened (no cache, a [config] override, or an unknown
   process/method that the driver will report).  Batch store counts are
   summed from these flags, so they are exact per group and per batch
   even when other batches share the store concurrently. *)
let estimate_one ?config ?methods ?cache ~registry
    (circuit : Mae_netlist.Circuit.t) =
  let run_uncached () =
    match Mae.Driver.run_circuit ?config ?methods ~registry circuit with
    | Ok report -> Ok report
    | Error e -> Error (Driver_error e)
    | exception exn ->
        Error
          (Crashed { module_name = circuit.name; exn = Printexc.to_string exn })
  in
  let run () =
    match (cache, config) with
    (* a [config] changes results but is not part of the content
       address (the store keys circuit + process + registry + methods),
       so configured runs bypass the store entirely *)
    | None, _ | Some _, Some _ -> (run_uncached (), `Bypass)
    | Some cas, None -> (
        match Mae_tech.Registry.find registry circuit.technology with
        | None ->
            (run_uncached (), `Bypass)
            (* the driver will report Unknown_process *)
        | Some process -> (
            match
              Mae.Methodology.resolve (Option.value methods ~default:[ "default" ])
            with
            | Error _ -> (run_uncached (), `Bypass) (* ... or Unknown_method *)
            | Ok selected -> (
                let names = List.map Mae.Methodology.name selected in
                let key = Mae_db.Cas.key ~methods:names ~process circuit in
                match Mae_db.Cas.find cas ~key ~circuit ~process with
                | Some report -> (Ok report, `Hit)
                | None -> (
                    let r = run_uncached () in
                    (match r with
                    | Ok report -> Mae_db.Cas.store cas ~key report
                    | Error _ -> ());
                    (r, `Miss)))))
  in
  (* latency sampling honours telemetry like spans do; with it off the
     per-module cost is one atomic read, no closures into [time], no
     clock reads, no sketch buffer stores.  [run] never raises (crashes
     are folded into [Error (Crashed _)]), so plain sequencing is safe. *)
  if Mae_obs.Control.enabled () then begin
    let t0 = Mae_obs.Clock.monotonic () in
    let r = run () in
    let d = Mae_obs.Clock.monotonic () -. t0 in
    Mae_obs.Metrics.observe module_latency d;
    Mae_obs.Sketch.observe module_latency_sketch d;
    r
  end
  else run ()

(* The one batch path: several groups' circuit lists run as one engine
   fan-out (one pool submission, one work-stealing pass over the
   concatenation), and each group gets its own results slice plus its
   own store hit/miss counts from the per-module flags.  The serve
   dispatcher passes one group per request; a plain batch is one
   group. *)
let run_grouped ?config ?methods ?jobs ?pool ?cache ~registry groups =
  let jobs = resolve_jobs jobs in
  check_oversubscription jobs;
  let inputs = Array.of_list (List.concat groups) in
  Mae_obs.Span.with_ ~name:"engine.batch"
    ~attrs:
      [
        ("modules", string_of_int (Array.length inputs));
        ("jobs", string_of_int jobs);
        ("groups", string_of_int (List.length groups));
      ]
  @@ fun () ->
  let t0 = Mae_obs.Clock.monotonic () in
  let flagged, per_domain, queue_wait, cache_hits, cache_misses =
    map_pool ~jobs ?pool ~t0
      (estimate_one ?config ?methods ?cache ~registry)
      inputs
  in
  let elapsed_s = Mae_obs.Clock.monotonic () -. t0 in
  (* slice the flat result array back into the input groups, counting
     each group's own store traffic as it goes *)
  let grouped_rev, _ =
    List.fold_left
      (fun (acc, off) group ->
        let len = List.length group in
        let results = ref [] and hits = ref 0 and misses = ref 0 in
        for i = off + len - 1 downto off do
          let r, flag = flagged.(i) in
          results := r :: !results;
          match flag with
          | `Hit -> incr hits
          | `Miss -> incr misses
          | `Bypass -> ()
        done;
        ((!results, !hits, !misses) :: acc, off + len))
      ([], 0) groups
  in
  let grouped = List.rev grouped_rev in
  let ok =
    Array.fold_left
      (fun acc (r, _) -> match r with Ok _ -> acc + 1 | Error _ -> acc)
      0 flagged
  in
  let modules = Array.length inputs in
  Mae_obs.Metrics.add modules_counter modules;
  Mae_obs.Metrics.add ok_counter ok;
  Mae_obs.Metrics.add failed_counter (modules - ok);
  Mae_obs.Metrics.set queue_wait_gauge queue_wait;
  let store_hits = List.fold_left (fun a (_, h, _) -> a + h) 0 grouped in
  let store_misses = List.fold_left (fun a (_, _, m) -> a + m) 0 grouped in
  let stats =
    {
      modules;
      ok;
      failed = modules - ok;
      jobs;
      elapsed_s;
      (* summed per-worker deltas of the workers' domain-local cache
         counts: exactly this batch's traffic, even when another batch
         runs concurrently on other domains *)
      cache_hits;
      cache_misses;
      store_hits;
      store_misses;
      per_domain;
    }
  in
  if Mae_obs.Log.enabled Mae_obs.Log.Debug then
    Mae_obs.Log.debug ~event:"engine.batch"
      [
        ("modules", Mae_obs.Log.Int modules);
        ("groups", Mae_obs.Log.Int (List.length groups));
        ("ok", Mae_obs.Log.Int ok);
        ("failed", Mae_obs.Log.Int (modules - ok));
        ("jobs", Mae_obs.Log.Int jobs);
        ("elapsed_s", Mae_obs.Log.Float elapsed_s);
        ("cache_hits", Mae_obs.Log.Int stats.cache_hits);
        ("cache_misses", Mae_obs.Log.Int stats.cache_misses);
      ];
  (grouped, stats)

let run_circuits_with_stats ?config ?methods ?jobs ?pool ?cache ~registry
    circuits =
  match
    run_grouped ?config ?methods ?jobs ?pool ?cache ~registry [ circuits ]
  with
  | [ (results, _, _) ], stats -> (results, stats)
  | _ -> assert false (* one group in, one group out *)

let run_circuits ?config ?methods ?jobs ?pool ?cache ~registry circuits =
  fst
    (run_circuits_with_stats ?config ?methods ?jobs ?pool ?cache ~registry
       circuits)
