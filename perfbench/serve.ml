(* serve-replay and serve-fresh: open-loop HTTP/1.1 keep-alive load
   against a forked `mae serve --jobs 1`.

   serve-replay re-submits a seeded pool of small gate-level modules
   with a Zipf skew after every pool module was submitted once, so
   every timed request is an estimate-store hit.  serve-fresh submits a
   never-seen module per request to a daemon with a store journal, so
   every request misses, estimates, inserts and appends; a seeded
   quarter of its requests ask for every method. *)

module Json = Mae_obs.Json

type kind = Replay | Fresh

type spec = {
  name : string;
  nominal_rps : float;  (** the fixed rate latency is reported at *)
  limit_s : float;  (** p99 limit for sustained_rps *)
  step_window : int;  (** requests in one window of a ladder step *)
}

(* NOTES.md says how the nominal rates and limits were chosen. *)
let spec = function
  | Replay ->
      { name = "serve-replay"; nominal_rps = 600.; limit_s = 0.100; step_window = 1000 }
  | Fresh ->
      { name = "serve-fresh"; nominal_rps = 110.; limit_s = 0.100; step_window = 200 }

let pool_size = 200
let setup_reps = 9
let gold_sample = 300
let min_samples = 1000

(* The send lag within which a request at the nominal rate counts as sent
   on schedule (ladder steps allow a tenth of the latency limit). *)
let nominal_lag_limit = 0.001

(* serve-fresh's live-tier cap: a stored estimate holds about 0.4 MB
   (NOTES.md), so the default cap of 65536 would let one run's daemon
   grow by gigabytes. *)
let store_cap = 256

(* Requests in flight per connection.  Deeper pipelines make the
   daemon's request decoding quadratic in its backlog (NOTES.md,
   finding 3). *)
let depth = 4

(* The rate ladder for sustained_rps: fixed rungs 4% apart from 0.75x
   to 4x the nominal rate.  A step at one rung sends [step_windows]
   windows of [step_window] requests. *)
let ladder_step = 1.04
let step_windows = 3

(* Shares of --seconds for the nominal phase and the ladder search. *)
let nominal_share = 0.35
let ladder_share = 0.55

let ladder (s : spec) =
  let n = int_of_float (Float.ceil (log (4. /. 0.75) /. log ladder_step)) in
  Array.init (n + 1) (fun k -> s.nominal_rps *. 0.75 *. (ladder_step ** float_of_int k))

(* --- the generated request stream --- *)

type stream = {
  request : int -> string;  (** the HTTP bytes of request [i] *)
  gold_of : int -> int option;  (** gold-table row checking request [i] *)
}

let replay_stream ~seed =
  let pool = Gen.replay_pool ~seed ~n:pool_size in
  let draw = Gen.zipf_sampler ~rng:(Mae_prob.Rng.create ~seed:(seed + 7919)) ~n:pool_size in
  (* the Zipf draws, made in index order as far as any phase asks *)
  let picks = ref [||] in
  let pick i =
    let have = Array.length !picks in
    if i >= have then
      picks := Array.append !picks (Array.init (max (i + 1 - have) have) (fun _ -> draw ()));
    !picks.(i)
  in
  ( pool,
    {
      request = (fun i -> Client.post_bytes (Client.estimate_body ~id:i pool.(pick i)));
      gold_of = (fun i -> Some (pick i));
    } )

(* serve-fresh's stream is indexed: request i is the module the
   generator derives from (seed, i); warm-up requests use indices from
   [warm_base] so no timed request repeats one. *)
let warm_base = 1_000_000

let fresh_request ~seed i =
  let c, all = Gen.fresh_module ~seed i in
  (Gen.hdl_of c, all)

let fresh_stream ~seed ~sample =
  {
    request =
      (fun i ->
        let hdl, all = fresh_request ~seed i in
        Client.post_bytes
          (Client.estimate_body ~id:i ?methods:(if all then Some "all" else None) hdl));
    gold_of = (fun i -> Hashtbl.find_opt sample i);
  }

(* --- phases --- *)

type phase = {
  label : string;
  first : int;  (** stream index of the first request *)
  rate : float;
  out : Client.outcome;
}

let run_phase ~port ~conns ~stream ~label ~first ~n ~rate ~limit_s =
  let requests = Array.init n (fun k -> stream.request (first + k)) in
  let out =
    Client.open_loop ~port ~conns ~depth ~rate ~timeout_s:(Float.max 2. (20. *. limit_s)) requests
  in
  { label; first; rate; out }

(* Coordinated-omission-corrected latencies: each request from its
   scheduled send; an unanswered or non-200 request is infinitely late. *)
let latencies p =
  Array.mapi
    (fun i sched ->
      if p.out.Client.status.(i) = 200 then p.out.Client.done_at.(i) -. sched else infinity)
    p.out.Client.sched

let send_lags p = Array.mapi (fun i s -> p.out.Client.sent.(i) -. s) p.out.Client.sched

(* The latencies of the requests the generator sent within [lag_limit]
   of their schedule.  A request it issued later was held up by a stall
   of the host, which stalled the generator itself: its latency is not
   the daemon's. *)
let on_time ~lag_limit p =
  let lat = latencies p and lag = send_lags p in
  Array.of_list (List.filteri (fun i _ -> lag.(i) <= lag_limit) (Array.to_list lat))

(* p99 of each window of [size] consecutive latencies, median over the
   windows, so one stall moves one window and not the result; [None]
   with fewer than [size] latencies. *)
let windowed_p99 ~size lat =
  let count = Array.length lat / size in
  if count = 0 then None
  else
    let len = Array.length lat / count in
    Some
      (Util.median
         (Array.init count (fun w -> Util.quantile (Array.sub lat (w * len) len) 0.99)))

type verdict = Holds | Misses | Void

(* Answers per second, first scheduled send to last answer. *)
let completion_rate p =
  let answered = ref 0 and last = ref p.out.Client.sched.(0) in
  Array.iteri
    (fun i st ->
      if st = 200 then begin
        incr answered;
        last := Float.max !last p.out.Client.done_at.(i)
      end)
    p.out.Client.status;
  float_of_int !answered /. (!last -. p.out.Client.sched.(0))

(* A ladder step holds when its p99 (as above, over the requests sent
   within a tenth of the limit of their schedule) is within the limit,
   every request was answered 200, and completions kept up with sends
   at 95% or more of the step's rate (a backlog that keeps growing
   fails this).  A step with fewer on-time requests than one window is
   void. *)
let step_verdict (s : spec) p =
  let p99 = windowed_p99 ~size:s.step_window (on_time ~lag_limit:(s.limit_s /. 10.) p) in
  ( (match p99 with
    | None -> Void
    | Some p99 ->
        if
          p99 <= s.limit_s
          && Array.for_all (fun st -> st = 200) p.out.Client.status
          && completion_rate p >= 0.95 *. p.rate
        then Holds
        else Misses),
    p99 )

(* Check the answers of [p] against the gold table: failed requests
   (non-200, error slots) and mismatches. *)
let check_phase ~gold ~stream p =
  let failed = ref 0 and mismatches = ref 0 in
  Array.iteri
    (fun k status ->
      if status <> 200 then incr failed
      else
        match Gold.entry_of_response p.out.Client.bodies.(k) with
        | Error why ->
            Util.log "%s: request %d: %s" p.label (p.first + k) why;
            incr mismatches
        | Ok answer -> (
            let verdict =
              match stream.gold_of (p.first + k) with
              | Some row -> Gold.check ~gold:gold.(row) answer
              | None -> Gold.check_alone answer
            in
            match verdict with
            | Gold.Pass -> ()
            | Gold.Failed _ -> incr failed
            | Gold.Mismatch why ->
                if !mismatches = 0 then
                  Util.log "%s: request %d: %s" p.label (p.first + k) why;
                incr mismatches))
    p.out.Client.status;
  (!failed, !mismatches)

let count_of p = Array.length p.out.Client.sched
let answered_of p = Array.fold_left (fun a st -> if st = 200 then a + 1 else a) 0 p.out.Client.status

let phase_json ?(extra = []) p ~failed =
  Util.phase p.label ~attempted:(count_of p) ~failed
    ~extra:(("rate_rps", Json.Number p.rate) :: extra)

(* --- set-up --- *)

let daemon_args kind ~dir i =
  [ "--jobs"; "1" ]
  @
  match kind with
  | Replay -> []
  | Fresh ->
      [
        "--store"; Filename.concat dir (Printf.sprintf "store-%d.journal" i);
        "--store-cap"; string_of_int store_cap;
      ]

(* Spawn the daemon [setup_reps] times; the median time to the first
   /healthz 200, and the last daemon, still running. *)
let start_daemon kind ~mae ~dir =
  let runs =
    List.init setup_reps (fun i ->
        let d, t =
          Client.spawn ~mae ~args:(daemon_args kind ~dir i)
            ~log:(Filename.concat dir (Printf.sprintf "daemon-%d.log" i))
        in
        if i < setup_reps - 1 then Client.stop d;
        (d, t))
  in
  let d, _ = List.nth runs (setup_reps - 1) in
  (d, Util.median (Array.of_list (List.map snd runs)))

(* --- the gold table --- *)

let circuit_of_hdl hdl =
  match Mae.Driver.string_circuits hdl with
  | Ok [ c ] -> c
  | Ok _ -> Util.fail "generated HDL holds more than one module"
  | Error e -> Util.fail "generated HDL does not elaborate: %s" (Format.asprintf "%a" Mae.Driver.pp_error e)

(* --- the run --- *)

let run kind ~seed ~seconds ~trace ~mae ~dir =
  let s = spec kind in
  (* a large minor heap keeps the generator's own GC pauses out of the
     latencies it measures *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4 lsl 20 };
  let conns = min 2 (Util.nproc ()) in
  let n_nominal =
    max min_samples (int_of_float (s.nominal_rps *. seconds *. nominal_share))
  in
  (* inputs and the gold table, before any daemon runs *)
  let registry = Mae_tech.Registry.create () in
  let stream, gold_jobs, warm =
    match kind with
    | Replay ->
        let pool, stream = replay_stream ~seed in
        ( stream,
          Array.map (fun hdl -> (circuit_of_hdl hdl, [ "default" ])) pool,
          `Pool pool )
    | Fresh ->
        let rng = Mae_prob.Rng.create ~seed:(seed + 104729) in
        let idx = Array.init n_nominal Fun.id in
        Mae_prob.Rng.shuffle rng idx;
        let chosen = Array.sub idx 0 (min gold_sample n_nominal) in
        Array.sort compare chosen;
        let sample = Hashtbl.create 512 in
        Array.iteri (fun row i -> Hashtbl.replace sample i row) chosen;
        ( fresh_stream ~seed ~sample,
          Array.map
            (fun i ->
              let hdl, all = fresh_request ~seed i in
              (circuit_of_hdl hdl, if all then [ "all" ] else [ "default" ]))
            chosen,
          `Fresh )
  in
  let gold, _ = Gold.compute ~registry gold_jobs in
  let daemon, setup_s = start_daemon kind ~mae ~dir in
  let port = daemon.Client.port in
  let cpu () = Util.proc_cpu_s daemon.Client.pid in
  (* warm-up: every pool module once (serve-replay), or a short run of
     never-seen modules (serve-fresh) *)
  let warm_phase, warm_stream =
    match warm with
    | `Pool pool ->
        let ws =
          {
            request =
              (fun i -> Client.post_bytes (Client.estimate_body ~id:(warm_base + i) pool.(i)));
            gold_of = (fun i -> Some i);
          }
        in
        ( run_phase ~port ~conns ~stream:ws ~label:"warm-up" ~first:0 ~n:pool_size
            ~rate:(s.nominal_rps /. 2.) ~limit_s:s.limit_s,
          ws )
    | `Fresh ->
        let ws = { stream with gold_of = (fun _ -> None) } in
        ( run_phase ~port ~conns ~stream:ws ~label:"warm-up" ~first:warm_base ~n:100
            ~rate:s.nominal_rps ~limit_s:s.limit_s,
          ws )
  in
  let warm_failed, warm_mismatches = check_phase ~gold ~stream:warm_stream warm_phase in
  (* the nominal rate: latency, CPU per request, counter cross-check *)
  let m0 = Client.scrape ~port in
  let cpu0 = cpu () in
  let nominal =
    run_phase ~port ~conns ~stream ~label:"nominal" ~first:0 ~n:n_nominal ~rate:s.nominal_rps
      ~limit_s:s.limit_s
  in
  let cpu1 = cpu () in
  let m1 = Client.scrape ~port in
  let nom_failed, nom_mismatches = check_phase ~gold ~stream nominal in
  let answered = answered_of nominal in
  let d = Client.delta m0 m1 in
  (* The daemon's deltas must match the client's tally: every request
     counted, every answered one a hit (serve-replay) or a miss
     (serve-fresh).  Requests the client gave up on may or may not have
     reached the daemon before the closing scrape, so with timeouts the
     counts are bounds. *)
  let counters_ok =
    let requests = int_of_float (d "mae_serve_requests_total") in
    let hits = int_of_float (d "mae_estimate_cache_hits_total") in
    let misses = int_of_float (d "mae_estimate_cache_misses_total") in
    let counted, uncounted = match kind with Replay -> (hits, misses) | Fresh -> (misses, hits) in
    let timed_out = Array.fold_left (fun a st -> if st = 0 then a + 1 else a) 0 nominal.out.Client.status in
    let ok =
      uncounted = 0
      && requests <= n_nominal
      && requests >= n_nominal - timed_out
      && counted >= answered
      && counted <= answered + timed_out
    in
    if not ok then
      Util.log
        "%s: daemon counters disagree with the client: requests %d (sent %d, %d timed out), \
         store hits %d, misses %d (answered %d)"
        s.name requests n_nominal timed_out hits misses answered;
    ok
  in
  let lags = send_lags nominal in
  (* latency at the nominal rate: requests sent on schedule only (all of
     them when fewer than one window were) *)
  let lat =
    let timed = on_time ~lag_limit:nominal_lag_limit nominal in
    if Array.length timed >= min_samples then timed else latencies nominal
  in
  if Array.length lat < n_nominal then
    Util.log "%s: %d of %d requests left out, sent late by a host stall" s.name
      (n_nominal - Array.length lat) n_nominal;
  (* sustained_rps: walk the ladder (untraced runs only).  A rung
     fails on two misses, so one dip of the host's CPU does not end the
     climb; a void step decides nothing; four steps at most per rung. *)
  let rungs = ladder s in
  let next = ref n_nominal in
  let probes = ref [] in
  let step rate =
    let n = step_windows * s.step_window in
    let p =
      run_phase ~port ~conns ~stream ~label:(Printf.sprintf "ladder %.0f/s" rate) ~first:!next ~n
        ~rate ~limit_s:s.limit_s
    in
    next := !next + n;
    let v, p99 = step_verdict s p in
    probes := (p, v, p99) :: !probes;
    Unix.sleepf 0.05;
    v
  in
  let holds rate =
    let rec go misses steps =
      misses < 2 && steps < 4
      && match step rate with Holds -> true | Misses -> go (misses + 1) (steps + 1) | Void -> go misses (steps + 1)
    in
    go 0 0
  in
  let sustained =
    if trace then Float.nan
    else begin
      (* Walk the ladder from the rung nearest 0.9 x the capacity the
         nominal phase's CPU time implies: up while rungs hold, or down
         until one does.  The walk stops at its time budget with the
         highest rung that held (when walking down runs out of time, the
         rung below the lowest miss). *)
      let deadline = Util.now () +. (ladder_share *. seconds) in
      let guess = 0.9 *. float_of_int n_nominal /. Float.max 1e-3 (cpu1 -. cpu0) in
      let last = Array.length rungs - 1 in
      let start =
        max 0 (min last (int_of_float (Float.round (log (guess /. rungs.(0)) /. log ladder_step))))
      in
      let in_time () = Util.now () < deadline in
      let rec up k = if k < last && in_time () && holds rungs.(k + 1) then up (k + 1) else k in
      let rec down k =
        if k = 0 then rungs.(0) /. ladder_step
        else if not (in_time ()) then rungs.(k - 1)
        else if holds rungs.(k - 1) then rungs.(k - 1)
        else down (k - 1)
      in
      if holds rungs.(start) then rungs.(up start) else down start
    end
  in
  let peak_rss = Util.peak_rss_mb daemon.Client.pid in
  Client.stop daemon;
  let attempted = count_of warm_phase + n_nominal in
  let failed = warm_failed + nom_failed in
  let mismatches = warm_mismatches + nom_mismatches in
  let phases =
    phase_json warm_phase ~failed:warm_failed
    :: phase_json nominal ~failed:nom_failed
    :: List.rev_map
         (fun (p, v, p99) ->
           phase_json p ~failed:(count_of p - answered_of p)
             ~extra:
               [
                 ( "verdict",
                   Json.String (match v with Holds -> "holds" | Misses -> "misses" | Void -> "void") );
                 ("p99_ms", match p99 with Some v -> Json.Number (v *. 1e3) | None -> Json.Null);
                 ("completion_rps", Json.Number (completion_rate p));
               ])
         !probes
  in
  let record =
    [
      ("nominal_rps", Json.Number s.nominal_rps);
      ("p99_limit_ms", Json.Number (s.limit_s *. 1e3));
      ("ladder_rps", Json.Array (Array.to_list (Array.map (fun r -> Json.Number r) rungs)));
      ("connections", Json.Number (float_of_int conns));
      ("latency_samples", Json.Number (float_of_int n_nominal));
      ("latency_samples_on_time", Json.Number (float_of_int (Array.length lat)));
      (* reported, not gated: see NOTES.md *)
      ("latency_p50_ms", Json.Number (Util.median lat *. 1e3));
      ("latency_p99_ms", Json.Number (Option.get (windowed_p99 ~size:min_samples lat) *. 1e3));
      ("daemon_counters_agree", Json.Bool counters_ok);
      ("phases", Json.Array phases);
    ]
  in
  let correct = mismatches = 0 && counters_ok in
  if not trace then
    {
      Util.correct;
      attempted;
      failed;
      metrics =
        [
          ("setup_s", setup_s, "s");
          ("throughput_mps", completion_rate nominal, "modules/s");
          ("sustained_rps", sustained, "req/s");
          ("cpu_ms_per_op", (cpu1 -. cpu0) *. 1e3 /. float_of_int n_nominal, "ms");
          ("peak_rss_mb", peak_rss, "MiB");
          ("failed_share", Util.failed_share ~failed ~attempted, "ratio");
        ];
      record;
    }
  else begin
    (* the traced in-process replay of the exact request stream *)
    let requests = Array.init n_nominal stream.request in
    let journals = ref 0 in
    let replay () =
      Mae_prob.Kernel_cache.clear ();
      let cas = Mae_db.Cas.create () in
      (match kind with
      | Fresh -> (
          (* a fresh journal per pass, as the daemon's --store *)
          incr journals;
          let path = Filename.concat dir (Printf.sprintf "replay-%d.journal" !journals) in
          match Mae_db.Cas.open_journal cas ~path with
          | Ok _ -> ()
          | Error e -> Util.fail "replay journal: %s" e)
      | Replay ->
          let was = !Span.on in
          Span.on := false;
          for i = 0 to pool_size - 1 do
            ignore (Pipeline.serve_request ~registry ~cas ~seq:i (warm_stream.request i))
          done;
          (* count the timed stream's kernel traffic only *)
          Mae_prob.Kernel_cache.clear ();
          Span.on := was);
      let entries =
        Array.mapi
          (fun i bytes -> Span.op i (fun () -> Pipeline.serve_request ~registry ~cas ~seq:i bytes))
          requests
      in
      Mae_db.Cas.close_journal cas;
      entries
    in
    let (entries, spans, overhead, untraced_s, traced_s), kernel =
      Traced.kernel_counts (fun () -> Traced.traced_replay replay)
    in
    let replay_failed = ref 0 and replay_mismatches = ref 0 in
    Array.iteri
      (fun i e ->
        let verdict =
          match stream.gold_of i with
          | Some row -> Gold.check ~gold:gold.(row) e
          | None -> Gold.check_alone e
        in
        match verdict with
        | Gold.Pass -> ()
        | Gold.Failed _ -> incr replay_failed
        | Gold.Mismatch why ->
            Util.log "%s replay: request %d: %s" s.name i why;
            incr replay_mismatches)
      entries;
    let self, table = Traced.self_table spans in
    let hits = d "mae_estimate_cache_hits_total" and misses = d "mae_estimate_cache_misses_total" in
    let batches = d "mae_serve_batch_requests_count" in
    let requests_seen = d "mae_serve_requests_total" in
    let serve_metrics =
      [
        ("db.lookups", hits +. misses);
        ("db.hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
        ( "serve.dispatch.batch_requests_mean",
          if batches > 0. then d "mae_serve_batch_requests_sum" /. batches else 0. );
        ("serve.dispatch.shed", d "mae_serve_requests_shed_total");
        (* the closing /metrics scrape opened one connection of its own *)
        ( "serve.transport.reused_share",
          1. -. ((d "mae_serve_connections_total" -. 1.) /. requests_seen) );
        ( "serve.residual_us",
          (Util.median lat -. Pipeline.layer_medians_per_op spans) *. 1e6 );
        ("loadgen.send_lag_p99_ms", Util.quantile lags 0.99 *. 1e3);
        ("obs.trace_overhead_ratio", overhead);
      ]
    in
    {
      Util.correct = correct && !replay_mismatches = 0;
      attempted = attempted + n_nominal;
      failed = failed + !replay_failed;
      metrics =
        Traced.complete
          (kernel @ serve_metrics @ Pipeline.span_metrics spans
          @ Pipeline.method_errors (Array.to_list entries)
          @ self);
      record =
        record
        @ [
            ("layer_table", table);
            ( "replay_phase",
              Util.phase "in-process replay" ~attempted:n_nominal ~failed:!replay_failed );
            ( "bases",
              Json.Object
                [
                  ("daemon_store_hits", Json.Number hits);
                  ("daemon_store_misses", Json.Number misses);
                  ("daemon_requests", Json.Number requests_seen);
                  ("daemon_batches", Json.Number batches);
                  ( "daemon_connections",
                    Json.Number (d "mae_serve_connections_total" -. 1.) );
                  ("nominal_latency_p50_us", Json.Number (Util.median lat *. 1e6));
                  ("replay_untraced_s", Json.Number untraced_s);
                  ("replay_traced_s", Json.Number traced_s);
                ] );
          ];
    }
  end
