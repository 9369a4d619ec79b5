(* The observability layer: span recording and nesting, Chrome trace
   export well-formedness, metrics registry correctness, and the
   guarantee that telemetry never changes an estimate. *)

module Obs = Mae_obs
module Span = Mae_obs.Span
module Metrics = Mae_obs.Metrics
module Json = Mae_obs.Json

let registry = Mae_tech.Registry.create ()

let random_batch ?(first_seed = 4000) n =
  List.init n (fun i ->
      Mae_workload.Random_circuit.generate
        ~name:(Printf.sprintf "obs%02d" i)
        ~rng:(Mae_prob.Rng.create ~seed:(first_seed + i))
        {
          Mae_workload.Random_circuit.default_params with
          devices = 20 + (i mod 5) * 10;
        })

let contains_sub hay needle =
  let n = String.length needle and m = String.length hay in
  let rec at i =
    i + n <= m && (String.equal (String.sub hay i n) needle || at (i + 1))
  in
  at 0

(* --- Json --- *)

let test_json_parser () =
  let ok s = match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "%S: %s" s e in
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "%S should not parse" s
    | Error _ -> ()
  in
  (match ok {|{"a": [1, 2.5, -3e2], "b": "x\n\"yé", "c": {"t": true, "n": null}}|} with
  | Json.Object fields ->
      Alcotest.(check int) "three members" 3 (List.length fields);
      (match List.assoc "a" fields with
      | Json.Array [ Json.Number a; Json.Number b; Json.Number c ] ->
          Alcotest.(check (float 1e-9)) "1" 1. a;
          Alcotest.(check (float 1e-9)) "2.5" 2.5 b;
          Alcotest.(check (float 1e-9)) "-300" (-300.) c
      | _ -> Alcotest.fail "array member")
  | _ -> Alcotest.fail "object expected");
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "[1] trailing";
  bad "\"unterminated";
  bad "nul";
  (* escape/parse round trip *)
  let tricky = "a\"b\\c\nd\te\r\x01" in
  match Json.parse (Json.escape tricky) with
  | Ok (Json.String s) -> Alcotest.(check string) "round trip" tricky s
  | _ -> Alcotest.fail "escape round trip"

(* [parse_sub] reads a window of a larger buffer exactly as [parse]
   reads that window copied out: same values, same errors, same error
   offsets (counted from the window's start). *)
let json_window_prop =
  let open QCheck2.Gen in
  let doc =
    let leaf =
      oneof
        [ return Json.Null; map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Number (float_of_int i)) small_signed_int;
          map (fun s -> Json.String s) (string_size ~gen:char (0 -- 8)) ]
    in
    let field = pair (string_size ~gen:printable (0 -- 4)) leaf in
    oneof
      [ leaf; map (fun l -> Json.Array l) (list_size (0 -- 4) leaf);
        map (fun l -> Json.Object l) (list_size (0 -- 4) field) ]
  in
  let junk = string_size ~gen:(oneofl [ ' '; '{'; '"'; '\\'; 'x'; '1'; ']' ]) (0 -- 6) in
  let case =
    let* pre = junk and* d = doc and* post = junk in
    let text = pre ^ Json.encode d ^ post in
    let n = String.length text in
    let* off = frequency [ (3, return (String.length pre)); (1, int_bound n) ] in
    let* len =
      frequency
        [ (3, return (min (n - off) (String.length (Json.encode d))));
          (1, int_bound (n - off)) ]
    in
    return (text, off, len)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"parse_sub = parse of the window" case
       (fun (text, off, len) ->
         Json.parse_sub text ~off ~len = Json.parse (String.sub text off len)))

(* --- spans --- *)

let test_span_recording () =
  Obs.with_enabled true @@ fun () ->
  Span.reset ();
  Span.with_ ~name:"outer" ~attrs:[ ("k", "v") ] (fun () ->
      Span.with_ ~name:"inner" (fun () -> ignore (Sys.opaque_identity 1));
      Span.with_ ~name:"inner" (fun () -> ignore (Sys.opaque_identity 2)));
  (match Span.with_ ~name:"boom" (fun () -> raise Exit) with
  | () -> Alcotest.fail "Exit expected"
  | exception Exit -> ());
  let events = Span.events () in
  Alcotest.(check int) "four spans" 4 (List.length events);
  let outer =
    List.find (fun (e : Span.event) -> String.equal e.name "outer") events
  in
  let inners =
    List.filter (fun (e : Span.event) -> String.equal e.name "inner") events
  in
  Alcotest.(check int) "outer at depth 0" 0 outer.depth;
  List.iter
    (fun (i : Span.event) ->
      Alcotest.(check int) "inner at depth 1" 1 i.depth;
      Alcotest.(check bool) "inner within outer" true
        (i.ts >= outer.ts && i.ts +. i.dur <= outer.ts +. outer.dur +. 1e-6))
    inners;
  let child_time =
    List.fold_left (fun acc (i : Span.event) -> acc +. i.dur) 0. inners
  in
  Alcotest.(check (float 1e-6))
    "outer self = dur - children" (outer.dur -. child_time) outer.self;
  Alcotest.(check bool) "exception span still recorded" true
    (List.exists (fun (e : Span.event) -> String.equal e.name "boom") events);
  Span.reset ();
  Alcotest.(check int) "reset drops spans" 0 (List.length (Span.events ()))

let test_span_disabled_noop () =
  Obs.set_enabled false;
  Span.reset ();
  Span.with_ ~name:"invisible" (fun () -> ());
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.events ()))

(* --- trace export: well-formed JSON, nested non-overlapping lanes --- *)

let x_events trace =
  match Option.bind (Json.member "traceEvents" trace) Json.to_list with
  | None -> Alcotest.fail "traceEvents missing"
  | Some l ->
      List.filter
        (fun e ->
          match Option.bind (Json.member "ph" e) Json.to_string with
          | Some "X" -> true
          | _ -> false)
        l

let num name e =
  match Option.bind (Json.member name e) Json.to_number with
  | Some f -> f
  | None -> Alcotest.failf "X event lacks numeric %s" name

(* stack discipline per lane (tid): strictly nested or disjoint *)
let check_nesting events =
  let lanes = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let tid = int_of_float (num "tid" e) in
      let prev = Option.value (Hashtbl.find_opt lanes tid) ~default:[] in
      Hashtbl.replace lanes tid ((num "ts" e, num "dur" e) :: prev))
    events;
  Hashtbl.iter
    (fun tid spans ->
      let spans =
        List.sort
          (fun (t1, d1) (t2, d2) ->
            match Float.compare t1 t2 with
            | 0 -> Float.compare d2 d1
            | c -> c)
          spans
      in
      let tolerance = 1.0 (* µs *) in
      let stack = ref [] in
      List.iter
        (fun (ts, dur) ->
          let rec unwind () =
            match !stack with
            | (pts, pdur) :: rest when ts >= pts +. pdur -. tolerance ->
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | (pts, pdur) :: _ ->
              if ts +. dur > pts +. pdur +. tolerance then
                Alcotest.failf
                  "lane %d: span [%f, +%f] partially overlaps [%f, +%f]" tid ts
                  dur pts pdur
          | [] -> ());
          stack := (ts, dur) :: !stack)
        spans)
    lanes

let trace_roundtrip ~jobs () =
  Obs.with_enabled true @@ fun () ->
  Span.reset ();
  let batch = random_batch 10 in
  let results = Mae_engine.run_circuits ~jobs ~registry batch in
  Alcotest.(check int) "batch ran" 10 (List.length results);
  let trace =
    match Json.parse (Mae_obs.Trace.to_chrome_string ()) with
    | Ok t -> t
    | Error e -> Alcotest.failf "trace JSON: %s" e
  in
  let events = x_events trace in
  let names =
    List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_string) events
  in
  let count name = List.length (List.filter (String.equal name) names) in
  (* one span per Figure-1 stage per module, one module parent each;
     estimators run under per-methodology method.<name> spans *)
  List.iter
    (fun stage -> Alcotest.(check int) stage 10 (count stage))
    [
      "driver.module"; "driver.validate"; "driver.expand"; "driver.stats";
      "method.stdcell"; "method.fullcustom-exact"; "method.fullcustom-average";
    ];
  Alcotest.(check int) "one batch span" 1 (count "engine.batch");
  check_nesting events;
  Span.reset ()

let test_trace_seq () = trace_roundtrip ~jobs:1 ()
let test_trace_par () = trace_roundtrip ~jobs:4 ()

(* --- metrics --- *)

let test_metrics_registry () =
  let c = Metrics.counter "mae_test_obs_counter_total" in
  let c' = Metrics.counter "mae_test_obs_counter_total" in
  Metrics.reset_counter c;
  Metrics.incr c;
  Metrics.add c' 4;
  Alcotest.(check int) "idempotent registration shares state" 5
    (Metrics.counter_value c);
  (match Metrics.gauge "mae_test_obs_counter_total" with
  | _ -> Alcotest.fail "kind clash must raise"
  | exception Invalid_argument _ -> ());
  (match Metrics.counter "bad name!" with
  | _ -> Alcotest.fail "invalid name must raise"
  | exception Invalid_argument _ -> ());
  let g = Metrics.gauge "mae_test_obs_gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.)) "gauge set/get" 2.5 (Metrics.gauge_value g)

let test_prometheus_format () =
  let prom = Metrics.to_prometheus () in
  Alcotest.(check bool) "non-empty" true (String.length prom > 0);
  String.split_on_char '\n' prom
  |> List.iter (fun line ->
         if String.length line > 0 && not (Char.equal line.[0] '#') then
           match String.split_on_char ' ' line with
           | [ name; value ] ->
               Alcotest.(check bool)
                 (Printf.sprintf "parseable value in %S" line)
                 true
                 (Option.is_some (float_of_string_opt value));
               Alcotest.(check bool)
                 (Printf.sprintf "non-empty name in %S" line)
                 true (String.length name > 0)
           | _ -> Alcotest.failf "malformed line %S" line);
  Alcotest.(check bool) "no bucketed histogram series" false
    (List.exists
       (fun line -> contains_sub line "_bucket{")
       (String.split_on_char '\n' prom));
  match Json.parse (Metrics.to_json ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics JSON dump: %s" e

let test_metrics_match_engine () =
  Mae_prob.Kernel_cache.clear ();
  let counter name =
    match Metrics.find_counter name with
    | Some c -> Metrics.counter_value c
    | None -> Alcotest.failf "counter %s not registered" name
  in
  let modules_before = counter "mae_engine_modules_total" in
  let ok_before = counter "mae_engine_modules_ok_total" in
  let batch = random_batch 8 in
  let results, stats = Mae_engine.run_circuits_with_stats ~jobs:2 ~registry batch in
  Alcotest.(check int) "modules counter delta" stats.Mae_engine.modules
    (counter "mae_engine_modules_total" - modules_before);
  Alcotest.(check int) "ok counter delta" stats.Mae_engine.ok
    (counter "mae_engine_modules_ok_total" - ok_before);
  Alcotest.(check int) "ok = Ok slots"
    (List.length (List.filter Result.is_ok results))
    stats.Mae_engine.ok;
  (* the cache was cleared, so batch deltas = cumulative counters *)
  let cache = Mae_prob.Kernel_cache.stats () in
  Alcotest.(check int) "cache hits via registry" cache.hits
    (counter "mae_kernel_cache_hits_total");
  Alcotest.(check int) "cache misses via registry" cache.misses
    (counter "mae_kernel_cache_misses_total");
  Alcotest.(check int) "engine stats cache hits" cache.hits
    stats.Mae_engine.cache_hits;
  Alcotest.(check int) "per-domain counts sum to modules"
    stats.Mae_engine.modules
    (Array.fold_left ( + ) 0 stats.Mae_engine.per_domain);
  Alcotest.(check bool) "races never exceed misses" true
    (cache.races <= cache.misses)

(* --- telemetry must never change an estimate --- *)

let bits = Int64.bits_of_float

let digest results =
  List.map
    (function
      | Ok (r : Mae.Driver.module_report) ->
          ( r.circuit.Mae_netlist.Circuit.name,
            List.concat_map
              (fun (mr : Mae.Driver.method_result) ->
                match mr.outcome with
                | Ok outcome ->
                    let d = Mae.Methodology.dims outcome in
                    List.map bits [ d.area; d.height; d.width ]
                | Error _ -> [])
              r.results
            @ List.map
                (fun (s : Mae.Estimate.stdcell) -> bits s.area)
                (Mae.Driver.stdcell_sweep r) )
      | Error e -> (Format.asprintf "%a" Mae_engine.pp_error e, []))
    results

let test_disabled_identical () =
  let batch = random_batch 12 in
  (* the sketch the engine observes into *)
  let module_sketch = Mae_obs.Sketch.create "mae_engine_module_seconds_summary" in
  let sketch_count () = (Mae_obs.Sketch.snapshot module_sketch).Mae_obs.Sketch.n in
  Obs.set_enabled false;
  let sketch_before_off = sketch_count () in
  let off = Mae_engine.run_circuits ~jobs:2 ~registry batch in
  Alcotest.(check int)
    "telemetry off records no sketch samples" sketch_before_off
    (sketch_count ());
  let sketch_before_on = sketch_count () in
  let on =
    Obs.with_enabled true (fun () ->
        Mae_engine.run_circuits ~jobs:2 ~registry batch)
  in
  Alcotest.(check int)
    "telemetry on records one sketch sample per module"
    (sketch_before_on + List.length batch)
    (sketch_count ());
  Span.reset ();
  Alcotest.(check (list (pair string (list int64))))
    "telemetry on/off bit-for-bit" (digest off) (digest on)

(* --- flame summary with zero-duration spans --- *)

let test_flame_zero_duration () =
  Obs.with_enabled true @@ fun () ->
  Span.reset ();
  (* empty bodies: durations at or below clock resolution, several
     exactly 0.0 -- the summary must not divide by a zero grand total
     or print nan/inf *)
  for _ = 1 to 50 do
    Span.with_ ~name:"instant" (fun () -> ())
  done;
  let rows = Mae_obs.Trace.flame () in
  Alcotest.(check int) "one aggregated row" 1 (List.length rows);
  let r = List.hd rows in
  Alcotest.(check int) "all calls counted" 50 r.Mae_obs.Trace.calls;
  Alcotest.(check bool) "self time finite and >= 0" true
    (Float.is_finite r.Mae_obs.Trace.self_s && r.Mae_obs.Trace.self_s >= 0.);
  let summary = Mae_obs.Trace.flame_summary () in
  Alcotest.(check bool) "summary non-empty" true (String.length summary > 0);
  let lower = String.lowercase_ascii summary in
  let contains needle =
    let n = String.length needle and m = String.length lower in
    let rec at i = i + n <= m && (String.equal (String.sub lower i n) needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "no nan in summary" false (contains "nan");
  Alcotest.(check bool) "no inf in summary" false (contains "inf");
  Span.reset ()

(* --- sketch observations at 0, huge, and negative values --- *)

let test_sketch_extremes () =
  let sk = Mae_obs.Sketch.create "mae_test_obs_extreme_seconds_summary" in
  Mae_obs.Sketch.reset sk;
  List.iter (Mae_obs.Sketch.observe sk) [ 0.; 1e308; -5.; Float.min_float ];
  let s = Mae_obs.Sketch.snapshot sk in
  Alcotest.(check int) "every observation counted" 4 s.n;
  Alcotest.(check (float 0.)) "sum is the plain total"
    (0. +. 1e308 +. -5. +. Float.min_float)
    s.sum;
  Alcotest.(check (float 0.)) "exact min" (-5.) s.min_v;
  Alcotest.(check (float 0.)) "exact max" 1e308 s.max_v;
  (* 0, -5 and min_float share the underflow bucket, 1e308 the
     overflow bucket; every answer stays finite and inside [min, max] *)
  List.iter
    (fun (q, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "q=%g answer %g finite, in [min, max]" q v)
        true
        (Float.is_finite v && v >= -5. && v <= 1e308))
    s.quantiles;
  Alcotest.(check int) "every default quantile answered" 5
    (List.length s.quantiles);
  (* the exposition must stay parseable *)
  let prefix = "mae_test_obs_extreme_seconds_summary" in
  let n = String.length prefix in
  let lines =
    String.split_on_char '\n' (Metrics.to_prometheus ())
    |> List.filter (fun line ->
           String.length line > n && String.equal (String.sub line 0 n) prefix)
  in
  Alcotest.(check int) "5 quantile lines + _sum + _count" 7 (List.length lines);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some sp ->
          Alcotest.(check bool)
            (Printf.sprintf "finite value in %S" line)
            true
            (match
               float_of_string_opt
                 (String.sub line (sp + 1) (String.length line - sp - 1))
             with
            | Some v -> Float.is_finite v
            | None -> false)
      | None -> Alcotest.failf "malformed line %S" line)
    lines;
  match Json.parse (Metrics.to_json ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics JSON with extreme sums: %s" e

(* --- Log: JSON-lines escaping, levels, request ids, disabled no-op --- *)

module Log = Mae_obs.Log

let read_log path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.map (fun line ->
         match Json.parse line with
         | Ok doc -> doc
         | Error e -> Alcotest.failf "log line not JSON (%s): %S" e line)

let test_log_escaping () =
  let path = "test_obs_log.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  (match Log.set_sink_file path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sink: %s" e);
  Log.set_threshold (Some Log.Info);
  let tricky = "ctl\x01\x1f tab\t nl\n quote\" backslash\\ crlf\r\n" in
  Log.info ~event:"test.escape"
    [
      ("s", Log.Str tricky);
      ("i", Log.Int (-42));
      ("f", Log.Float 2.5);
      ("b", Log.Bool true);
    ];
  Log.with_request_id "r99" (fun () ->
      Log.warn ~event:"test.scoped" [ ("k", Log.Str "v") ]);
  (* below threshold: dropped *)
  Log.debug ~event:"test.dropped" [];
  Log.set_threshold None;
  (* disabled: dropped even at Error *)
  Log.error ~event:"test.disabled" [];
  Log.close ();
  let records = read_log path in
  Alcotest.(check int) "two records survive the threshold" 2
    (List.length records);
  let first = List.nth records 0 in
  (match Json.member "s" first with
  | Some (Json.String s) ->
      Alcotest.(check string) "control chars and quotes round-trip" tricky s
  | _ -> Alcotest.fail "field s missing");
  Alcotest.(check bool) "level recorded" true
    (Json.member "level" first = Some (Json.String "info"));
  Alcotest.(check bool) "int field" true
    (Option.bind (Json.member "i" first) Json.to_number = Some (-42.));
  Alcotest.(check bool) "bool field" true
    (Json.member "b" first = Some (Json.Bool true));
  Alcotest.(check bool) "unscoped record has no request_id" true
    (Json.member "request_id" first = None);
  let second = List.nth records 1 in
  Alcotest.(check bool) "request id scoped" true
    (Json.member "request_id" second = Some (Json.String "r99"));
  Alcotest.(check bool) "request id restored" true
    (Log.current_request_id () = None);
  Sys.remove path

let test_log_levels () =
  Alcotest.(check bool) "off by default here" false (Log.enabled Log.Error);
  Log.set_threshold (Some Log.Warn);
  Alcotest.(check bool) "warn on at warn" true (Log.enabled Log.Warn);
  Alcotest.(check bool) "error on at warn" true (Log.enabled Log.Error);
  Alcotest.(check bool) "info off at warn" false (Log.enabled Log.Info);
  Alcotest.(check bool) "threshold readable" true
    (Log.current_threshold () = Some Log.Warn);
  Log.set_threshold None;
  List.iter
    (fun (s, l) -> Alcotest.(check bool) s true (Log.level_of_string s = l))
    [
      ("debug", Some Log.Debug);
      ("info", Some Log.Info);
      ("warn", Some Log.Warn);
      ("warning", Some Log.Warn);
      ("error", Some Log.Error);
      ("verbose", None);
    ]

(* --- Clock: monotonic timebase for span/latency timing --- *)

let test_clock_monotonic () =
  let a = Mae_obs.Clock.monotonic () in
  let b = Mae_obs.Clock.monotonic () in
  Alcotest.(check bool) "never goes backwards" true (b >= a);
  Alcotest.(check bool) "finite" true (Float.is_finite a);
  (* converting the current monotonic instant lands near current wall *)
  let wall_now = Mae_obs.Clock.wall () in
  let converted = Mae_obs.Clock.wall_of_monotonic (Mae_obs.Clock.monotonic ()) in
  Alcotest.(check bool) "wall_of_monotonic tracks wall clock" true
    (Float.abs (converted -. wall_now) < 60.)

(* --- Sketch: relative-error property against the exact sorted pool --- *)

(* deterministic pseudo-random stream, no global Random state *)
let lcg_stream seed n =
  let state = ref (Int64.of_int seed) in
  List.init n (fun _ ->
      state :=
        Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
      let bits = Int64.to_int (Int64.shift_right_logical !state 17) land 0xFFFFFF in
      float_of_int bits /. 1e3)

(* every queried quantile must land within alpha relative error of the
   exact order statistic at rank max 1 (ceil (q * n)), and count, min
   and max must be exact *)
let assert_within_bound label sk samples =
  let sorted = Array.of_list (List.sort Float.compare samples) in
  let n = Array.length sorted in
  let s = Mae_obs.Sketch.snapshot sk in
  Alcotest.(check int) (label ^ ": exact count") n s.n;
  Alcotest.(check (float 0.)) (label ^ ": exact min") sorted.(0) s.min_v;
  Alcotest.(check (float 0.)) (label ^ ": exact max") sorted.(n - 1) s.max_v;
  List.iter
    (fun q ->
      match Mae_obs.Sketch.quantile sk q with
      | None -> Alcotest.failf "%s: quantile %g of %d samples: empty" label q n
      | Some v ->
          let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
          let x = sorted.(rank - 1) in
          Alcotest.(check bool)
            (Printf.sprintf "%s q=%g: %g within %g of exact %g" label q v
               (Mae_obs.Sketch.alpha *. Float.abs x)
               x)
            true
            (Float.abs (v -. x) <= Mae_obs.Sketch.alpha *. Float.abs x))
    [ 0.; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 0.999; 1. ]

let test_sketch_streams () =
  let streams =
    [
      ("uniform", lcg_stream 42 20_000);
      ("sorted", List.init 20_000 float_of_int);
      ("reversed", List.init 20_000 (fun i -> float_of_int (20_000 - i)));
      ("constant", List.init 5_000 (fun _ -> 7.5));
      ( "two_spike",
        List.init 10_000 (fun i -> if i mod 2 = 0 then 1. else 1000.) );
    ]
  in
  List.iteri
    (fun i (label, samples) ->
      let sk =
        Mae_obs.Sketch.create
          (Printf.sprintf "mae_test_sketch_stream%d_seconds_summary" i)
      in
      Mae_obs.Sketch.reset sk;
      List.iter (Mae_obs.Sketch.observe sk) samples;
      assert_within_bound label sk samples)
    streams

let test_sketch_merged_domains () =
  let sk = Mae_obs.Sketch.create "mae_test_sketch_merged_seconds_summary" in
  Mae_obs.Sketch.reset sk;
  let domains = 4 in
  let per_domain = 10_000 in
  let chunks =
    List.init domains (fun d -> lcg_stream (100 + d) per_domain)
  in
  (* concurrent hammer: four domains observe their chunks into the
     same sketch; every observation is visible once its domain joins *)
  let workers =
    List.map
      (fun chunk ->
        Domain.spawn (fun () -> List.iter (Mae_obs.Sketch.observe sk) chunk))
      chunks
  in
  List.iter Domain.join workers;
  assert_within_bound "4-domain hammer" sk (List.concat chunks)

let test_sketch_registry () =
  let a = Mae_obs.Sketch.create "mae_test_sketch_reg_seconds_summary" in
  let b = Mae_obs.Sketch.create "mae_test_sketch_reg_seconds_summary" in
  Alcotest.(check bool) "idempotent registration shares state" true (a == b);
  (* same lint as Metrics: names outside mae_[a-z0-9_]+ are rejected *)
  List.iter
    (fun bad ->
      match Mae_obs.Sketch.create bad with
      | _ -> Alcotest.failf "bad sketch name %S must raise" bad
      | exception Invalid_argument _ -> ())
    [ "latency"; "mae_Upper_seconds"; "mae_sp ace"; "mae-dash" ];
  (* exemplars: the largest labelled observations survive *)
  Mae_obs.Sketch.reset a;
  Mae_obs.Sketch.observe_exemplar a ~label:"r1" 0.010;
  Mae_obs.Sketch.observe_exemplar a ~label:"r2" 5.0;
  Mae_obs.Sketch.observe_exemplar a ~label:"r3" 0.020;
  let s = Mae_obs.Sketch.snapshot a in
  (match s.exemplars with
  | (v, label, _) :: _ ->
      Alcotest.(check (float 0.)) "largest exemplar first" 5.0 v;
      Alcotest.(check string) "exemplar label" "r2" label
  | [] -> Alcotest.fail "exemplars missing");
  (* the exposition hook makes sketches ride along in every dump *)
  let prom = Metrics.to_prometheus () in
  let contains needle hay =
    let n = String.length needle and m = String.length hay in
    let rec at i =
      i + n <= m && (String.equal (String.sub hay i n) needle || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool) "summary in /metrics dump" true
    (contains "mae_test_sketch_reg_seconds_summary{quantile=" prom);
  Alcotest.(check bool) "exemplar comment in dump" true
    (contains "# EXEMPLAR mae_test_sketch_reg_seconds_summary" prom)

(* Mae_obs.reset starts a pass from zero: sketches included, or a
   profiler's later passes would report the earlier passes' samples. *)
let test_reset_clears_sketches () =
  let name = "mae_test_obs_reset_seconds_summary" in
  let sk = Mae_obs.Sketch.create name in
  Mae_obs.Sketch.observe_exemplar sk ~label:"r1" 0.25;
  Mae_obs.Sketch.observe sk 0.5;
  Alcotest.(check int) "observed" 2 (Mae_obs.Sketch.snapshot sk).n;
  Mae_obs.reset ();
  let s = Mae_obs.Sketch.snapshot sk in
  Alcotest.(check int) "n after reset" 0 s.n;
  Alcotest.(check int) "exemplars after reset" 0 (List.length s.exemplars);
  let lines = String.split_on_char '\n' (Metrics.to_prometheus ()) in
  let starts prefix l =
    String.length l >= String.length prefix
    && String.equal (String.sub l 0 (String.length prefix)) prefix
  in
  Alcotest.(check (list string)) "no sample lines" []
    (List.filter
       (fun l -> starts (name ^ "{") l || starts ("# EXEMPLAR " ^ name) l)
       lines);
  Alcotest.(check bool) "count line reads 0" true
    (List.mem (name ^ "_count 0") lines)

(* --- SLO burn-rate math and the /healthz trip condition --- *)

let test_slo_burn () =
  let sk =
    Mae_obs.Slo.register
      (Mae_obs.Slo.spec ~kind:(Mae_obs.Slo.Latency 0.1) ~target:0.9
         ~min_events:20 "mae_test_slo_latency")
  in
  Mae_obs.Slo.reset sk;
  (* 10 good, 10 bad: bad fraction 0.5 against a 0.1 budget = burn 5 *)
  for _ = 1 to 10 do
    Mae_obs.Slo.record_latency sk 0.01
  done;
  for _ = 1 to 10 do
    Mae_obs.Slo.record_latency sk 0.5
  done;
  let r = Mae_obs.Slo.report sk in
  Alcotest.(check int) "good" 10 r.fast.good;
  Alcotest.(check int) "bad" 10 r.fast.bad;
  Alcotest.(check (float 1e-9)) "bad fraction" 0.5 r.fast.bad_fraction;
  Alcotest.(check (float 1e-9)) "burn = fraction / budget" 5. r.fast.burn_rate;
  Alcotest.(check bool) "min_events reached + burn >= 1 trips" false
    r.r_healthy;
  (* same traffic below min_events stays healthy *)
  Mae_obs.Slo.reset sk;
  for _ = 1 to 9 do
    Mae_obs.Slo.record_latency sk 0.5
  done;
  Alcotest.(check bool) "burning but under min_events" true
    (Mae_obs.Slo.report sk).r_healthy;
  (* all-good traffic: burn 0, healthy *)
  Mae_obs.Slo.reset sk;
  for _ = 1 to 50 do
    Mae_obs.Slo.record_latency sk 0.01
  done;
  let r = Mae_obs.Slo.report sk in
  Alcotest.(check (float 0.)) "burn 0 when clean" 0. r.fast.burn_rate;
  Alcotest.(check bool) "healthy when clean" true r.r_healthy;
  let er =
    Mae_obs.Slo.register
      (Mae_obs.Slo.spec ~kind:Mae_obs.Slo.Error_rate ~target:0.999
         "mae_test_slo_errors")
  in
  Mae_obs.Slo.reset er;
  (match Mae_obs.Slo.record_latency er 0.1 with
  | () -> Alcotest.fail "record_latency on an error-rate SLO must raise"
  | exception Invalid_argument _ -> ());
  Mae_obs.Slo.record er ~good:true;
  Mae_obs.Slo.record er ~good:false;
  let r = Mae_obs.Slo.report er in
  Alcotest.(check (float 1e-6)) "error burn" (0.5 /. 0.001) r.fast.burn_rate;
  (* registration validation *)
  (match
     Mae_obs.Slo.register
       (Mae_obs.Slo.spec ~kind:Mae_obs.Slo.Error_rate ~target:1.5
          "mae_test_slo_badtarget")
   with
  | _ -> Alcotest.fail "target outside (0,1) must raise"
  | exception Invalid_argument _ -> ());
  match
    Mae_obs.Slo.register
      (Mae_obs.Slo.spec ~kind:Mae_obs.Slo.Error_rate "not a metric name")
  with
  | _ -> Alcotest.fail "bad SLO name must raise"
  | exception Invalid_argument _ -> ()

(* --- tail-based capture: bounded retention, errored always kept --- *)

let test_capture_retention () =
  Mae_obs.Capture.configure ~slow_k:4 ~errored_cap:8 ~max_spans:16 ();
  Obs.with_enabled true @@ fun () ->
  Span.reset ();
  (* sustained load: 200 ok requests with span trees, a few errored *)
  for i = 1 to 200 do
    let since = Mae_obs.Clock.monotonic () in
    Span.with_ ~name:"req.work" (fun () -> ignore (Sys.opaque_identity i));
    let ok = i mod 50 <> 0 in
    Mae_obs.Capture.record
      ~rid:(Printf.sprintf "r%d" i)
      ~ok
      ?error:(if ok then None else Some "boom")
      ~latency:(float_of_int i *. 1e-4)
      ~since ()
  done;
  let caps = Mae_obs.Capture.captures () in
  let errored =
    List.filter (fun c -> c.Mae_obs.Capture.cap_kind = `Errored) caps
  in
  let slow =
    List.filter (fun c -> c.Mae_obs.Capture.cap_kind = `Slow) caps
  in
  (* every errored request (4 of 200) retained, none evicted at cap 8 *)
  Alcotest.(check (list string))
    "all errored requests retained, newest first"
    [ "r200"; "r150"; "r100"; "r50" ]
    (List.map (fun c -> c.Mae_obs.Capture.cap_rid) errored);
  Alcotest.(check bool)
    (Printf.sprintf "slow captures bounded (%d <= 2k)" (List.length slow))
    true
    (List.length slow <= 2 * 4);
  (* the slowest retained slow capture is the slowest ok request *)
  (match slow with
  | c :: _ ->
      Alcotest.(check string) "slowest ok request captured" "r199"
        c.Mae_obs.Capture.cap_rid
  | [] -> Alcotest.fail "no slow captures");
  Alcotest.(check bool)
    (Printf.sprintf "resident %d within bound %d"
       (Mae_obs.Capture.resident_spans ())
       (Mae_obs.Capture.max_resident_spans ()))
    true
    (Mae_obs.Capture.resident_spans () <= Mae_obs.Capture.max_resident_spans ());
  (* FIFO eviction: overflow the errored ring, oldest drop off *)
  for i = 201 to 220 do
    let since = Mae_obs.Clock.monotonic () in
    Mae_obs.Capture.record
      ~rid:(Printf.sprintf "r%d" i)
      ~ok:false ~error:"boom" ~latency:1e-4 ~since ()
  done;
  let errored =
    List.filter
      (fun c -> c.Mae_obs.Capture.cap_kind = `Errored)
      (Mae_obs.Capture.captures ())
  in
  Alcotest.(check int) "errored ring capped" 8 (List.length errored);
  Alcotest.(check string) "newest errored kept" "r220"
    (List.hd errored).Mae_obs.Capture.cap_rid;
  Mae_obs.Capture.configure ();
  Span.reset ()

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [ Alcotest.test_case "parser + escape" `Quick test_json_parser;
          json_window_prop ] );
      ( "spans",
        [
          Alcotest.test_case "recording, nesting, self time" `Quick
            test_span_recording;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_span_disabled_noop;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome export jobs:1" `Quick test_trace_seq;
          Alcotest.test_case "chrome export jobs:4" `Quick test_trace_par;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry semantics" `Quick test_metrics_registry;
          Alcotest.test_case "prometheus + json dumps" `Quick
            test_prometheus_format;
          Alcotest.test_case "counters match engine totals" `Quick
            test_metrics_match_engine;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "flame summary with zero-duration spans" `Quick
            test_flame_zero_duration;
          Alcotest.test_case "histogram at 0 / huge / negative" `Quick
            test_sketch_extremes;
        ] );
      ( "log",
        [
          Alcotest.test_case "escaping + request ids round-trip" `Quick
            test_log_escaping;
          Alcotest.test_case "levels and thresholds" `Quick test_log_levels;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic timebase" `Quick test_clock_monotonic ]
      );
      ( "sketch",
        [
          Alcotest.test_case "rank bound on adversarial streams" `Quick
            test_sketch_streams;
          Alcotest.test_case "4-domain concurrent merge" `Quick
            test_sketch_merged_domains;
          Alcotest.test_case "registry, lint, exemplars" `Quick
            test_sketch_registry;
          Alcotest.test_case "Mae_obs.reset clears sketches" `Quick
            test_reset_clears_sketches;
        ] );
      ( "slo",
        [ Alcotest.test_case "burn rates and healthy trip" `Quick test_slo_burn ]
      );
      ( "capture",
        [
          Alcotest.test_case "bounded tail retention" `Quick
            test_capture_retention;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "telemetry never changes estimates" `Quick
            test_disabled_identical;
        ] );
    ]
