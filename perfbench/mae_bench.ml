(* The repository benchmark, one workload per invocation:

     mae_bench --workload batch-flat|serve-replay|serve-fresh --seed N
       --seconds S --trace 0|1 --mae PATH/TO/mae_cli.exe --out DIR

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics (the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1).  The full run
   record goes to DIR/<workload>-seed<N>-trace<T>.json; a traced run
   also writes its spans next to it.  See NOTES.md. *)

module Json = Mae_obs.Json

let () =
  (* a signalled run still stops the daemon it forked (at_exit) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let mae = ref "" and out = ref "perfbench/results" and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME batch-flat, serve-replay or serve-fresh");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long the run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--mae", Arg.Set_string mae, "PATH the mae_cli executable (serve workloads)");
      ("--out", Arg.Set_string out, "DIR where run records go");
      ("--commit", Arg.Set_string commit, "ID the source revision, for the run record");
    ]
    (fun a -> Util.fail "unexpected argument %s" a)
    "mae_bench --workload NAME --seed N --seconds S --trace 0|1";
  let trace =
    match !trace with 0 -> false | 1 -> true | t -> Util.fail "--trace %d: want 0 or 1" t
  in
  if !seconds <= 0. then Util.fail "--seconds must be positive";
  let name = !workload and seed = !seed and seconds = !seconds in
  Mae_baselines.Methods.ensure_registered ();
  if Mae.Methodology.names () <> Pipeline.method_names then
    Util.fail "the registered methods (%s) are not the ones the per-layer metrics name"
      (String.concat ", " (Mae.Methodology.names ()));
  let nproc = Util.nproc () in
  let recommended = Domain.recommended_domain_count () in
  let jobs = max 1 (min nproc recommended) in
  Util.mkdir_p !out;
  let stem = Printf.sprintf "%s-seed%d-trace%d" name seed (Bool.to_int trace) in
  let dir = Filename.concat !out (Printf.sprintf "tmp-%s-%d" stem (Unix.getpid ())) in
  let serve kind =
    if not (Sys.file_exists !mae) then Util.fail "--mae %S: no such executable" !mae;
    Util.mkdir_p dir;
    Fun.protect
      ~finally:(fun () -> Util.remove_tree dir)
      (fun () -> Serve.run kind ~seed ~seconds ~trace ~mae:!mae ~dir)
  in
  let started = Util.now () and steal0 = Util.steal_ticks () in
  let r =
    match name with
    | "batch-flat" -> Batch.run ~seed ~seconds ~trace ~jobs
    | "serve-replay" -> serve Serve.Replay
    | "serve-fresh" -> serve Serve.Fresh
    | w -> Util.fail "unknown workload %S" w
  in
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then Util.fail "metric %s is %f" n v)
    r.Util.metrics;
  let metrics_json =
    Json.Object
      (List.map
         (fun (n, v, u) -> (n, Json.Object [ ("value", Json.Number v); ("unit", Json.String u) ]))
         r.Util.metrics)
  in
  let num i = Json.Number (float_of_int i) in
  let record =
    Json.Object
      ([
         ("workload", Json.String name);
         ("seed", num seed);
         ("seconds", Json.Number seconds);
         ("trace", Json.Bool trace);
         ("commit", Json.String !commit);
         ("nproc", num nproc);
         ("recommended_domains", num recommended);
         ("ocaml_version", Json.String Sys.ocaml_version);
         ("run_wall_s", Json.Number (Util.now () -. started));
         ("host_steal_share", Json.Number (Util.steal_share steal0 (Util.steal_ticks ())));
         ("correct", Json.Bool r.Util.correct);
         ("attempted", num r.Util.attempted);
         ("failed", num r.Util.failed);
         ("metrics", metrics_json);
       ]
      @ r.Util.record)
  in
  Util.write_file (Filename.concat !out (stem ^ ".json")) (Json.encode record ^ "\n");
  if trace then Util.write_file (Filename.concat !out (stem ^ "-spans.json")) (Span.to_json (Span.spans ()));
  Printf.printf "%s\n%!"
    (Json.encode
       (Json.Object
          [
            ("correct", Json.Bool r.Util.correct);
            ("attempted", num r.Util.attempted);
            ("failed", num r.Util.failed);
            ("metrics", metrics_json);
          ]))
