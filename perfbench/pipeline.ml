(* The traced replay: the estimate path re-driven from the benchmark's
   own code, one span around each call into a layer's public functions.
   The calls and their order mirror Mae.Driver.run_circuit (validate,
   expand, stats, one Methodology.run per method) and, for the serve
   workloads, the daemon's request path (decode, parse, elaborate, store
   key and lookup, estimate on a miss, store, encode). *)

module Circuit = Mae_netlist.Circuit
module M = Mae.Methodology
module Json = Mae_obs.Json

let method_names = [ "stdcell"; "fullcustom-exact"; "fullcustom-average"; "gatearray"; "naive"; "champ"; "pla"; "plest" ]

(* One module through validate -> ctx (expand + stats) -> methods. *)
let estimate ~process ~selected (c : Circuit.t) : Gold.entry * Mae.Driver.module_report option =
  let issues =
    Span.with_ "netlist.validate" (fun () -> Mae_netlist.Validate.check c process)
  in
  if List.exists Mae_netlist.Validate.is_error issues then
    (Gold.Module_error "validation failed", None)
  else begin
    let ctx, expanded =
      Span.with_ "core.ctx" (fun () ->
          let expanded =
            Span.with_ "celllib.expand" (fun () -> M.expand_for_fullcustom c process)
          in
          let stats, fc_stats =
            Span.with_ "netlist.stats" (fun () ->
                let stats = Mae_netlist.Stats.compute c process in
                ( stats,
                  match expanded with
                  | None -> stats
                  | Some e -> Mae_netlist.Stats.compute e process ))
          in
          ( {
              M.config = None;
              process;
              stats;
              fc_circuit = Option.value expanded ~default:c;
              fc_stats;
              rows_override = None;
            },
            expanded ))
    in
    let results =
      List.map
        (fun t ->
          {
            Mae.Driver.methodology = t;
            outcome = Span.with_ ("core.method." ^ M.name t) (fun () -> M.run ctx t c);
          })
        selected
    in
    let report = { Mae.Driver.circuit = c; process; issues; expanded; results } in
    (Gold.entry_of_report report, Some report)
  end

let process_of registry (c : Circuit.t) =
  match Mae_tech.Registry.find registry c.technology with
  | Some p -> p
  | None -> Util.fail "unknown technology %s" c.technology

let resolve methods =
  match M.resolve methods with
  | Ok ts -> ts
  | Error name -> Util.fail "unknown method %s" name

(* --- the serve request path, in process --- *)

(* The daemon's response document (Mae_serve.Dispatch), rebuilt field
   for field so the in-process encode serializes the same bytes' worth
   of JSON. *)
let outcome_json (o : M.outcome) =
  let d = M.dims o in
  let extra =
    match o with
    | M.Stdcell { auto; sweep } ->
        [
          ("rows", Json.Number (float_of_int auto.Mae.Estimate.rows));
          ( "sweep_rows",
            Json.Array
              (List.map
                 (fun (s : Mae.Estimate.stdcell) -> Json.Number (float_of_int s.rows))
                 sweep) );
        ]
    | M.Gatearray g ->
        [
          ("sites", Json.Number (float_of_int g.Mae.Gatearray.sites));
          ("routable", Json.Bool g.Mae.Gatearray.routable);
        ]
    | M.Fullcustom _ | M.Scalar _ -> []
  in
  Json.Object
    ([
       ("ok", Json.Bool true);
       ("kind", Json.String (M.kind o));
       ("area", Json.Number d.M.area);
       ("width", Json.Number d.M.width);
       ("height", Json.Number d.M.height);
     ]
    @ extra)

let response_json ~seq ~id ~cached (r : Mae.Driver.module_report) =
  let legacy =
    (match Mae.Driver.stdcell r with
    | Some sc ->
        [
          ("rows", Json.Number (float_of_int sc.Mae.Estimate.rows));
          ("stdcell_area", Json.Number sc.Mae.Estimate.area);
          ("stdcell_height", Json.Number sc.Mae.Estimate.height);
          ("stdcell_width", Json.Number sc.Mae.Estimate.width);
        ]
    | None -> [])
    @ (match Mae.Driver.fullcustom_exact r with
      | Some f -> [ ("fullcustom_exact_area", Json.Number f.Mae.Estimate.area) ]
      | None -> [])
    @
    match Mae.Driver.fullcustom_average r with
    | Some f -> [ ("fullcustom_average_area", Json.Number f.Mae.Estimate.area) ]
    | None -> []
  in
  let methods =
    List.map
      (fun (mr : Mae.Driver.method_result) ->
        ( M.name mr.methodology,
          match mr.outcome with
          | Ok o -> outcome_json o
          | Error e ->
              Json.Object
                [ ("ok", Json.Bool false); ("error", Json.String (M.error_to_string e)) ] ))
      r.results
  in
  Json.Object
    [
      ("seq", Json.Number (float_of_int seq));
      ("id", id);
      ("ok", Json.Bool true);
      ("cached", Json.Bool cached);
      ( "modules",
        Json.Array
          [
            Json.Object
              ([
                 ("name", Json.String r.circuit.Circuit.name);
                 ("technology", Json.String r.circuit.Circuit.technology);
               ]
              @ legacy
              @ [
                  ("methods", Json.Object methods);
                  ( "method_errors",
                    Json.Number
                      (float_of_int (List.length (Mae.Driver.method_failures r))) );
                ]);
          ] );
    ]

(* One HTTP request (the exact bytes the load generator sends) through
   the daemon's layers; returns the module's entry. *)
let serve_request ~registry ~cas ~seq bytes : Gold.entry =
  let est =
    Span.with_ "serve.protocol.decode" (fun () ->
        Mae_serve.Protocol.decode ~max_bytes:(8 * 1024 * 1024) Mae_serve.Protocol.initial
          bytes)
  in
  let framing, est =
    match est with
    | Mae_serve.Protocol.Frame
        ({ request = Mae_serve.Protocol.Estimate e; framing; _ }, _, _) ->
        (framing, e)
    | _ -> Util.fail "in-process replay: request did not decode"
  in
  let design =
    match Span.with_ "hdl.parse" (fun () -> Mae_hdl.Parser.parse_string est.Mae_serve.Protocol.hdl) with
    | Ok d -> d
    | Error _ -> Util.fail "in-process replay: parse failed"
  in
  let c =
    match
      Span.with_ "hdl.elaborate" (fun () -> Mae_hdl.Elaborate.design_to_circuits design)
    with
    | Ok [ c ] -> c
    | Ok _ | Error _ -> Util.fail "in-process replay: elaboration failed"
  in
  let process = process_of registry c in
  let selected = resolve (Option.value est.Mae_serve.Protocol.methods ~default:[ "default" ]) in
  let names = List.map M.name selected in
  let key = Span.with_ "db.key" (fun () -> Mae_db.Cas.key ~methods:names ~process c) in
  let found =
    Span.with_named ~name:"db.find_miss"
      (function Some _ -> "db.find_hit" | None -> "db.find_miss")
      (fun () -> Mae_db.Cas.find cas ~key ~circuit:c ~process)
  in
  let entry, report =
    match found with
    | Some r -> (Gold.entry_of_report r, Some r)
    | None ->
        let entry, report = estimate ~process ~selected c in
        Option.iter
          (fun r -> Span.with_ "db.store" (fun () -> Mae_db.Cas.store cas ~key r))
          report;
        (entry, report)
  in
  let doc =
    match report with
    | Some r ->
        response_json ~seq ~id:est.Mae_serve.Protocol.id ~cached:(Option.is_some found) r
    | None -> Json.Object [ ("ok", Json.Bool false) ]
  in
  ignore
    (Span.with_ "serve.protocol.encode" (fun () ->
         Mae_serve.Protocol.encode framing (Mae_serve.Protocol.json_response doc)));
  entry

(* --- per-layer metrics from the recorded spans --- *)

let timed =
  [
    "hdl.parse"; "hdl.elaborate"; "netlist.validate"; "netlist.stats";
    "celllib.expand"; "core.ctx"; "db.key"; "db.find_hit"; "db.find_miss";
    "db.store"; "serve.protocol.decode"; "serve.protocol.encode";
  ]

(* Median and p99 (microseconds) of every timed call, and the median of
   each method's run; 0 for a layer the workload never calls. *)
let span_metrics spans =
  let us xs q = if Array.length xs = 0 then 0. else Util.quantile xs q *. 1e6 in
  List.concat_map
    (fun metric ->
      let d = Span.durations_of spans metric in
      [ (metric ^ "_us", us d 0.5); (metric ^ "_p99_us", us d 0.99) ])
    timed
  @ List.map
      (fun m -> ("core.method_us." ^ m, us (Span.durations_of spans ("core.method." ^ m)) 0.5))
      method_names

let method_errors entries =
  List.map
    (fun m ->
      ( "core.method_errors." ^ m,
        float_of_int
          (List.length
             (List.filter
                (function
                  | Gold.Report slots -> (
                      match List.assoc_opt m slots with
                      | Some (Gold.Err _) -> true
                      | _ -> false)
                  | Gold.Module_error _ -> false)
                entries)) ))
    method_names

(* The in-process per-op cost of the layers, from medians: each direct
   child of an op contributes its median times how often it occurs per
   op.  serve.residual_us is the daemon's median latency minus this. *)
let layer_medians_per_op spans =
  let ops = List.length (List.filter (fun s -> s.Span.parent < 0) spans) in
  let roots = Hashtbl.create 1024 in
  List.iter (fun s -> if s.Span.parent < 0 then Hashtbl.replace roots s.Span.id ()) spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if Hashtbl.mem roots s.Span.parent then
        Hashtbl.replace by_name s.Span.name
          ((s.Span.stop -. s.Span.start)
          :: Option.value (Hashtbl.find_opt by_name s.Span.name) ~default:[]))
    spans;
  Hashtbl.fold
    (fun _ ds acc ->
      let d = Array.of_list ds in
      acc +. (Util.median d *. float_of_int (Array.length d) /. float_of_int (max 1 ops)))
    by_name 0.
