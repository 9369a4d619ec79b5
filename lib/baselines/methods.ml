(* Registry adapters: the four comparison predictors of the paper's
   introduction, registered as methodologies so they run through the
   same driver/engine/serve pipeline as the paper's own estimators.

   Registration happens at this module's initialization.  OCaml links a
   library unit only when something references it, so executables that
   want the baselines selectable must call {!ensure_registered} (the
   engine, the serve daemon, the check harness and the profiler do). *)

open Mae

let ensure_registered () = ()

let square area =
  let edge = Float.sqrt area in
  Methodology.Scalar { area; width = edge; height = edge }

let _naive =
  Methodology.register ~name:"naive"
    ~doc:
      "Zero-information baseline: summed device area over a 0.7 packing \
       factor, reported as a square"
    (fun ctx circuit ->
      Ok
        (square
           (Naive.estimate ~stats:ctx.Methodology.stats circuit
              ctx.Methodology.process)))

(* CHAMP needs training pairs; the paper fit its empirical formulas on
   layout experiments.  We fit once, lazily, on the Table 1 bench
   circuits' exact full-custom estimates under the paper's nmos25
   process -- the closest thing the repo has to "numerous layout
   experiments".  Lazily, because fitting at module initialization
   would charge every process that links the baselines for it, and
   under a mutex, because forcing one [lazy] from two domains at once
   raises [CamlinternalLazy.Undefined] in the loser. *)
let champ_lock = Mutex.create ()

let champ_fit =
  lazy
    (let process = Mae_tech.Builtin.nmos25 in
     let pairs =
       List.map
         (fun (e : Mae_workload.Bench_circuits.entry) ->
           let stats = Mae_netlist.Stats.compute e.circuit process in
           let fc =
             Fullcustom.estimate ~stats ~mode:Config.Exact_areas e.circuit
               process
           in
           (stats.Mae_netlist.Stats.device_count, fc.Estimate.area))
         (Mae_workload.Bench_circuits.table1 ())
     in
     Champ.fit pairs)

let champ_model () = Mutex.protect champ_lock (fun () -> Lazy.force champ_fit)

let _champ =
  Methodology.register ~name:"champ"
    ~doc:
      "CHAMP-style power law area = a * devices^b, fit on the Table 1 bench \
       suite's exact full-custom estimates"
    (fun ctx (_ : Mae_netlist.Circuit.t) ->
      match champ_model () with
      | Error reason ->
          Error
            (Methodology.Unsupported
               { methodology = "champ"; reason = "model fit failed: " ^ reason })
      | Ok model ->
          let devices = ctx.Methodology.stats.Mae_netlist.Stats.device_count in
          if devices < 1 then
            Error
              (Methodology.Invalid_input
                 { methodology = "champ"; reason = "empty circuit" })
          else Ok (square (Champ.estimate model ~devices)))

let count_ports dir (circuit : Mae_netlist.Circuit.t) =
  Array.fold_left
    (fun acc (p : Mae_netlist.Port.t) ->
      if p.direction = dir then acc + 1 else acc)
    0 circuit.ports

let _pla =
  Methodology.register ~name:"pla"
    ~doc:
      "Two-level PLA folding of the module: AND/OR planes sized from the \
       port counts with one product term per device"
    (fun ctx circuit ->
      let spec =
        {
          Pla.inputs = Stdlib.max 1 (count_ports Mae_netlist.Port.Input circuit);
          outputs = Stdlib.max 1 (count_ports Mae_netlist.Port.Output circuit);
          product_terms =
            Stdlib.max 1 ctx.Methodology.stats.Mae_netlist.Stats.device_count;
        }
      in
      let width, height = Pla.dims spec ctx.Methodology.process in
      Ok (Methodology.Scalar { area = width *. height; width; height }))

let plest_density = 6.0

let _plest =
  Methodology.register ~name:"plest"
    ~doc:
      "PLEST-style density model (Kurdahi & Parker): cell rows plus a fixed \
       assumed 6 tracks/channel wiring density at the paper's initial row \
       count"
    (fun ctx circuit ->
      let stats = ctx.Methodology.stats in
      let rows =
        Row_select.initial_rows ~stats circuit ctx.Methodology.process
      in
      let area =
        Plest.estimate ~density:plest_density ~rows ~stats circuit
          ctx.Methodology.process
      in
      let width =
        Float.of_int stats.Mae_netlist.Stats.device_count
        *. stats.Mae_netlist.Stats.average_width /. Float.of_int rows
      in
      if width <= 0. then
        Error
          (Methodology.Estimator_failure
             { methodology = "plest"; reason = "zero row length" })
      else Ok (Methodology.Scalar { area; width; height = area /. width }))
