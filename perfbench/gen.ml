(* Seeded input generation.  Everything the program under test sees is
   built here from the run's --seed; the same seed gives the same
   circuits, the same HDL text and the same request order. *)

module Circuit = Mae_netlist.Circuit
module G = Mae_workload.Generators
module Rc = Mae_workload.Random_circuit
module Rng = Mae_prob.Rng

let rename name (c : Circuit.t) =
  Circuit.make ~name ~technology:c.technology
    ~devices:(Array.to_list c.devices) ~nets:(Array.to_list c.nets)
    ~ports:(Array.to_list c.ports)

let random_gates ~rng ~name ~devices ~locality =
  Rc.generate ~name ~rng
    {
      Rc.default_params with
      devices;
      primary_inputs = max 3 (min 24 (devices / 8));
      primary_outputs = max 2 (min 24 (devices / 10));
      locality;
    }

let rent ~rng ~devices =
  let clusters = 2 + Rng.int rng 5 in
  Mae_workload.Rent.generate ~rng
    {
      Mae_workload.Rent.default_params with
      clusters;
      cluster_size = max 8 (devices / clusters);
      rent_p = 0.5 +. Rng.float rng 0.25;
    }

(* Instance [family] (0-5) of the structural generators, of roughly
   [devices] gate-level cells; [None] when the (family, size) pair was
   already used, so every module of a batch stays distinct. *)
let structural ~used ~family ~devices =
  let clamp lo hi v = max lo (min hi v) in
  let name, size, make =
    match family mod 6 with
    | 0 -> ("counter", clamp 2 64 (devices / 5), G.counter ?technology:None)
    | 1 -> ("adder", clamp 1 96 (devices / 5), G.ripple_adder ?technology:None)
    | 2 -> ("parity", clamp 2 200 (devices / 3), G.parity ?technology:None)
    | 3 -> ("alu", clamp 1 48 (devices / 12), G.alu ?technology:None)
    | 4 -> ("shift", clamp 1 400 devices, G.shift_register ?technology:None)
    | _ ->
        ( "multiplier",
          clamp 2 12 (int_of_float (sqrt (float_of_int devices /. 6.))),
          G.multiplier ?technology:None )
  in
  if Hashtbl.mem used (name, size) then None
  else begin
    Hashtbl.add used (name, size) ();
    Some (make size)
  end

(* The van der Corput sequence (base 2): a low-discrepancy walk over
   [0, 1), so any run of consecutive indices covers the range evenly. *)
let vdc i =
  let rec go i f acc =
    if i = 0 then acc else go (i lsr 1) (f /. 2.) (if i land 1 = 1 then acc +. f else acc)
  in
  go i 0.5 0.

(* Log-uniform sizes, stratified: module [i] of [n] gets its own slice of
   the size range (shuffled by seed), so two seeds give batches of the
   same size profile and different structure. *)
let stratified_sizes ~rng ~n ~lo ~hi =
  let slots = Array.init n (fun i -> i) in
  Rng.shuffle rng slots;
  Array.map
    (fun slot ->
      let u = (float_of_int slot +. Rng.uniform rng) /. float_of_int n in
      int_of_float (lo *. ((hi /. lo) ** u)))
    slots

(* The largest net degree of a module: the paper's D. *)
let max_degree c =
  let m = ref 0 in
  for i = 0 to Circuit.net_count c - 1 do
    m := max !m (Circuit.degree c i)
  done;
  !m

(* The gatearray Paper-model row-span kernel fails (negative weight) on
   nets of this degree and more once the array has as many rows; see
   NOTES.md, finding 2.  batch-flat's timed modules stay below it. *)
let fanout_limit = 35

(* batch-flat: [n] distinct transistor-level modules of about 100 to
   3000 transistors, flattened here, outside any timed region.  The
   generator class of module [i] is fixed by [i] and sizes are
   stratified within each class, so every seed gives the same mix of
   classes and sizes, with different structure.

   Returns the batch and the probe: the modules the batch left out
   because a net reaches [fanout_limit] devices (in practice the clock
   of wide counters and shift registers and the operand fan-out of wide
   ALUs).  Each one's slot in the batch gets a random module of the
   same size instead. *)
let batch_flat ~seed ~n =
  let rng = Rng.create ~seed in
  let used = Hashtbl.create 64 in
  let class_of i =
    match i mod 10 with 0 | 1 | 2 | 3 -> 0 | 4 | 5 | 6 -> 1 | 7 | 8 -> 2 | _ -> 3
  in
  let transistors = Array.make n 0 in
  for cls = 0 to 3 do
    let members = List.filter (fun i -> class_of i = cls) (List.init n Fun.id) in
    let sizes = stratified_sizes ~rng ~n:(List.length members) ~lo:100. ~hi:3000. in
    List.iteri (fun k i -> transistors.(i) <- sizes.(k)) members
  done;
  let probe = ref [] in
  let batch =
    List.init n (fun i ->
        (* gate-level cells of the standard mix flatten to ~5 transistors each *)
        let devices = max 8 (transistors.(i) / 5) in
        let name = Printf.sprintf "bf%d" i in
        let flat c = rename name (Mae_workload.Bench_circuits.flatten c) in
        let random ~locality = flat (random_gates ~rng ~name ~devices ~locality) in
        (* [c] when it is below the fan-out limit; else [c] goes to the
           probe and random modules are drawn until one is *)
        let rec fit ?(tries = 20) c =
          if max_degree c < fanout_limit then c
          else begin
            probe := c :: !probe;
            if tries = 0 then
              Util.fail "batch-flat: no module of %d cells below the fan-out limit" devices;
            fit ~tries:(tries - 1) (random ~locality:0)
          end
        in
        match class_of i with
        | 0 -> fit (random ~locality:(4 + Rng.int rng 28))
        | 1 -> fit (flat (rent ~rng ~devices))
        | 2 -> begin
            (* a family's sizes come in coarse steps: keep the instance
               only when it lands near the size asked for *)
            match structural ~used ~family:(i / 10 * 2 + (i mod 10) - 7) ~devices with
            | Some c when Circuit.device_count c <= 3 * devices / 2 -> fit (flat c)
            | Some _ | None -> fit (random ~locality:0)
          end
        | _ -> fit (random ~locality:0))
  in
  (batch, List.rev !probe)

let hdl_of c = Mae_hdl.Printer.to_string c

(* serve-replay: a pool of [n] small gate-level modules (15-120 cells),
   module [r] being the one of Zipf rank [r].  Sizes follow the rank
   through the van der Corput sequence, so the hot modules have the
   same sizes under every seed; a fifth come from the structural
   families, the rest are random logic. *)
let replay_pool ~seed ~n =
  let rng = Rng.create ~seed in
  let used = Hashtbl.create 64 in
  Array.init n (fun r ->
      let name = Printf.sprintf "rp%d" r in
      let devices = 15 + int_of_float (105. *. vdc (r + 1)) in
      let random () = random_gates ~rng ~name ~devices ~locality:(4 + Rng.int rng 20) in
      let c =
        if r mod 5 = 0 then
          match structural ~used ~family:(r / 5) ~devices with
          | Some c when Circuit.device_count c <= 120 -> rename name c
          | Some _ | None -> random ()
        else random ()
      in
      hdl_of c)

(* Zipf(1.0) ranks over a pool of [n]: rank r has weight 1/(r+1). *)
let zipf_sampler ~rng ~n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = Rng.uniform rng *. total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* serve-fresh: request [i] of the run is a never-seen random module of
   60-400 cells, derived from (seed, i) alone so the stream can be made
   phase by phase and still be one sequence.  Sizes follow [i] through
   the van der Corput sequence; in each block of four requests one, at
   a seeded position, asks for every method. *)
let fresh_module ~seed i =
  let rng = Rng.create ~seed:((seed * 1_000_003) + i) in
  let devices = 60 + int_of_float (340. *. vdc (i + 1)) in
  let c =
    random_gates ~rng ~name:(Printf.sprintf "fr%d" i) ~devices ~locality:(4 + Rng.int rng 20)
  in
  let all_at = Rng.int (Rng.create ~seed:((seed * 7919) + (i / 4))) 4 in
  (c, i mod 4 = all_at)
