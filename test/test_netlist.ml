open Mae_netlist
module S = Mae_test_support.Support

let test_device () =
  let d = Device.make ~index:0 ~name:"u1" ~kind:"inv" ~pins:[| 2; 1; 2 |] in
  Alcotest.(check (list int)) "distinct nets" [ 1; 2 ] (Device.nets d);
  Alcotest.(check bool) "connects" true (Device.connects_to d 2);
  Alcotest.(check bool) "not connects" false (Device.connects_to d 0);
  S.raises_invalid (fun () -> Device.make ~index:(-1) ~name:"x" ~kind:"k" ~pins:[||]);
  S.raises_invalid (fun () -> Device.make ~index:0 ~name:"" ~kind:"k" ~pins:[||])

let test_port () =
  Alcotest.(check bool) "in" true (Port.direction_of_string "in" = Some Port.Input);
  Alcotest.(check bool) "out" true (Port.direction_of_string "out" = Some Port.Output);
  Alcotest.(check bool) "inout" true (Port.direction_of_string "inout" = Some Port.Inout);
  Alcotest.(check bool) "bad" true (Port.direction_of_string "up" = None);
  List.iter
    (fun d ->
      Alcotest.(check bool) "round trip" true
        (Port.direction_of_string (Port.direction_to_string d) = Some d))
    [ Port.Input; Port.Output; Port.Inout ]

let test_circuit_validation () =
  let net i name = Net.make ~index:i ~name in
  (* pin referencing a nonexistent net *)
  S.raises_invalid (fun () ->
      Circuit.make ~name:"c" ~technology:"nmos25"
        ~devices:[ Device.make ~index:0 ~name:"u" ~kind:"inv" ~pins:[| 5 |] ]
        ~nets:[ net 0 "a" ] ~ports:[]);
  (* non-dense device indices *)
  S.raises_invalid (fun () ->
      Circuit.make ~name:"c" ~technology:"t"
        ~devices:[ Device.make ~index:1 ~name:"u" ~kind:"inv" ~pins:[||] ]
        ~nets:[] ~ports:[]);
  (* duplicate net names *)
  S.raises_invalid (fun () ->
      Circuit.make ~name:"c" ~technology:"t" ~devices:[]
        ~nets:[ net 0 "a"; net 1 "a" ] ~ports:[]);
  (* port referencing bad net *)
  S.raises_invalid (fun () ->
      Circuit.make ~name:"c" ~technology:"t" ~devices:[] ~nets:[]
        ~ports:[ Port.make ~name:"p" ~direction:Port.Input ~net:0 ])

(* The Hashtbl-and-sort [Circuit.make] the current one replaced, kept
   as the reference: same checks, same order, same messages, same
   [net_devices]. *)
let reference_make ~name ~devices ~nets ~ports =
  if String.length name = 0 then invalid_arg "Circuit.make: empty name";
  let devices = Array.of_list devices in
  let nets = Array.of_list nets in
  let ports = Array.of_list ports in
  let check_dense_indices what get arr =
    Array.iteri
      (fun i x ->
        if get x <> i then
          invalid_arg
            (Printf.sprintf "Circuit.make: %s index %d at position %d" what
               (get x) i))
      arr
  in
  let check_unique_names what get arr =
    let seen = Hashtbl.create 64 in
    Array.iter
      (fun x ->
        let n = get x in
        if Hashtbl.mem seen n then
          invalid_arg (Printf.sprintf "Circuit.make: duplicate %s name %s" what n);
        Hashtbl.add seen n ())
      arr
  in
  check_dense_indices "device" (fun (d : Device.t) -> d.index) devices;
  check_dense_indices "net" (fun (n : Net.t) -> n.index) nets;
  check_unique_names "device" (fun (d : Device.t) -> d.name) devices;
  check_unique_names "net" (fun (n : Net.t) -> n.name) nets;
  check_unique_names "port" (fun (p : Port.t) -> p.name) ports;
  let net_count = Array.length nets in
  let in_range what n =
    if n < 0 || n >= net_count then
      invalid_arg (Printf.sprintf "Circuit.make: %s references net %d" what n)
  in
  Array.iter
    (fun (d : Device.t) -> Array.iter (in_range ("device " ^ d.name)) d.pins)
    devices;
  Array.iter (fun (p : Port.t) -> in_range ("port " ^ p.name) p.net) ports;
  let members = Array.make net_count [] in
  Array.iter
    (fun (d : Device.t) ->
      List.iter (fun n -> members.(n) <- d.index :: members.(n)) (Device.nets d))
    devices;
  Array.map (fun ds -> Array.of_list (List.sort Int.compare ds)) members

(* Mostly well-formed inputs, with a small name alphabet (so duplicate
   names happen), occasional index slips and pins out of range. *)
let circuit_parts =
  let open QCheck2.Gen in
  let name = string_size ~gen:(char_range 'a' 'h') (1 -- 2) in
  let slip i = frequency [ (40, return i); (1, int_range (-1) (i + 1)) ] in
  let* net_count = 0 -- 8 in
  let* nets =
    flatten_l
      (List.init net_count (fun i ->
           map2 (fun index name -> { Net.index; name }) (slip i) name))
  in
  let pin =
    frequency
      [ (40, if net_count = 0 then return 0 else int_bound (net_count - 1));
        (1, oneofl [ -1; net_count ]) ]
  in
  let* device_count = 0 -- 8 in
  let* devices =
    flatten_l
      (List.init device_count (fun i ->
           map3
             (fun index name pins -> { Device.index; name; kind = "inv"; pins })
             (slip i) name
             (array_size (0 -- 4) pin)))
  in
  let* ports =
    list_size (0 -- 3)
      (map2 (fun name net -> { Port.name; direction = Port.Input; net }) name pin)
  in
  return (devices, nets, ports)

let circuit_make_prop =
  S.qtest ~count:1000 "make matches the reference: errors and net_devices"
    circuit_parts (fun (devices, nets, ports) ->
      let outcome f =
        match f () with
        | v -> Ok v
        | exception Invalid_argument msg -> Error msg
      in
      outcome (fun () ->
          (Circuit.make ~name:"c" ~technology:"t" ~devices ~nets ~ports)
            .net_devices)
      = outcome (fun () -> reference_make ~name:"c" ~devices ~nets ~ports))

(* A device's pin list comes straight from request HDL, with no bound on
   its length: construction must stay near-linear in the pins.  One
   device on 100k distinct nets, then one on a single net through 100k
   pins.  A per-pin scan of the earlier pins is quadratic: over 10 s. *)
let test_circuit_wide_device () =
  let pins = 100_000 in
  let t0 = Unix.gettimeofday () in
  let b = Builder.create ~name:"wide" ~technology:"t" in
  ignore
    (Builder.add_device b ~name:"u" ~kind:"inv"
       ~nets:(List.init pins (fun i -> "n" ^ string_of_int i)));
  let wide = Builder.build b in
  let nets = List.init pins (fun index -> Net.make ~index ~name:(string_of_int index)) in
  let same =
    Circuit.make ~name:"same" ~technology:"t"
      ~devices:[ Device.make ~index:0 ~name:"u" ~kind:"inv" ~pins:(Array.make pins 7) ]
      ~nets ~ports:[]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "wide: every net holds the device" pins
    (Array.fold_left (fun acc ds -> acc + Array.length ds) 0 wide.net_devices);
  Alcotest.(check bool) "same: one member" true
    (Circuit.devices_on_net same 7 = [| 0 |] && Circuit.degree same 8 = 0);
  if elapsed > 2.0 then
    Alcotest.failf "two 100k-pin devices took %.2f s to build (bound 2 s)" elapsed

let test_circuit_connectivity () =
  let c = S.tiny () in
  Alcotest.(check int) "devices" 2 (Circuit.device_count c);
  Alcotest.(check int) "nets" 3 (Circuit.net_count c);
  Alcotest.(check int) "ports" 2 (Circuit.port_count c);
  let m = Option.get (Circuit.find_net c "m") in
  Alcotest.(check int) "m degree" 2 (Circuit.degree c m.Net.index);
  Alcotest.(check bool) "m devices" true
    (Circuit.devices_on_net c m.Net.index = [| 0; 1 |]);
  let a = Option.get (Circuit.find_net c "a") in
  Alcotest.(check int) "a degree" 1 (Circuit.degree c a.Net.index);
  Alcotest.(check bool) "a is port net" true (Circuit.is_port_net c a.Net.index);
  Alcotest.(check bool) "m not port net" false (Circuit.is_port_net c m.Net.index);
  let i1 = Option.get (Circuit.find_device c "i1") in
  Alcotest.(check (list int)) "i1 nets"
    [ a.Net.index; m.Net.index ]
    (List.sort Int.compare (Circuit.nets_of_device c i1.Device.index));
  S.raises_invalid (fun () -> ignore (Circuit.degree c 99))

let test_builder_net_reuse () =
  let b = Builder.create ~name:"x" ~technology:"t" in
  let n1 = Builder.net b "w" in
  let n2 = Builder.net b "w" in
  Alcotest.(check int) "same net" n1 n2;
  ignore (Builder.add_device b ~name:"d1" ~kind:"inv" ~nets:[ "w"; "w2" ]);
  S.raises_invalid (fun () ->
      ignore (Builder.add_device b ~name:"d1" ~kind:"inv" ~nets:[ "w" ]));
  Builder.add_port b ~name:"p" ~direction:Port.Input ~net:"w";
  S.raises_invalid (fun () ->
      Builder.add_port b ~name:"p" ~direction:Port.Output ~net:"w2");
  let c = Builder.build b in
  Alcotest.(check int) "nets created on demand" 2 (Circuit.net_count c)

(* Stats: the paper's parameters on a known circuit. *)

let test_stats_equation_one () =
  (* full adder: 2 xor2 (24L) + 3 nand2 (12L); W_avg = (2*24+3*12)/5 *)
  let stats = Stats.compute S.full_adder S.nmos in
  Alcotest.(check int) "N" 5 stats.device_count;
  Alcotest.(check int) "H" 8 stats.net_count;
  Alcotest.(check int) "ports" 5 stats.port_count;
  S.check_float "W_avg (equation 1)" ((2. *. 24.) +. (3. *. 12.) |> fun t -> t /. 5.)
    stats.average_width;
  S.check_float "h_avg" 40. stats.average_height;
  S.check_float "cell area" (((2. *. 24.) +. (3. *. 12.)) *. 40.)
    stats.total_device_area;
  (* width classes: 3 devices of 12L, 2 of 24L *)
  Alcotest.(check bool) "classes" true
    (stats.width_classes = [ (12., 3); (24., 2) ])

let test_stats_degree_histogram () =
  let stats = Stats.compute S.full_adder S.nmos in
  (* nets: a(2: x1,g1), b(2), cin(2: x2,g2), p(3: x1,x2,g2), s(1),
     g(2), h(2), cout(1) -> y_1=2, y_2=5, y_3=1 *)
  Alcotest.(check bool) "histogram" true
    (stats.degree_histogram = [ (1, 2); (2, 5); (3, 1) ]);
  Alcotest.(check int) "max degree" 3 stats.max_degree

let test_stats_unknown_kind () =
  let b = Builder.create ~name:"bad" ~technology:"nmos25" in
  ignore (Builder.add_device b ~name:"u" ~kind:"warpcore" ~nets:[ "x" ]);
  let c = Builder.build b in
  Alcotest.check_raises "unknown kind" (Stats.Unknown_kind "warpcore")
    (fun () -> ignore (Stats.compute c S.nmos))

let test_validate () =
  let b = Builder.create ~name:"v" ~technology:"nmos25" in
  ignore (Builder.add_device b ~name:"u1" ~kind:"inv" ~nets:[ "a"; "b" ]);
  ignore (Builder.add_device b ~name:"u2" ~kind:"mystery" ~nets:[ "b"; "c" ]);
  ignore (Builder.net b "orphan");
  let c = Builder.build b in
  let issues = Validate.check c S.nmos in
  let has pred = List.exists pred issues in
  Alcotest.(check bool) "unknown kind" true
    (has (function
      | Validate.Unknown_device_kind { kind = "mystery"; _ } -> true
      | _ -> false));
  Alcotest.(check bool) "dangling" true
    (has (function Validate.Dangling_net { net = "orphan" } -> true | _ -> false));
  Alcotest.(check bool) "single pin a" true
    (has (function Validate.Single_pin_net { net = "a" } -> true | _ -> false));
  Alcotest.(check bool) "no ports" true
    (has (function Validate.No_ports -> true | _ -> false));
  (* errors sort first *)
  begin
    match issues with
    | first :: _ -> Alcotest.(check bool) "errors first" true (Validate.is_error first)
    | [] -> Alcotest.fail "expected issues"
  end;
  let empty = Builder.build (Builder.create ~name:"e" ~technology:"nmos25") in
  Alcotest.(check bool) "no devices" true
    (List.exists
       (function Validate.No_devices -> true | _ -> false)
       (Validate.check empty S.nmos))

let test_validate_clean_circuit () =
  let issues = Validate.check S.full_adder S.nmos in
  Alcotest.(check bool) "no errors" true
    (not (List.exists Validate.is_error issues))

(* Properties *)

let props =
  let open QCheck2.Gen in
  let circuit_gen =
    map
      (fun (seed, devices) ->
        Mae_workload.Random_circuit.generate ~rng:(S.rng seed)
          {
            Mae_workload.Random_circuit.default_params with
            devices;
            primary_outputs = Stdlib.min 8 devices;
          })
      (pair int (int_range 1 80))
  in
  [
    S.qtest "sum of degrees = sum of distinct device-net incidences"
      circuit_gen
      (fun c ->
        let by_nets = ref 0 in
        for n = 0 to Circuit.net_count c - 1 do
          by_nets := !by_nets + Circuit.degree c n
        done;
        let by_devices = ref 0 in
        for d = 0 to Circuit.device_count c - 1 do
          by_devices := !by_devices + List.length (Circuit.nets_of_device c d)
        done;
        !by_nets = !by_devices);
    S.qtest "histogram counts all connected nets" circuit_gen (fun c ->
        let stats = Stats.compute c S.nmos in
        let histogram_total =
          List.fold_left (fun acc (_, y) -> acc + y) 0 stats.degree_histogram
        in
        let connected = ref 0 in
        for n = 0 to Circuit.net_count c - 1 do
          if Circuit.degree c n >= 1 then incr connected
        done;
        histogram_total = !connected);
    S.qtest "average width within min/max class" circuit_gen (fun c ->
        let stats = Stats.compute c S.nmos in
        match stats.width_classes with
        | [] -> true
        | (first, _) :: _ ->
            let last, _ = List.nth stats.width_classes
                (List.length stats.width_classes - 1) in
            stats.average_width >= first -. 1e-9
            && stats.average_width <= last +. 1e-9);
  ]

(* --- canonicalization: the estimate store's keying property --- *)

(* Rebuild [c] with nets, devices and ports entered in a shuffled order:
   structurally identical, construction-order different. *)
let rebuild_permuted ~rng (c : Circuit.t) =
  let b = Builder.create ~name:c.name ~technology:c.technology in
  let shuffled a =
    let a = Array.copy a in
    Mae_prob.Rng.shuffle rng a;
    a
  in
  Array.iter
    (fun (n : Net.t) -> ignore (Builder.net b n.name))
    (shuffled c.nets);
  Array.iter
    (fun (d : Device.t) ->
      ignore
        (Builder.add_device b ~name:d.name ~kind:d.kind
           ~nets:
             (Array.to_list (Array.map (fun i -> c.nets.(i).Net.name) d.pins))))
    (shuffled c.devices);
  Array.iter
    (fun (p : Port.t) ->
      Builder.add_port b ~name:p.name ~direction:p.direction
        ~net:c.nets.(p.net).Net.name)
    (shuffled c.ports);
  Builder.build b

let random_circuit seed =
  Mae_workload.Random_circuit.generate
    ~name:(Printf.sprintf "canon%d" seed)
    ~rng:(S.rng seed)
    { Mae_workload.Random_circuit.default_params with devices = 30 }

let canonical_props =
  let open QCheck2.Gen in
  [
    S.qtest ~count:100 "construction order does not change the digest"
      (pair int int)
      (fun (seed, perm_seed) ->
        let c = random_circuit (abs seed mod 1000) in
        let c' = rebuild_permuted ~rng:(S.rng perm_seed) c in
        String.equal (Canonical.digest c) (Canonical.digest c'));
    S.qtest ~count:100 "structural mutations change the digest" (pair int int)
      (fun (seed, which) ->
        let c = random_circuit (abs seed mod 1000) in
        let d = Canonical.digest c in
        let mutated =
          match abs which mod 4 with
          | 0 -> Mae_workload.Mutate.add_device c ~kind:"inv" ~nets:[ "n0" ]
          | 1 ->
              Mae_workload.Mutate.drop_device c
                ~index:(abs which mod Circuit.device_count c)
          | 2 -> Mae_workload.Mutate.duplicate c
          | _ ->
              Mae_workload.Mutate.widen_net c
                ~net:c.nets.(abs seed mod Circuit.net_count c).Net.name
                ~extra:1 ~kind:"inv"
        in
        not (String.equal d (Canonical.digest mutated)));
  ]

(* The Printf-based canonical renderer the store's keys were first
   defined with, kept as the byte-for-byte reference. *)
let printf_canonical (c : Circuit.t) =
  let add_quoted buf s = Buffer.add_string buf (Printf.sprintf "%S" s) in
  let add_line buf fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  let buf = Buffer.create 1024 in
  add_line buf "mae-canonical 1";
  add_line buf "circuit %S technology %S" c.name c.technology;
  let net_name i = (c.nets.(i) : Net.t).name in
  let devices =
    Array.to_list c.devices
    |> List.sort (fun (a : Device.t) (b : Device.t) ->
           String.compare a.name b.name)
  in
  List.iter
    (fun (d : Device.t) ->
      Buffer.add_string buf "device ";
      add_quoted buf d.name;
      Buffer.add_string buf " kind ";
      add_quoted buf d.kind;
      Buffer.add_string buf " pins";
      Array.iter
        (fun n ->
          Buffer.add_char buf ' ';
          add_quoted buf (net_name n))
        d.pins;
      Buffer.add_char buf '\n')
    devices;
  let nets =
    Array.to_list c.nets
    |> List.map (fun (n : Net.t) -> n.name)
    |> List.sort String.compare
  in
  List.iter (fun n -> add_line buf "net %S" n) nets;
  let ports =
    Array.to_list c.ports
    |> List.sort (fun (a : Port.t) (b : Port.t) -> String.compare a.name b.name)
  in
  List.iter
    (fun (p : Port.t) ->
      add_line buf "port %S %s %S" p.name
        (Port.direction_to_string p.direction)
        (net_name p.net))
    ports;
  Buffer.contents buf

(* Names drawn from the bytes escaping treats specially: quotes,
   backslashes, newlines and other control bytes, DEL and bytes of
   0x80 and above, mixed with plain letters. *)
let hostile_name =
  let open QCheck2.Gen in
  let byte =
    frequency
      [ (3, char_range 'a' 'e');
        (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\001'; '\x7f'; ' ' ]);
        (1, map Char.chr (int_range 0x80 0xff)) ]
  in
  string_size ~gen:byte (1 -- 6)

let hostile_circuit =
  let open QCheck2.Gen in
  let* name = hostile_name and* technology = hostile_name in
  let* nets = list_size (1 -- 12) hostile_name in
  let nets = Array.of_list nets in
  let pin = map (fun i -> nets.(i)) (int_bound (Array.length nets - 1)) in
  let* devices =
    list_size (0 -- 12)
      (triple hostile_name hostile_name (list_size (1 -- 4) pin))
  in
  let* ports =
    list_size (0 -- 4)
      (triple hostile_name (oneofl [ Port.Input; Port.Output; Port.Inout ]) pin)
  in
  let b = Builder.create ~name ~technology in
  (* a position suffix keeps instance and port names unique *)
  List.iteri
    (fun i (n, kind, pins) ->
      ignore
        (Builder.add_device b ~name:(n ^ string_of_int i) ~kind ~nets:pins))
    devices;
  List.iteri
    (fun i (n, direction, net) ->
      Builder.add_port b ~name:(n ^ string_of_int i) ~direction ~net)
    ports;
  Array.iter (fun n -> ignore (Builder.net b n)) nets;
  return (Builder.build b)

let canonical_bytes_prop =
  S.qtest ~count:300 "canonical bytes match the Printf reference"
    hostile_circuit (fun c ->
      String.equal (Canonical.to_string c) (printf_canonical c))

let test_canonical_is_structural () =
  (* two independently built but identical tiny circuits *)
  let a = S.tiny () and b = S.tiny () in
  Alcotest.(check string) "same structure, same digest" (Canonical.digest a)
    (Canonical.digest b);
  (* entering nets in the opposite order changes nothing *)
  let b2 = Builder.create ~name:"tiny" ~technology:"nmos25" in
  ignore (Builder.net b2 "y");
  ignore (Builder.net b2 "m");
  ignore (Builder.net b2 "a");
  ignore (Builder.add_device b2 ~name:"i2" ~kind:"inv" ~nets:[ "m"; "y" ]);
  ignore (Builder.add_device b2 ~name:"i1" ~kind:"inv" ~nets:[ "a"; "m" ]);
  Builder.add_port b2 ~name:"y" ~direction:Port.Output ~net:"y";
  Builder.add_port b2 ~name:"a" ~direction:Port.Input ~net:"a";
  Alcotest.(check string) "reversed construction, same digest"
    (Canonical.digest a)
    (Canonical.digest (Builder.build b2));
  (* but rewiring a pin is a different circuit *)
  let b3 = Builder.create ~name:"tiny" ~technology:"nmos25" in
  Builder.add_port b3 ~name:"a" ~direction:Port.Input ~net:"a";
  Builder.add_port b3 ~name:"y" ~direction:Port.Output ~net:"y";
  ignore (Builder.add_device b3 ~name:"i1" ~kind:"inv" ~nets:[ "a"; "m" ]);
  ignore (Builder.add_device b3 ~name:"i2" ~kind:"inv" ~nets:[ "y"; "m" ]);
  Alcotest.(check bool) "rewired pins, different digest" false
    (String.equal (Canonical.digest a) (Canonical.digest (Builder.build b3)))

let () =
  Alcotest.run "netlist"
    [
      ("device", [ Alcotest.test_case "basics" `Quick test_device ]);
      ("port", [ Alcotest.test_case "directions" `Quick test_port ]);
      ( "circuit",
        [
          Alcotest.test_case "validation" `Quick test_circuit_validation;
          Alcotest.test_case "connectivity" `Quick test_circuit_connectivity;
          Alcotest.test_case "wide device is near-linear" `Quick
            test_circuit_wide_device;
          circuit_make_prop;
        ] );
      ("builder", [ Alcotest.test_case "net reuse" `Quick test_builder_net_reuse ]);
      ( "stats",
        [
          Alcotest.test_case "equation 1" `Quick test_stats_equation_one;
          Alcotest.test_case "degree histogram" `Quick test_stats_degree_histogram;
          Alcotest.test_case "unknown kind" `Quick test_stats_unknown_kind;
        ] );
      ( "validate",
        [
          Alcotest.test_case "issues" `Quick test_validate;
          Alcotest.test_case "clean" `Quick test_validate_clean_circuit;
        ] );
      ( "canonical",
        Alcotest.test_case "digest is structural" `Quick
          test_canonical_is_structural
        :: canonical_bytes_prop :: canonical_props );
      ("properties", props);
    ]
