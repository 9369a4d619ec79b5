open Mae_celllib
module S = Mae_test_support.Support

let test_cell_validation () =
  S.raises_invalid (fun () ->
      Cell.make ~name:"bad" ~pins:[ ("a", Cell.Input) ]
        ~transistors:
          [ { Cell.name = "t"; kind = "nenh"; drain = Cell.Pin 5;
              gate = Cell.Pin 0; source = Cell.Gnd } ]);
  S.raises_invalid (fun () ->
      Cell.make ~name:"bad" ~pins:[]
        ~transistors:
          [ { Cell.name = "t"; kind = "nenh"; drain = Cell.Gnd;
              gate = Cell.Gnd; source = Cell.Gnd };
            { Cell.name = "t"; kind = "nenh"; drain = Cell.Gnd;
              gate = Cell.Gnd; source = Cell.Gnd } ])

let test_cell_names_dot_free () =
  (* expanded names are unique only because these suffixes have no '.' *)
  let tx ?(name = "t") drain =
    { Cell.name; kind = "nenh"; drain; gate = Cell.Pin 0; source = Cell.Gnd }
  in
  let make transistors =
    Cell.make ~name:"c" ~pins:[ ("a", Cell.Input) ] ~transistors
  in
  S.raises_invalid (fun () -> make [ tx ~name:"p.d0" (Cell.Pin 0) ]);
  S.raises_invalid (fun () -> make [ tx (Cell.Internal "m.1") ]);
  S.raises_invalid (fun () -> make [ tx (Cell.Internal "") ]);
  ignore (make [ tx ~name:"pd0" (Cell.Internal "unconnected0") ])

let expected_nmos_counts =
  [ ("inv", 2); ("buf", 4); ("nand2", 3); ("nand3", 4); ("nand4", 5);
    ("nor2", 3); ("nor3", 4); ("aoi22", 5); ("xor2", 9); ("mux2", 8);
    ("latch", 8); ("dff", 18) ]

let expected_cmos_counts =
  [ ("inv", 2); ("buf", 4); ("nand2", 4); ("nand3", 6); ("nand4", 8);
    ("nor2", 4); ("nor3", 6); ("aoi22", 8); ("xor2", 12); ("mux2", 10);
    ("latch", 10); ("dff", 18) ]

let check_counts lib expected =
  List.iter
    (fun (name, count) ->
      let cell = Library.find_exn lib name in
      Alcotest.(check int) (name ^ " transistors") count
        (Cell.transistor_count cell))
    expected

let test_nmos_transistor_counts () = check_counts Nmos_lib.library expected_nmos_counts

let test_cmos_transistor_counts () = check_counts Cmos_lib.library expected_cmos_counts

let test_library_process_consistency () =
  Alcotest.(check (list string)) "nmos lib vs nmos25" []
    (Library.check_against_process Nmos_lib.library S.nmos);
  Alcotest.(check (list string)) "cmos lib vs cmos20" []
    (Library.check_against_process Cmos_lib.library Mae_tech.Builtin.cmos20);
  (* the nMOS library's depletion loads do not exist in a CMOS process *)
  Alcotest.(check bool) "nmos lib vs cmos20 inconsistent" true
    (Library.check_against_process Nmos_lib.library Mae_tech.Builtin.cmos20 <> [])

let test_library_lookup () =
  Alcotest.(check bool) "find" true (Library.find Nmos_lib.library "inv" <> None);
  Alcotest.(check bool) "missing" true (Library.find Nmos_lib.library "zzz" = None);
  Alcotest.check_raises "find_exn" Not_found (fun () ->
      ignore (Library.find_exn Nmos_lib.library "zzz"));
  Alcotest.(check int) "12 cells per library" 12
    (List.length (Library.cells Nmos_lib.library));
  S.raises_invalid (fun () ->
      ignore
        (Library.make ~name:"dup"
           ~cells:[ Nmos_lib.find_exn "inv"; Nmos_lib.find_exn "inv" ]))

let test_for_technology () =
  Alcotest.(check bool) "nmos25 -> nmos lib" true
    (Cmos_lib.for_technology "nmos25" = Some Nmos_lib.library);
  Alcotest.(check bool) "cmos20 -> cmos lib" true
    (Cmos_lib.for_technology "cmos20" = Some Cmos_lib.library);
  Alcotest.(check bool) "unknown" true (Cmos_lib.for_technology "bipolar" = None)

(* Expansion *)

let test_expand_inverter_structure () =
  (* inv(a, y) in nMOS expands to a depletion load on y and a pull-down
     with gate a; the supply rails are dropped by default. *)
  let b = Mae_netlist.Builder.create ~name:"one" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"u" ~kind:"inv" ~nets:[ "a"; "y" ]);
  Mae_netlist.Builder.add_port b ~name:"a" ~direction:Mae_netlist.Port.Input ~net:"a";
  let c = Mae_netlist.Builder.build b in
  match Expand.circuit Nmos_lib.library c with
  | Error _ -> Alcotest.fail "expansion failed"
  | Ok tx ->
      Alcotest.(check int) "2 transistors" 2 (Mae_netlist.Circuit.device_count tx);
      let y = Option.get (Mae_netlist.Circuit.find_net tx "y") in
      Alcotest.(check int) "y touches both" 2
        (Mae_netlist.Circuit.degree tx y.Mae_netlist.Net.index);
      Alcotest.(check bool) "no vdd" true
        (Mae_netlist.Circuit.find_net tx "vdd!" = None);
      Alcotest.(check int) "ports preserved" 1 (Mae_netlist.Circuit.port_count tx)

let test_expand_with_supplies () =
  let b = Mae_netlist.Builder.create ~name:"one" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"u" ~kind:"inv" ~nets:[ "a"; "y" ]);
  let c = Mae_netlist.Builder.build b in
  match Expand.circuit ~include_supplies:true Nmos_lib.library c with
  | Error _ -> Alcotest.fail "expansion failed"
  | Ok tx ->
      Alcotest.(check bool) "vdd present" true
        (Mae_netlist.Circuit.find_net tx "vdd!" <> None);
      Alcotest.(check bool) "gnd present" true
        (Mae_netlist.Circuit.find_net tx "gnd!" <> None)

let test_expand_full_adder () =
  let tx = S.full_adder_tx in
  (* 2 xor2 (9 each) + 3 nand2 (3 each) = 27 *)
  Alcotest.(check int) "27 transistors" 27 (Mae_netlist.Circuit.device_count tx);
  Alcotest.(check int) "ports preserved" 5 (Mae_netlist.Circuit.port_count tx);
  (* every transistor kind footprints in the process *)
  let stats = Mae_netlist.Stats.compute tx S.nmos in
  Alcotest.(check int) "N" 27 stats.Mae_netlist.Stats.device_count

let test_expand_transistor_count_agrees () =
  match Expand.transistor_count Nmos_lib.library S.full_adder with
  | Ok n -> Alcotest.(check int) "count without building" 27 n
  | Error _ -> Alcotest.fail "count failed"

let test_expand_unknown_cell () =
  let b = Mae_netlist.Builder.create ~name:"bad" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"u" ~kind:"alien" ~nets:[ "a" ]);
  let c = Mae_netlist.Builder.build b in
  match Expand.circuit Nmos_lib.library c with
  | Error (Expand.Unknown_cell { kind = "alien"; _ }) -> ()
  | Error (Expand.Unknown_cell _) | Ok _ -> Alcotest.fail "expected Unknown_cell"

let test_expand_internal_nets_private () =
  (* two nand2 instances must not share their internal pull-down node *)
  let b = Mae_netlist.Builder.create ~name:"two" ~technology:"nmos25" in
  ignore (Mae_netlist.Builder.add_device b ~name:"g1" ~kind:"nand2" ~nets:[ "a"; "b"; "x" ]);
  ignore (Mae_netlist.Builder.add_device b ~name:"g2" ~kind:"nand2" ~nets:[ "a"; "b"; "y" ]);
  let c = Mae_netlist.Builder.build b in
  match Expand.circuit Nmos_lib.library c with
  | Error _ -> Alcotest.fail "expansion failed"
  | Ok tx ->
      Alcotest.(check bool) "g1 internal" true
        (Mae_netlist.Circuit.find_net tx "g1.pd_m1" <> None);
      Alcotest.(check bool) "g2 internal" true
        (Mae_netlist.Circuit.find_net tx "g2.pd_m1" <> None)

(* Differential: the index-level expansion against the name-keyed
   Builder expansion it replaced, kept here as the oracle. *)

exception Skip

let oracle ?(include_supplies = false) library (c : Mae_netlist.Circuit.t) =
  let builder =
    Mae_netlist.Builder.create ~name:(c.name ^ "_tx") ~technology:c.technology
  in
  let net_name i = c.nets.(i).Mae_netlist.Net.name in
  let resolve (d : Mae_netlist.Device.t) = function
    | Cell.Pin i ->
        if i >= Array.length d.pins then
          String.concat "" [ d.name; ".unconnected"; string_of_int i ]
        else net_name d.pins.(i)
    | Cell.Internal n -> String.concat "" [ d.name; "."; n ]
    | Cell.Vdd -> if include_supplies then "vdd!" else raise Skip
    | Cell.Gnd -> if include_supplies then "gnd!" else raise Skip
  in
  let expand_device (d : Mae_netlist.Device.t) =
    match Library.find library d.kind with
    | None -> Error (Expand.Unknown_cell { device = d.name; kind = d.kind })
    | Some cell ->
        List.iter
          (fun (t : Cell.transistor) ->
            let nets =
              List.filter_map
                (fun term ->
                  match resolve d term with
                  | name -> Some name
                  | exception Skip -> None)
                [ t.drain; t.gate; t.source ]
            in
            ignore
              (Mae_netlist.Builder.add_device builder
                 ~name:(d.name ^ "." ^ t.name)
                 ~kind:t.kind ~nets))
          cell.transistors;
        Ok ()
  in
  let rec go i =
    if i >= Array.length c.devices then Ok ()
    else
      match expand_device c.devices.(i) with
      | Ok () -> go (i + 1)
      | Error e -> Error e
  in
  match go 0 with
  | Error e -> Error e
  | Ok () ->
      Array.iter
        (fun (p : Mae_netlist.Port.t) ->
          Mae_netlist.Builder.add_port builder ~name:p.name
            ~direction:p.direction ~net:(net_name p.net))
        c.ports;
      Ok (Mae_netlist.Builder.build builder)

let check_same library (c : Mae_netlist.Circuit.t) =
  List.iter
    (fun include_supplies ->
      let want = oracle ~include_supplies library c in
      let got = Expand.circuit ~include_supplies library c in
      if got <> want then
        Alcotest.failf "%s (%s, include_supplies=%b): expansion differs"
          c.name (Library.name library) include_supplies)
    [ false; true ]

let generator_families technology =
  let module G = Mae_workload.Generators in
  [
    G.full_adder ~technology (); G.ripple_adder ~technology 4;
    G.counter ~technology 5; G.decoder ~technology 3; G.parity ~technology 9;
    G.mux_tree ~technology 3; G.alu ~technology 4;
    G.shift_register ~technology 6; G.multiplier ~technology 3;
    G.c17 ~technology ();
  ]

let test_differential_generators () =
  List.iter (check_same Nmos_lib.library) (generator_families "nmos25");
  List.iter (check_same Cmos_lib.library) (generator_families "cmos20")

let test_differential_random () =
  let module Rc = Mae_workload.Random_circuit in
  for i = 0 to 199 do
    let rng = S.rng (1000 + i) in
    let technology, library =
      if i mod 2 = 0 then ("nmos25", Nmos_lib.library)
      else ("cmos20", Cmos_lib.library)
    in
    let devices = 5 + Mae_prob.Rng.int rng 120 in
    let c =
      Rc.generate ~rng
        {
          Rc.default_params with
          devices;
          primary_inputs = max 3 (devices / 8);
          primary_outputs = max 2 (devices / 10);
          locality = Mae_prob.Rng.int rng 20;
          technology;
        }
    in
    check_same library c
  done

let hand_built name entries ports =
  let b = Mae_netlist.Builder.create ~name ~technology:"cmos20" in
  List.iter
    (fun (inst, kind, nets) ->
      ignore (Mae_netlist.Builder.add_device b ~name:inst ~kind ~nets))
    entries;
  List.iter
    (fun net ->
      Mae_netlist.Builder.add_port b ~name:("p_" ^ net)
        ~direction:Mae_netlist.Port.Inout ~net)
    ports;
  Mae_netlist.Builder.build b

let test_differential_missing_pins () =
  (* nand3 and dff drive their missing output from several transistors;
     a pinless device floats every pin *)
  let c =
    hand_built "short"
      [ ("g1", "nand3", [ "a" ]); ("g2", "dff", [ "a"; "ck" ]);
        ("g3", "xor2", []); ("g4", "inv", [ "a"; "y"; "extra" ]) ]
      [ "a"; "only_port" ]
  in
  List.iter (fun lib -> check_same lib c) [ Nmos_lib.library; Cmos_lib.library ];
  (* an internal net named like a missing pin is that pin's net *)
  let odd =
    Cell.make ~name:"odd"
      ~pins:[ ("a", Cell.Input); ("b", Cell.Input); ("y", Cell.Output) ]
      ~transistors:
        [ { Cell.name = "t0"; kind = "nenh"; drain = Cell.Pin 2;
            gate = Cell.Pin 1; source = Cell.Internal "unconnected2" };
          { Cell.name = "t1"; kind = "nenh"; drain = Cell.Internal "unconnected1";
            gate = Cell.Pin 0; source = Cell.Vdd } ]
  in
  let lib = Library.make ~name:"odd-lib" ~cells:[ odd ] in
  check_same lib
    (hand_built "odd" [ ("o1", "odd", [ "a" ]); ("o2", "odd", [ "a"; "b" ]) ] [])

let test_differential_hostile_names () =
  (* Gate nets that spell generated names merge with them, whichever is
     seen first: x1.n is buf x1's internal node (used by x0 before x1
     expands and by x2 after), x2.unconnected2 is nand2 x2's floating
     output, and vdd!/gnd! are the rails.  x1.unconnected2 names no
     generated net (buf has no pin 2), and x1.i1_p is both a gate
     instance and the name of one of x1's transistors. *)
  let c =
    hand_built "hostile"
      [ ("x0", "inv", [ "x1.n"; "vdd!" ]); ("x1", "buf", [ "a"; "b" ]);
        ("x2", "nand2", [ "x1.n" ]); ("x3", "inv", [ "x2.unconnected2"; "gnd!" ]);
        ("x4", "nand2", [ "x1.unconnected2"; "x4.unconnected1" ]);
        ("x1.i1_p", "inv", [ "a"; "x1.i1_p.i_n" ]) ]
      [ "x1.n"; "vdd!"; "port.only" ]
  in
  List.iter (fun lib -> check_same lib c) [ Nmos_lib.library; Cmos_lib.library ];
  match Expand.circuit ~include_supplies:true Cmos_lib.library c with
  | Error _ -> Alcotest.fail "expansion failed"
  | Ok tx ->
      let named name =
        List.filter
          (fun (n : Mae_netlist.Net.t) -> n.name = name)
          (Array.to_list tx.nets)
      in
      let degree name =
        match named name with
        | [ n ] -> Mae_netlist.Circuit.degree tx n.index
        | l -> Alcotest.failf "%d nets named %s" (List.length l) name
      in
      (* x0's pair, x1's four inverters' transistors on n, x2's pin a *)
      Alcotest.(check int) "x1.n merged" 8 (degree "x1.n");
      (* x2's output drains plus x3's input gates *)
      Alcotest.(check int) "x2.unconnected2 merged" 5 (degree "x2.unconnected2");
      Alcotest.(check int) "one vdd!" 1 (List.length (named "vdd!"))

let test_differential_unknown_cell () =
  let c =
    hand_built "alien"
      [ ("u0", "inv", [ "a"; "b" ]); ("u1", "alien", [ "b" ]);
        ("u2", "martian", [ "b" ]) ]
      []
  in
  List.iter
    (fun lib ->
      check_same lib c;
      match Expand.circuit lib c with
      | Error (Expand.Unknown_cell { device = "u1"; kind = "alien" }) -> ()
      | _ -> Alcotest.fail "expected Unknown_cell u1/alien")
    [ Nmos_lib.library; Cmos_lib.library ]

(* Properties *)

let props =
  let open QCheck2.Gen in
  let cell_gen = oneofl (Library.cells Nmos_lib.library) in
  [
    S.qtest "every nmos cell has a depletion load per output" cell_gen
      (fun cell ->
        (* at least one ndep transistor unless the cell is pass-gate only *)
        List.exists (fun (t : Cell.transistor) -> t.kind = "ndep")
          cell.Cell.transistors);
    S.qtest "every cmos cell is complementary"
      (oneofl (Library.cells Cmos_lib.library))
      (fun cell ->
        let n =
          List.length
            (List.filter (fun (t : Cell.transistor) -> t.kind = "nenh")
               cell.Cell.transistors)
        in
        let p =
          List.length
            (List.filter (fun (t : Cell.transistor) -> t.kind = "pmos")
               cell.Cell.transistors)
        in
        n = p);
    S.qtest "pin counts positive" cell_gen (fun cell ->
        Cell.pin_count cell >= 2 && Cell.input_count cell >= 1);
  ]

let () =
  Alcotest.run "celllib"
    [
      ( "cell",
        [
          Alcotest.test_case "validation" `Quick test_cell_validation;
          Alcotest.test_case "dot-free names" `Quick test_cell_names_dot_free;
        ] );
      ( "libraries",
        [
          Alcotest.test_case "nmos transistor counts" `Quick
            test_nmos_transistor_counts;
          Alcotest.test_case "cmos transistor counts" `Quick
            test_cmos_transistor_counts;
          Alcotest.test_case "process consistency" `Quick
            test_library_process_consistency;
          Alcotest.test_case "lookup" `Quick test_library_lookup;
          Alcotest.test_case "for_technology" `Quick test_for_technology;
        ] );
      ( "expand",
        [
          Alcotest.test_case "inverter structure" `Quick
            test_expand_inverter_structure;
          Alcotest.test_case "with supplies" `Quick test_expand_with_supplies;
          Alcotest.test_case "full adder" `Quick test_expand_full_adder;
          Alcotest.test_case "transistor_count" `Quick
            test_expand_transistor_count_agrees;
          Alcotest.test_case "unknown cell" `Quick test_expand_unknown_cell;
          Alcotest.test_case "internal nets private" `Quick
            test_expand_internal_nets_private;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "generator families" `Quick
            test_differential_generators;
          Alcotest.test_case "random circuits" `Quick test_differential_random;
          Alcotest.test_case "missing pins" `Quick test_differential_missing_pins;
          Alcotest.test_case "hostile names" `Quick
            test_differential_hostile_names;
          Alcotest.test_case "unknown cell" `Quick test_differential_unknown_cell;
        ] );
      ("properties", props);
    ]
