module S = Mae_test_support.Support

let report () =
  let registry = Mae_tech.Registry.create () in
  match Mae.Driver.run_circuit ~registry S.full_adder with
  | Ok r -> r
  | Error _ -> Alcotest.fail "driver failed"

let record_of_report_exn r =
  match Mae_db.Record.of_report r with
  | Ok record -> record
  | Error msg -> Alcotest.failf "of_report: %s" (Mae_db.Record.of_report_error_to_string msg)

let test_record_of_report () =
  let r = report () in
  let record = record_of_report_exn r in
  Alcotest.(check string) "name" "full_adder" record.Mae_db.Record.module_name;
  Alcotest.(check string) "technology" "nmos25" record.technology;
  Alcotest.(check int) "devices" 5 record.devices;
  Alcotest.(check int) "nets" 8 record.nets;
  Alcotest.(check int) "ports" 5 record.ports;
  let sc = Option.get (Mae.Driver.stdcell r) in
  let fce = Option.get (Mae.Driver.fullcustom_exact r) in
  S.check_float "sc area" sc.Mae.Estimate.area record.sc_area;
  S.check_float "fc exact area" fce.Mae.Estimate.area record.fc_exact_area;
  (* shapes: one per sweep entry plus the two full-custom variants *)
  Alcotest.(check int) "shape count"
    (List.length (Mae.Driver.stdcell_sweep r) + 2)
    (List.length record.shapes)

(* a narrowed method set cannot feed the floor planner: typed refusal,
   not a crash *)
let test_record_needs_default_methods () =
  let registry = Mae_tech.Registry.create () in
  match
    Mae.Driver.run_circuit ~registry ~methods:[ "fullcustom-exact" ]
      S.full_adder
  with
  | Error _ -> Alcotest.fail "driver failed"
  | Ok r ->
      Alcotest.(check bool) "of_report refuses" true
        (Result.is_error (Mae_db.Record.of_report r))

let test_store_roundtrip () =
  let store = Mae_db.Store.create () in
  Mae_db.Store.add store (record_of_report_exn (report ()));
  let registry = Mae_tech.Registry.create () in
  begin
    match Mae.Driver.run_circuit ~registry S.counter8 with
    | Ok r -> Mae_db.Store.add store (record_of_report_exn r)
    | Error _ -> Alcotest.fail "driver failed"
  end;
  let text = Mae_db.Store.to_string store in
  match Mae_db.Store.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok store' ->
      Alcotest.(check (list string)) "names preserved"
        (Mae_db.Store.names store) (Mae_db.Store.names store');
      List.iter2
        (fun (a : Mae_db.Record.t) b ->
          Alcotest.(check bool) ("record " ^ a.module_name) true
            (Mae_db.Record.equal a b))
        (Mae_db.Store.records store)
        (Mae_db.Store.records store')

let test_store_replaces () =
  let store = Mae_db.Store.create () in
  let record = record_of_report_exn (report ()) in
  Mae_db.Store.add store record;
  Mae_db.Store.add store { record with devices = 99 };
  Alcotest.(check int) "one record" 1 (List.length (Mae_db.Store.records store));
  match Mae_db.Store.find store "full_adder" with
  | Some r -> Alcotest.(check int) "latest wins" 99 r.Mae_db.Record.devices
  | None -> Alcotest.fail "record missing"

let test_store_parse_errors () =
  let expect_error text =
    match Mae_db.Store.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected error for %S" text
  in
  expect_error "technology foo\n";
  expect_error "record a\nrecord b\n";
  expect_error "record a\ncounts x y z\nend\n";
  expect_error "record a\ngibberish\nend\n";
  expect_error "record a\n" (* unterminated *)

let test_store_file_io () =
  let store = Mae_db.Store.create () in
  Mae_db.Store.add store (record_of_report_exn (report ()));
  let path = Filename.temp_file "mae_db" ".txt" in
  begin
    match Mae_db.Store.save store ~path with
    | Ok () -> ()
    | Error e -> Alcotest.failf "save failed: %s" e
  end;
  begin
    match Mae_db.Store.load ~path with
    | Ok store' ->
        Alcotest.(check (list string)) "round trip via file"
          (Mae_db.Store.names store) (Mae_db.Store.names store')
    | Error e -> Alcotest.failf "load failed: %s" e
  end;
  Sys.remove path;
  match Mae_db.Store.load ~path:"/nonexistent/xyz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected IO error"

(* --- satellite: round-trip fidelity for names the old tokenizer
   corrupted (spaces split one name into many tokens) and for keyword
   collisions ("record", "end") --- *)

let roundtrip_one (record : Mae_db.Record.t) =
  let store = Mae_db.Store.create () in
  Mae_db.Store.add store record;
  match Mae_db.Store.of_string (Mae_db.Store.to_string store) with
  | Error e -> Alcotest.failf "parse failed for %S: %s" record.module_name e
  | Ok store' -> begin
      match Mae_db.Store.records store' with
      | [ r ] ->
          Alcotest.(check bool)
            (Printf.sprintf "round trip of %S/%S" record.module_name
               record.technology)
            true
            (Mae_db.Record.equal record r);
          r
      | rs ->
          Alcotest.failf "expected 1 record for %S, got %d" record.module_name
            (List.length rs)
    end

let test_store_adversarial_names () =
  let base = record_of_report_exn (report ()) in
  let names =
    [
      "two words";
      "record";
      "end";
      "technology nmos";
      "has\"quote";
      "back\\slash";
      "tab\there";
      " leading";
      "trailing ";
      "";
      "\"quoted\"";
    ]
  in
  List.iter
    (fun n ->
      ignore (roundtrip_one { base with module_name = n });
      ignore (roundtrip_one { base with technology = n }))
    names

let test_store_extreme_floats () =
  let base = record_of_report_exn (report ()) in
  let bits = Int64.bits_of_float in
  let extremes =
    [ -0.0; Float.min_float; Float.max_float; 4.9e-324; 1e-300; 3.5 ]
  in
  List.iter
    (fun x ->
      let record =
        {
          base with
          sc_width = x;
          sc_area = x;
          fc_exact_area = x;
          shapes = [ (x, 1.0); (2.0, x) ];
        }
      in
      let r = roundtrip_one record in
      (* Record.equal treats -0.0 = 0.0; the store must be stricter and
         give the bits back untouched *)
      Alcotest.(check int64)
        (Printf.sprintf "sc_width bits of %h" x)
        (bits record.sc_width) (bits r.sc_width);
      Alcotest.(check int64)
        (Printf.sprintf "fc_exact_area bits of %h" x)
        (bits record.fc_exact_area)
        (bits r.fc_exact_area);
      List.iter2
        (fun (w, h) (w', h') ->
          Alcotest.(check int64) "shape width bits" (bits w) (bits w');
          Alcotest.(check int64) "shape height bits" (bits h) (bits h'))
        record.shapes r.shapes)
    extremes

(* --- satellite: non-finite estimates must be a typed refusal, not a
   silent poison pill in the floor-planner feed --- *)

let patch_fullcustom_area value (r : Mae.Driver.module_report) =
  let results =
    List.map
      (fun (mr : Mae.Driver.method_result) ->
        match mr.outcome with
        | Ok (Mae.Methodology.Fullcustom fc) ->
            {
              mr with
              outcome = Ok (Mae.Methodology.Fullcustom { fc with area = value });
            }
        | _ -> mr)
      r.results
  in
  { r with results }

let test_of_report_rejects_non_finite () =
  List.iter
    (fun bad ->
      match Mae_db.Record.of_report (patch_fullcustom_area bad (report ())) with
      | Ok _ -> Alcotest.failf "of_report accepted %h" bad
      | Error (Mae_db.Record.Non_finite { module_name; field; value }) ->
          Alcotest.(check string) "module" "full_adder" module_name;
          Alcotest.(check bool)
            (Printf.sprintf "field %s names a full-custom area" field)
            true
            (String.length field > 0);
          Alcotest.(check bool) "value echoed" true
            (Float.is_nan bad = Float.is_nan value
            && (Float.is_nan bad || bad = value))
      | Error e ->
          Alcotest.failf "wrong error: %s"
            (Mae_db.Record.of_report_error_to_string e))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_record_equal_nan_reflexive () =
  let base = record_of_report_exn (report ()) in
  let r = { base with sc_area = Float.nan; shapes = [ (Float.nan, 1.0) ] } in
  Alcotest.(check bool) "equal r r with nans" true (Mae_db.Record.equal r r);
  Alcotest.(check bool) "nan <> 0" false
    (Mae_db.Record.equal r { r with sc_area = 0.0 })

let test_store_parse_rejects_non_finite () =
  let expect_error text =
    match Mae_db.Store.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parser accepted non-finite in %S" text
  in
  List.iter
    (fun tok ->
      expect_error
        (Printf.sprintf
           "record \"m\"\ntechnology \"t\"\ncounts 1 1 1\nstdcell 0 0 0 %s 1 \
            1 1\nend\n"
           tok);
      expect_error
        (Printf.sprintf
           "record \"m\"\ntechnology \"t\"\ncounts 1 1 1\nshape %s 2\nend\n" tok))
    [ "nan"; "inf"; "infinity"; "-inf" ]

(* --- tentpole: content-addressed estimate store --- *)

let process () = Mae_tech.Registry.find_exn (Mae_tech.Registry.create ()) "nmos25"

let report_bits (r : Mae.Driver.module_report) =
  List.concat_map
    (fun (mr : Mae.Driver.method_result) ->
      let name = Mae.Methodology.name mr.methodology in
      match mr.outcome with
      | Ok o ->
          let d = Mae.Methodology.dims o in
          [
            (name ^ ".area", Int64.bits_of_float d.area);
            (name ^ ".width", Int64.bits_of_float d.width);
            (name ^ ".height", Int64.bits_of_float d.height);
          ]
      | Error e ->
          [ (name ^ ".error:" ^ Mae.Methodology.error_to_string e, 0L) ])
    r.results

(* Store keys are a persistence format: journals and snapshots written
   by one build must still hit in the next.  This is the full adder's
   key under the default method set as the original Printf-based key
   builder computed it; any drift in the canonical text, the process
   fingerprint or the key framing changes it.  It runs before the epoch
   bump below, which changes every key. *)
let test_cas_key_pinned () =
  Alcotest.(check string) "full_adder key"
    "0ffce77d92062da094c40c9d3950b499"
    (Mae_db.Cas.key ~process:(process ()) S.full_adder)

let test_cas_hit_returns_same_report () =
  let cas = Mae_db.Cas.create () in
  let r = report () in
  let key = Mae_db.Cas.key ~process:(process ()) S.full_adder in
  Alcotest.(check bool) "cold miss" true
    (Option.is_none
       (Mae_db.Cas.find cas ~key ~circuit:S.full_adder ~process:(process ())));
  Mae_db.Cas.store cas ~key r;
  match Mae_db.Cas.find cas ~key ~circuit:S.full_adder ~process:(process ()) with
  | None -> Alcotest.fail "stored entry not found"
  | Some r' ->
      Alcotest.(check (list (pair string int64)))
        "hit is bit-for-bit" (report_bits r) (report_bits r')

let test_cas_journal_roundtrip () =
  let path = Filename.temp_file "mae_cas" ".journal" in
  let r = report () in
  let key = Mae_db.Cas.key ~process:(process ()) S.full_adder in
  let cas1 = Mae_db.Cas.create () in
  begin
    match Mae_db.Cas.open_journal cas1 ~path with
    | Ok (0, 0) -> ()
    | Ok (l, s) -> Alcotest.failf "fresh journal loaded %d skipped %d" l s
    | Error e -> Alcotest.failf "open_journal: %s" e
  end;
  Mae_db.Cas.store cas1 ~key r;
  Mae_db.Cas.close_journal cas1;
  (* a restarted process replays the journal and answers warm *)
  let cas2 = Mae_db.Cas.create () in
  begin
    match Mae_db.Cas.open_journal cas2 ~path with
    | Ok (1, 0) -> ()
    | Ok (l, s) -> Alcotest.failf "replay loaded %d skipped %d" l s
    | Error e -> Alcotest.failf "replay open_journal: %s" e
  end;
  Alcotest.(check int) "one warm entry" 1 (Mae_db.Cas.warm_pending cas2);
  begin
    match
      Mae_db.Cas.find cas2 ~key ~circuit:S.full_adder ~process:(process ())
    with
    | None -> Alcotest.fail "warm entry not found"
    | Some r' ->
        Alcotest.(check (list (pair string int64)))
          "journal replay is bit-for-bit" (report_bits r) (report_bits r')
  end;
  (* a torn tail (crash mid-append) skips, resyncs, and keeps serving *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "entry deadbeef\nmodule \"torn\"";
  close_out oc;
  let cas3 = Mae_db.Cas.create () in
  begin
    match Mae_db.Cas.open_journal cas3 ~path with
    | Ok (1, 1) -> ()
    | Ok (l, s) ->
        Alcotest.failf "torn tail: loaded %d skipped %d (want 1 1)" l s
    | Error e -> Alcotest.failf "torn-tail open_journal: %s" e
  end;
  Mae_db.Cas.close_journal cas3;
  Sys.remove path

let test_cas_version_bump_invalidates () =
  let cas = Mae_db.Cas.create () in
  let r = report () in
  let p = process () in
  let key = Mae_db.Cas.key ~process:p S.full_adder in
  Mae_db.Cas.store cas ~key r;
  Mae.Methodology.bump_registry_epoch ();
  let key' = Mae_db.Cas.key ~process:p S.full_adder in
  Alcotest.(check bool) "epoch bump changes every key" false
    (String.equal key key');
  Alcotest.(check bool) "old entry never looked up again" true
    (Option.is_none
       (Mae_db.Cas.find cas ~key:key' ~circuit:S.full_adder ~process:p));
  (* the process fingerprint is in the key too *)
  let retuned =
    Mae_tech.Process.make ~name:p.name
      ~lambda_microns:(p.lambda_microns *. 2.)
      ~row_height:p.row_height ~track_pitch:p.track_pitch
      ~feed_through_width:p.feed_through_width ~port_pitch:p.port_pitch
      ~min_spacing:p.min_spacing ~devices:p.devices
  in
  Alcotest.(check bool) "retuned process changes the key" false
    (String.equal key' (Mae_db.Cas.key ~process:retuned S.full_adder));
  (* and so is the method set *)
  Alcotest.(check bool) "method set changes the key" false
    (String.equal key'
       (Mae_db.Cas.key ~methods:[ "stdcell" ] ~process:p S.full_adder))

let test_cas_lru_eviction () =
  let cas = Mae_db.Cas.create ~live_cap:8 () in
  let r = report () in
  let p = process () in
  let before = Mae_db.Cas.eviction_count () in
  let key i = Printf.sprintf "synthetic-%03d" i in
  for i = 1 to 100 do
    Mae_db.Cas.store cas ~key:(key i) r
  done;
  Alcotest.(check int) "live tier stays at the cap" 8 (Mae_db.Cas.length cas);
  Alcotest.(check int) "every eviction counted" 92
    (Mae_db.Cas.eviction_count () - before);
  let find k = Mae_db.Cas.find cas ~key:k ~circuit:S.full_adder ~process:p in
  Alcotest.(check bool) "churned-out key misses" true
    (Option.is_none (find (key 1)));
  Alcotest.(check bool) "recent key still hits" true
    (Option.is_some (find (key 100)));
  (* a hit refreshes recency: touch the oldest survivor, insert one
     more, and the next-oldest is the victim -- not the touched entry *)
  Alcotest.(check bool) "oldest survivor hits" true
    (Option.is_some (find (key 93)));
  Mae_db.Cas.store cas ~key:"one-more" r;
  Alcotest.(check bool) "touched entry protected" true
    (Option.is_some (find (key 93)));
  Alcotest.(check bool) "true LRU evicted instead" true
    (Option.is_none (find (key 94)));
  (* uncapped stores never evict *)
  let uncapped = Mae_db.Cas.create () in
  let base = Mae_db.Cas.eviction_count () in
  for i = 1 to 100 do
    Mae_db.Cas.store uncapped ~key:(key i) r
  done;
  Alcotest.(check int) "uncapped keeps everything" 100
    (Mae_db.Cas.length uncapped);
  Alcotest.(check int) "uncapped never evicts" base
    (Mae_db.Cas.eviction_count ());
  (* a cap below one live entry is a programming error *)
  S.raises_invalid (fun () -> Mae_db.Cas.create ~live_cap:0 ())

let fuzz_props =
  let open QCheck2.Gen in
  let soup =
    map (String.concat "\n")
      (list_size (int_range 0 20)
         (oneofl
            [ "record m"; "end"; "technology t"; "counts 1 2 3";
              "counts x y z"; "shape 1 2"; "shape -"; "stdcell 1 2 3 4 5 6 7";
              "fullcustom 1 2 3 4"; "garbage"; "" ]))
  in
  let base = lazy (record_of_report_exn (report ())) in
  let name_gen =
    (* anything a netlist name could carry: spaces, quotes, backslashes,
       keywords, control characters *)
    let open QCheck2.Gen in
    oneof
      [
        string_size ~gen:printable (int_range 0 12);
        string_size ~gen:(char_range '\000' '\255') (int_range 0 8);
        oneofl [ "record"; "end"; "two words"; "a\"b"; "c\\d"; "" ];
      ]
  in
  let float_gen =
    let open QCheck2.Gen in
    oneof
      [
        float;
        oneofl
          [ 0.0; -0.0; Float.min_float; Float.max_float; 4.9e-324; -1e308 ];
      ]
  in
  [
    Mae_test_support.Support.qtest ~count:300 "store parser total" soup
      (fun text -> match Mae_db.Store.of_string text with Ok _ | Error _ -> true);
    Mae_test_support.Support.qtest ~count:300
      "store round-trips adversarial names and extreme floats"
      QCheck2.Gen.(tup3 name_gen name_gen (list_size (int_range 0 4) float_gen))
      (fun (name, tech, floats) ->
        let record =
          {
            (Lazy.force base) with
            module_name = name;
            technology = tech;
            sc_area =
              (match floats with x :: _ when Float.is_finite x -> x | _ -> 1.0);
            shapes = List.map (fun x -> (Float.abs x, 1.0))
                (List.filter Float.is_finite floats);
          }
        in
        let store = Mae_db.Store.create () in
        Mae_db.Store.add store record;
        match Mae_db.Store.of_string (Mae_db.Store.to_string store) with
        | Error _ -> false
        | Ok store' -> begin
            match Mae_db.Store.records store' with
            | [ r ] -> Mae_db.Record.equal record r
            | _ -> false
          end);
  ]

let () =
  Alcotest.run "db"
    [
      ( "record",
        [
          Alcotest.test_case "of_report" `Quick test_record_of_report;
          Alcotest.test_case "of_report needs default methods" `Quick
            test_record_needs_default_methods;
          Alcotest.test_case "of_report rejects non-finite" `Quick
            test_of_report_rejects_non_finite;
          Alcotest.test_case "equal is nan-reflexive" `Quick
            test_record_equal_nan_reflexive;
        ] );
      ( "store",
        [
          Alcotest.test_case "round trip" `Quick test_store_roundtrip;
          Alcotest.test_case "replace" `Quick test_store_replaces;
          Alcotest.test_case "parse errors" `Quick test_store_parse_errors;
          Alcotest.test_case "file io" `Quick test_store_file_io;
          Alcotest.test_case "adversarial names round trip" `Quick
            test_store_adversarial_names;
          Alcotest.test_case "extreme floats round trip bit-for-bit" `Quick
            test_store_extreme_floats;
          Alcotest.test_case "parser rejects non-finite text" `Quick
            test_store_parse_rejects_non_finite;
        ] );
      ( "cas",
        [
          Alcotest.test_case "key bytes pinned" `Quick test_cas_key_pinned;
          Alcotest.test_case "hit returns the stored report" `Quick
            test_cas_hit_returns_same_report;
          Alcotest.test_case "journal warm round trip" `Quick
            test_cas_journal_roundtrip;
          Alcotest.test_case "version bump invalidates" `Quick
            test_cas_version_bump_invalidates;
          Alcotest.test_case "lru cap churn" `Quick test_cas_lru_eviction;
        ] );
      ("fuzz", fuzz_props);
    ]
