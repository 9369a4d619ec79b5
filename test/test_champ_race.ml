(* CHAMP's power-law model is fit lazily, on first use.  A fresh
   process whose first batch runs on several domains forces that fit
   from all of them at once; an unguarded [lazy] then raises
   [CamlinternalLazy.Undefined] in every domain but one, which comes
   back as an "estimator crashed" error slot.

   Racing the first force is this executable's first act: once any
   domain has forced the fit, the race can no longer happen in this
   process.  So this file holds nothing else. *)

module S = Mae_test_support.Support

let () = Mae_baselines.Methods.ensure_registered ()

let domains = 4

(* every domain builds its context first and leaves the barrier with
   nothing left to do but force the fit, so the forces overlap *)
let ready = Atomic.make 0

let run_champ () =
  let champ = Option.get (Mae.Methodology.find "champ") in
  let process = Mae_tech.Registry.find_exn (Mae_tech.Registry.create ()) "nmos25" in
  match Mae.Methodology.make_ctx ~process S.full_adder with
  | Error e -> Error (Mae.Methodology.error_to_string e)
  | Ok ctx -> (
      Atomic.incr ready;
      while Atomic.get ready < domains do
        Domain.cpu_relax ()
      done;
      match Mae.Methodology.run ctx champ S.full_adder with
      | Ok _ -> Ok ()
      | Error e -> Error (Mae.Methodology.error_to_string e)
      | exception exn -> Error ("raised " ^ Printexc.to_string exn))

let outcomes = List.map Domain.join (List.init domains (fun _ -> Domain.spawn run_champ))

let test_no_error_slot () =
  List.iteri
    (fun i outcome ->
      match outcome with
      | Ok () -> ()
      | Error e -> Alcotest.failf "domain %d: champ error slot: %s" i e)
    outcomes

let () =
  Alcotest.run "champ race"
    [ ( "first force",
        [ Alcotest.test_case "4 domains, no error slot" `Quick test_no_error_slot ] ) ]
