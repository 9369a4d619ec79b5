(* The correctness gate.  The gold table is the sequential reference
   semantics, Mae.Driver.run_circuit, computed in a forked child so the
   benchmark process itself starts timing with every lazy value and
   kernel cache as a fresh CLI process has them (the champ model in
   particular stays unforced).  Answers are compared per method on the
   Int64 bits of area, width and height. *)

module Json = Mae_obs.Json

type slot = Dims of int64 * int64 * int64 | Err of string
type entry = Report of (string * slot) list | Module_error of string

let dims_slot area width height =
  Dims
    (Int64.bits_of_float area, Int64.bits_of_float width, Int64.bits_of_float height)

let entry_of_report (r : Mae.Driver.module_report) =
  Report
    (List.map
       (fun (mr : Mae.Driver.method_result) ->
         ( Mae.Methodology.name mr.methodology,
           match mr.outcome with
           | Ok o ->
               let d = Mae.Methodology.dims o in
               dims_slot d.Mae.Methodology.area d.Mae.Methodology.width
                 d.Mae.Methodology.height
           | Error e -> Err (Mae.Methodology.error_to_string e) ))
       r.results)

let reference ~registry (c, methods) =
  match Mae.Driver.run_circuit ~methods ~registry c with
  | Ok r -> entry_of_report r
  | Error e -> Module_error (Format.asprintf "%a" Mae.Driver.pp_error e)
  | exception ex -> Module_error (Printexc.to_string ex)

(* The gold table for [jobs] (circuit, method selection) pairs, and the
   child's summed sequential run_circuit wall time.  Must run before the
   benchmark process spawns any domain: OCaml 5 forbids fork after
   Domain.spawn. *)
let compute ~registry jobs =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let t0 = Util.now () in
      let table = Array.map (reference ~registry) jobs in
      let seconds = Util.now () -. t0 in
      Marshal.to_channel oc ((table, seconds) : entry array * float) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let (result : entry array * float) =
        try Marshal.from_channel ic
        with End_of_file | Failure _ -> Util.fail "gold child died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      result

type verdict = Pass | Failed of string | Mismatch of string

(* An error slot is a failure (counted, never hidden); a successful
   answer that differs from gold in any bit is a mismatch, which fails
   the whole run. *)
let check ~gold answer =
  match answer with
  | Module_error e -> Failed e
  | Report slots -> begin
      match gold with
      | Module_error e -> Mismatch ("gold failed but answer succeeded: " ^ e)
      | Report gslots ->
          if List.map fst slots <> List.map fst gslots then
            Mismatch "method sets differ"
          else
            List.fold_left2
              (fun acc (name, a) (_, g) ->
                match (acc, a, g) with
                | Mismatch _, _, _ -> acc
                | _, Dims _, _ when a <> g -> Mismatch (name ^ " differs from gold")
                | Pass, Err e, _ -> Failed (name ^ ": " ^ e)
                | _ -> acc)
              Pass slots gslots
    end

(* An answer with no gold row (an unsampled serve-fresh request): only
   its error slots count. *)
let check_alone = function
  | Module_error e -> Failed e
  | Report slots ->
      if List.exists (function _, Err _ -> true | _, Dims _ -> false) slots then
        Failed "method error"
      else Pass

(* A serve response body to an entry: the first module's "methods". *)
let entry_of_response body =
  let num field o =
    match Option.bind (Json.member field o) Json.to_number with
    | Some f -> f
    | None -> Float.nan
  in
  match Json.parse body with
  | Error e -> Error ("response is not JSON: " ^ e)
  | Ok doc -> begin
      match Option.bind (Json.member "modules" doc) Json.to_list with
      | Some [ m ] -> begin
          match (Json.member "error" m, Json.member "methods" m) with
          | Some (Json.String e), _ -> Ok (Module_error e)
          | _, Some (Json.Object methods) ->
              Ok
                (Report
                   (List.map
                      (fun (name, o) ->
                        ( name,
                          match Json.member "ok" o with
                          | Some (Json.Bool true) ->
                              dims_slot (num "area" o) (num "width" o) (num "height" o)
                          | _ ->
                              Err
                                (Option.value ~default:"?"
                                   (Option.bind (Json.member "error" o) Json.to_string))
                        ))
                      methods))
          | _ -> Error "module without methods"
        end
      | _ -> begin
          match Option.bind (Json.member "error" doc) Json.to_string with
          | Some e -> Ok (Module_error e)
          | None -> Error "response without exactly one module"
        end
    end
