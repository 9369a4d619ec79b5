(* Small shared helpers: clocks, order statistics, /proc readers. *)

let now = Mae_obs.Clock.monotonic

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("mae_bench: " ^ msg);
      exit 2)
    fmt

let log fmt = Printf.ksprintf (fun s -> prerr_endline s) fmt

(* Linear-interpolated quantile of an unsorted array (NaN when empty);
   [infinity] entries stand for failed operations and sort last. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else
      let frac = pos -. float_of_int i in
      if frac = 0. then s.(i)
      else if s.(i + 1) = infinity then infinity
      else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* Whole contents of a file; /proc files included (they report no size). *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let clock_ticks = 100.

(* utime + stime of a process in seconds, from /proc/<pid>/stat (fields
   14 and 15, counted after the parenthesised command name). *)
let proc_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest =
    String.sub s (String.rindex s ')' + 2)
      (String.length s - String.rindex s ')' - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. clock_ticks

(* VmHWM (peak resident set) in MiB, from /proc/<pid>/status. *)
let peak_rss_mb pid =
  let lines =
    String.split_on_char '\n'
      (read_file
         (if pid = 0 then "/proc/self/status"
          else Printf.sprintf "/proc/%d/status" pid))
  in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | None -> Float.nan
  | Some l ->
      let kb =
        List.find_map int_of_string_opt
          (String.split_on_char ' ' (String.trim (String.sub l 6 (String.length l - 6))))
      in
      float_of_int (Option.value kb ~default:0) /. 1024.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let mkdir_p dir =
  let rec go d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* What one workload run hands back to the report. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  record : (string * Mae_obs.Json.t) list;  (** run-record extras *)
}

(* The failure share with a continuity correction of one half, so that a
   run with no failure still has a finite, positive share (the raw counts
   are printed next to it). *)
let failed_share ~failed ~attempted =
  (float_of_int failed +. 0.5) /. (float_of_int attempted +. 1.)

(* One phase of a run record: its operation counts, then [extra]. *)
let phase ?(extra = []) name ~attempted ~failed =
  let module J = Mae_obs.Json in
  J.Object
    ([
       ("phase", J.String name);
       ("attempted", J.Number (float_of_int attempted));
       ("succeeded", J.Number (float_of_int (attempted - failed)));
       ("failed", J.Number (float_of_int failed));
     ]
    @ extra)

(* Online processors, counted from /proc/cpuinfo. *)
let nproc () =
  match read_file "/proc/cpuinfo" with
  | s ->
      max 1
        (List.length
           (List.filter (String.starts_with ~prefix:"processor") (String.split_on_char '\n' s)))
  | exception Sys_error _ -> Domain.recommended_domain_count ()

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Cumulative (steal, total) CPU ticks of the host from /proc/stat: the
   time a virtual machine's CPUs were runnable but not running. *)
let steal_ticks () =
  match read_file "/proc/stat" with
  | s -> (
      match String.split_on_char ' ' (List.hd (String.split_on_char '\n' s)) with
      | "cpu" :: rest ->
          let f = List.filter_map int_of_string_opt rest in
          (List.nth_opt f 7 |> Option.value ~default:0, List.fold_left ( + ) 0 f)
      | _ -> (0, 0))
  | exception Sys_error _ -> (0, 0)

let steal_share (s0, t0) (s1, t1) =
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.
