type t = {
  name : string;
  lambda_microns : float;
  row_height : Mae_geom.Lambda.t;
  track_pitch : Mae_geom.Lambda.t;
  feed_through_width : Mae_geom.Lambda.t;
  port_pitch : Mae_geom.Lambda.t;
  min_spacing : Mae_geom.Lambda.t;
  devices : Device_kind.t list;
  device_index : (string * Device_kind.t) array;
  fingerprint : string;
}

let check_unique_names devices =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (d : Device_kind.t) ->
      if Hashtbl.mem seen d.name then
        invalid_arg ("Process.make: duplicate device kind " ^ d.name);
      Hashtbl.add seen d.name ())
    devices

(* The index is built once per process at construction; name lookups
   happen for every device of every module (validation, statistics, the
   gate-array transistor count), so the per-lookup cost matters far
   more than the build cost. *)
let index_of_devices devices =
  let a = Array.of_list (List.map (fun (d : Device_kind.t) -> (d.name, d)) devices) in
  Array.sort (fun (a, _) (b, _) -> String.compare a b) a;
  a

let compute_fingerprint t =
  (* Every numeric parameter is rendered as a hex float (%h): exact,
     locale-independent, and distinct for distinct bit patterns.  Kinds
     are listed sorted by name so two processes built from the same set
     in different orders fingerprint equal. *)
  let buf = Buffer.create 512 in
  Printf.bprintf buf
    "mae-process 1\nname %S\nlambda %h\nrow_height %h\ntrack_pitch %h\n\
     feed_through_width %h\nport_pitch %h\nmin_spacing %h\n"
    t.name t.lambda_microns t.row_height t.track_pitch t.feed_through_width
    t.port_pitch t.min_spacing;
  List.iter
    (fun (k : Device_kind.t) ->
      Printf.bprintf buf "device %S %s %h %h\n" k.name
        (Device_kind.category_to_string k.category)
        k.width k.height)
    (List.sort
       (fun (a : Device_kind.t) b -> String.compare a.name b.name)
       t.devices);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let make ~name ~lambda_microns ~row_height ~track_pitch ~feed_through_width
    ~port_pitch ~min_spacing ~devices =
  if String.length name = 0 then invalid_arg "Process.make: empty name";
  let positive what v =
    if v <= 0. then invalid_arg ("Process.make: non-positive " ^ what)
  in
  positive "lambda" lambda_microns;
  positive "row_height" row_height;
  positive "track_pitch" track_pitch;
  positive "feed_through_width" feed_through_width;
  positive "port_pitch" port_pitch;
  positive "min_spacing" min_spacing;
  check_unique_names devices;
  let t =
    {
      name;
      lambda_microns;
      row_height;
      track_pitch;
      feed_through_width;
      port_pitch;
      min_spacing;
      devices;
      device_index = index_of_devices devices;
      fingerprint = "";
    }
  in
  { t with fingerprint = compute_fingerprint t }

let find_device t name =
  let a = t.device_index in
  let rec go lo hi =
    if lo >= hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let mid_name, kind = Array.unsafe_get a mid in
      let c = String.compare name mid_name in
      if c = 0 then Some kind else if c < 0 then go lo mid else go (mid + 1) hi
    end
  in
  go 0 (Array.length a)

let find_device_exn t name =
  match find_device t name with Some d -> d | None -> raise Not_found

let device_area t name = Option.map Device_kind.area (find_device t name)

let with_devices t devices =
  check_unique_names devices;
  let t = { t with devices; device_index = index_of_devices devices } in
  { t with fingerprint = compute_fingerprint t }

let fingerprint t = t.fingerprint

let pp ppf t =
  Format.fprintf ppf
    "@[<v>process %s (lambda=%.2fum, row=%.0fL, track=%.0fL, feed=%.0fL,@ \
     port=%.0fL, spacing=%.0fL, %d device kinds)@]"
    t.name t.lambda_microns t.row_height t.track_pitch t.feed_through_width
    t.port_pitch t.min_spacing (List.length t.devices)
