type t = {
  name : string;
  technology : string;
  devices : Device.t array;
  nets : Net.t array;
  ports : Port.t array;
  net_devices : int array array;
}

let check_dense_indices what get arr =
  Array.iteri
    (fun i x ->
      if get x <> i then
        invalid_arg
          (Printf.sprintf "Circuit.make: %s index %d at position %d" what (get x) i))
    arr

let check_unique_names what get arr =
  let seen = Hashtbl.create (Array.length arr) in
  Array.iter
    (fun x ->
      let n = get x in
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Circuit.make: duplicate %s name %s" what n);
      Hashtbl.add seen n ())
    arr

let make ~name ~technology ~devices ~nets ~ports =
  if String.length name = 0 then invalid_arg "Circuit.make: empty name";
  let devices = Array.of_list devices in
  let nets = Array.of_list nets in
  let ports = Array.of_list ports in
  check_dense_indices "device" (fun (d : Device.t) -> d.index) devices;
  check_dense_indices "net" (fun (n : Net.t) -> n.index) nets;
  check_unique_names "device" (fun (d : Device.t) -> d.name) devices;
  check_unique_names "net" (fun (n : Net.t) -> n.name) nets;
  check_unique_names "port" (fun (p : Port.t) -> p.name) ports;
  let net_count = Array.length nets in
  let in_range what name n =
    if n < 0 || n >= net_count then
      invalid_arg
        (Printf.sprintf "Circuit.make: %s %s references net %d" what name n)
  in
  Array.iter
    (fun (d : Device.t) ->
      for k = 0 to Array.length d.pins - 1 do
        in_range "device" d.name d.pins.(k)
      done)
    devices;
  Array.iter (fun (p : Port.t) -> in_range "port" p.name p.net) ports;
  (* [net_devices] by counting: devices are visited in index order, so
     each net's array fills ascending with no sort.  A device touching
     one net through several pins is one member of it: [last.(n)] is
     the last device counted on net [n]. *)
  let degree = Array.make net_count 0 in
  let last = Array.make net_count (-1) in
  Array.iter
    (fun (d : Device.t) ->
      Array.iter
        (fun n ->
          if last.(n) <> d.index then begin
            last.(n) <- d.index;
            degree.(n) <- degree.(n) + 1
          end)
        d.pins)
    devices;
  let net_devices = Array.map (fun k -> Array.make k 0) degree in
  let fill = Array.make net_count 0 in
  Array.fill last 0 net_count (-1);
  Array.iter
    (fun (d : Device.t) ->
      Array.iter
        (fun n ->
          if last.(n) <> d.index then begin
            last.(n) <- d.index;
            net_devices.(n).(fill.(n)) <- d.index;
            fill.(n) <- fill.(n) + 1
          end)
        d.pins)
    devices;
  { name; technology; devices; nets; ports; net_devices }

let device_count t = Array.length t.devices

let net_count t = Array.length t.nets

let port_count t = Array.length t.ports

let check_net t n =
  if n < 0 || n >= Array.length t.nets then
    invalid_arg (Printf.sprintf "Circuit: net %d out of range" n)

let devices_on_net t n =
  check_net t n;
  t.net_devices.(n)

let degree t n = Array.length (devices_on_net t n)

let nets_of_device t d =
  if d < 0 || d >= Array.length t.devices then
    invalid_arg (Printf.sprintf "Circuit: device %d out of range" d);
  Device.nets t.devices.(d)

let find_net t name =
  Array.find_opt (fun (n : Net.t) -> String.equal n.name name) t.nets

let find_device t name =
  Array.find_opt (fun (d : Device.t) -> String.equal d.name name) t.devices

let is_port_net t n =
  check_net t n;
  Array.exists (fun (p : Port.t) -> p.net = n) t.ports

let pp_summary ppf t =
  Format.fprintf ppf "%s: %d devices, %d nets, %d ports (%s)" t.name
    (device_count t) (net_count t) (port_count t) t.technology
