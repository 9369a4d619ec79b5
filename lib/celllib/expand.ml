module Circuit = Mae_netlist.Circuit
module Device = Mae_netlist.Device
module Net = Mae_netlist.Net
module Port = Mae_netlist.Port

type error = Unknown_cell of { device : string; kind : string }

let pp_error ppf (Unknown_cell { device; kind }) =
  Format.fprintf ppf "device %s: no cell template for kind %s" device kind

exception Unknown of Device.t

(* Every device's template, or the first device (in device order) whose
   kind the library lacks. *)
let templates library (c : Circuit.t) =
  match
    Array.map
      (fun (d : Device.t) ->
        match Library.template library d.kind with
        | Some t -> t
        | None -> raise_notrace (Unknown d))
      c.devices
  with
  | templates -> Ok templates
  | exception Unknown d -> Error (Unknown_cell { device = d.name; kind = d.kind })

let is_rail : Library.terminal -> bool = function
  | Vdd | Gnd -> true
  | Pin _ | Slot _ -> false

(* Expanded nets are numbered on first use -- device order, then
   transistor order, then drain/gate/source, then ports -- and each is
   named once.  Generated names never collide with one another (see
   Cell.make), so the only merge by name is a gate net with the private
   net or rail whose generated name it spells: [shadowed] holds the
   gate nets that can spell one. *)
let circuit ?(include_supplies = false) library (c : Circuit.t) =
  match templates library c with
  | Error e -> Error e
  | Ok templates ->
      let max_slots =
        Array.fold_left
          (fun m (t : Library.template) -> max m (Array.length t.slots))
          0 templates
      in
      let bound =
        Array.fold_left
          (fun n (t : Library.template) -> n + Array.length t.slots)
          (Array.length c.nets + 2) templates
      in
      let names = Array.make bound "" in
      let net_count = ref 0 in
      let fresh name =
        let i = !net_count in
        names.(i) <- name;
        net_count := i + 1;
        i
      in
      let gate_net = Array.make (Array.length c.nets) (-1) in
      let of_gate g =
        let i = gate_net.(g) in
        if i >= 0 then i
        else begin
          let i = fresh c.nets.(g).name in
          gate_net.(g) <- i;
          i
        end
      in
      let shadowed = Hashtbl.create 8 in
      Array.iter
        (fun (n : Net.t) ->
          if String.contains n.name '.' || n.name = "vdd!" || n.name = "gnd!"
          then Hashtbl.add shadowed n.name n.index)
        c.nets;
      let generated name =
        if Hashtbl.length shadowed = 0 then fresh name
        else
          match Hashtbl.find_opt shadowed name with
          | Some g -> of_gate g
          | None -> fresh name
      in
      let vdd = ref (-1) and gnd = ref (-1) in
      let rail r name =
        if !r < 0 then r := generated name;
        !r
      in
      let slot = Array.make max_slots (-1) in
      let kept term = include_supplies || not (is_rail term) in
      let devices = ref [] and device_count = ref 0 in
      Array.iteri
        (fun k (d : Device.t) ->
          let t = templates.(k) in
          Array.fill slot 0 (Array.length t.slots) (-1);
          let of_slot j =
            let i = slot.(j) in
            if i >= 0 then i
            else begin
              let i = generated (d.name ^ t.slots.(j)) in
              slot.(j) <- i;
              i
            end
          in
          let resolve : Library.terminal -> int = function
            | Pin p ->
                (* A device with fewer pins than its cell: the missing
                   pin floats on a private net, as a layout tool would
                   leave it. *)
                if p < Array.length d.pins then of_gate d.pins.(p)
                else of_slot t.unconnected.(p)
            | Slot j -> of_slot j
            | Vdd -> rail vdd "vdd!"
            | Gnd -> rail gnd "gnd!"
          in
          Array.iter
            (fun (tx : Library.transistor) ->
              let width =
                Bool.to_int (kept tx.drain) + Bool.to_int (kept tx.gate)
                + Bool.to_int (kept tx.source)
              in
              let pins = Array.make width 0 in
              let at = if kept tx.drain then (pins.(0) <- resolve tx.drain; 1) else 0 in
              let at = if kept tx.gate then (pins.(at) <- resolve tx.gate; at + 1) else at in
              if kept tx.source then pins.(at) <- resolve tx.source;
              devices :=
                Device.make ~index:!device_count ~name:(d.name ^ tx.suffix)
                  ~kind:tx.kind ~pins
                :: !devices;
              incr device_count)
            t.transistors)
        c.devices;
      let ports =
        List.map
          (fun (p : Port.t) ->
            Port.make ~name:p.name ~direction:p.direction ~net:(of_gate p.net))
          (Array.to_list c.ports)
      in
      let nets = List.init !net_count (fun i -> Net.make ~index:i ~name:names.(i)) in
      Ok
        (Circuit.make ~name:(c.name ^ "_tx") ~technology:c.technology
           ~devices:(List.rev !devices) ~nets ~ports)

let transistor_count library (c : Circuit.t) =
  Result.map
    (Array.fold_left
       (fun n (t : Library.template) -> n + Array.length t.transistors)
       0)
    (templates library c)
