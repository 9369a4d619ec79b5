(* The canonical, construction-order-independent serialization of a
   circuit, and its digest -- the structural half of the estimate
   store's content address.

   Two circuits describing the same schematic must serialize (and so
   hash) identically however their builders interleaved net creation
   and device insertion.  Index-dependent state (net indices, device
   indices, pin arrays of net numbers) is therefore replaced by names:
   devices, nets and ports are each listed sorted by name (names are
   unique within a circuit, so the sort is a total order), and device
   pins reference nets by name in pin-position order (pin positions are
   structural: swapping a transistor's gate and drain is a different
   circuit).

   Every name is written quoted as OCaml's [%S] renders it (a double
   quote, [String.escaped], a double quote), so the text -- and every
   store key derived from it -- is the same bytes the first,
   [Printf]-based version of this module produced.  Net names are
   escaped once each, however many pins reference them. *)

let add_quoted buf escaped =
  Buffer.add_char buf '"';
  Buffer.add_string buf escaped;
  Buffer.add_char buf '"'

let add buf (c : Circuit.t) =
  let quoted_net = Array.map (fun (n : Net.t) -> String.escaped n.name) c.nets in
  Buffer.add_string buf "mae-canonical 1\ncircuit ";
  add_quoted buf (String.escaped c.name);
  Buffer.add_string buf " technology ";
  add_quoted buf (String.escaped c.technology);
  Buffer.add_char buf '\n';
  let devices = Array.copy c.devices in
  Array.stable_sort
    (fun (a : Device.t) (b : Device.t) -> String.compare a.name b.name)
    devices;
  Array.iter
    (fun (d : Device.t) ->
      Buffer.add_string buf "device ";
      add_quoted buf (String.escaped d.name);
      Buffer.add_string buf " kind ";
      add_quoted buf (String.escaped d.kind);
      Buffer.add_string buf " pins";
      Array.iter
        (fun n ->
          Buffer.add_char buf ' ';
          add_quoted buf quoted_net.(n))
        d.pins;
      Buffer.add_char buf '\n')
    devices;
  (* every net is listed, connected or not: a floating net is real
     structure (it contributes to H) and must change the hash *)
  let nets = Array.init (Array.length c.nets) Fun.id in
  Array.stable_sort
    (fun i j -> String.compare c.nets.(i).Net.name c.nets.(j).Net.name)
    nets;
  Array.iter
    (fun i ->
      Buffer.add_string buf "net ";
      add_quoted buf quoted_net.(i);
      Buffer.add_char buf '\n')
    nets;
  let ports = Array.copy c.ports in
  Array.stable_sort
    (fun (a : Port.t) (b : Port.t) -> String.compare a.name b.name)
    ports;
  Array.iter
    (fun (p : Port.t) ->
      Buffer.add_string buf "port ";
      add_quoted buf (String.escaped p.name);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Port.direction_to_string p.direction);
      Buffer.add_char buf ' ';
      add_quoted buf quoted_net.(p.net);
      Buffer.add_char buf '\n')
    ports

let to_string c =
  let buf = Buffer.create 4096 in
  add buf c;
  Buffer.contents buf

let digest c = Digest.to_hex (Digest.string (to_string c))
