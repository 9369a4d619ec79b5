type terminal = Pin of int | Slot of int | Vdd | Gnd

type transistor = {
  suffix : string;
  kind : string;
  drain : terminal;
  gate : terminal;
  source : terminal;
}

type template = {
  transistors : transistor array;
  slots : string array;
  unconnected : int array;
}

type entry = { cell : Cell.t; template : template }

type t = { name : string; table : (string, entry) Hashtbl.t }

(* One slot per distinct private-net suffix.  A missing pin [i] is the
   private net ".unconnected<i>", so an internal net of that name shares
   its slot, as it shares the expanded name. *)
let compile (c : Cell.t) =
  let index = Hashtbl.create 8 in
  let slot suffix =
    match Hashtbl.find_opt index suffix with
    | Some j -> j
    | None ->
        let j = Hashtbl.length index in
        Hashtbl.add index suffix j;
        j
  in
  let terminal : Cell.terminal -> terminal = function
    | Pin i -> Pin i
    | Internal n -> Slot (slot ("." ^ n))
    | Vdd -> Vdd
    | Gnd -> Gnd
  in
  let transistors =
    Array.of_list
      (List.map
         (fun (tx : Cell.transistor) ->
           let drain = terminal tx.drain in
           let gate = terminal tx.gate in
           let source = terminal tx.source in
           { suffix = "." ^ tx.name; kind = tx.kind; drain; gate; source })
         c.transistors)
  in
  let unconnected =
    Array.init (Cell.pin_count c) (fun i ->
        slot (".unconnected" ^ string_of_int i))
  in
  let slots = Array.make (Hashtbl.length index) "" in
  Hashtbl.iter (fun suffix j -> slots.(j) <- suffix) index;
  { transistors; slots; unconnected }

let make ~name ~cells =
  let table = Hashtbl.create 32 in
  List.iter
    (fun (c : Cell.t) ->
      if Hashtbl.mem table c.name then
        invalid_arg ("Library.make: duplicate cell " ^ c.name); (* invariant *)
      Hashtbl.add table c.name { cell = c; template = compile c })
    cells;
  { name; table }

let name t = t.name

let cells t = Hashtbl.fold (fun _ e acc -> e.cell :: acc) t.table []

let find t cell_name =
  Option.map (fun e -> e.cell) (Hashtbl.find_opt t.table cell_name)

let find_exn t cell_name =
  match find t cell_name with Some c -> c | None -> raise Not_found

let template t cell_name =
  Option.map (fun e -> e.template) (Hashtbl.find_opt t.table cell_name)

let cell_names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.table [] |> List.sort String.compare

let check_against_process t process =
  let missing = ref [] in
  let check_kind owner kind =
    if Option.is_none (Mae_tech.Process.find_device process kind) then
      missing := (owner ^ ":" ^ kind) :: !missing
  in
  Hashtbl.iter
    (fun _ { cell = c; _ } ->
      check_kind c.name c.name;
      List.iter (fun (tx : Cell.transistor) -> check_kind c.name tx.kind) c.transistors)
    t.table;
  List.sort_uniq String.compare !missing
