type pin_role = Input | Output

type terminal =
  | Pin of int
  | Internal of string
  | Vdd
  | Gnd

type transistor = {
  name : string;
  kind : string;
  drain : terminal;
  gate : terminal;
  source : terminal;
}

type t = {
  name : string;
  pins : (string * pin_role) list;
  transistors : transistor list;
}

(* Expansion names transistor [t] of instance [x] "x.t", and its private
   net [n] "x.n".  With dot-free suffixes the last dot splits instance
   from suffix, so two instances never generate the same name. *)
let check_dot_free cell_name what name =
  if String.contains name '.' then
    invalid_arg (* invariant *)
      (Printf.sprintf "Cell.make: %s has %s %S containing '.'" cell_name what
         name)

let check_terminal cell_name pin_count = function
  | Pin i ->
      if i < 0 || i >= pin_count then
        invalid_arg (* invariant *)
          (Printf.sprintf "Cell.make: %s references pin %d of %d" cell_name i
             pin_count)
  | Internal name ->
      if String.length name = 0 then
        invalid_arg (* invariant *)
          (Printf.sprintf "Cell.make: %s has empty internal net" cell_name);
      check_dot_free cell_name "internal net" name
  | Vdd | Gnd -> ()

let make ~name ~pins ~transistors =
  if String.length name = 0 then invalid_arg "Cell.make: empty name"; (* invariant *)
  let pin_count = List.length pins in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (tx : transistor) ->
      if Hashtbl.mem seen tx.name then
        invalid_arg (* invariant *)
          (Printf.sprintf "Cell.make: %s has duplicate transistor %s" name
             tx.name);
      Hashtbl.add seen tx.name ();
      check_dot_free name "transistor" tx.name;
      check_terminal name pin_count tx.drain;
      check_terminal name pin_count tx.gate;
      check_terminal name pin_count tx.source)
    transistors;
  { name; pins; transistors }

let pin_count t = List.length t.pins

let input_count t =
  List.length (List.filter (fun (_, role) -> role = Input) t.pins)

let transistor_count t = List.length t.transistors

let pp ppf t =
  Format.fprintf ppf "%s(%s) [%d tx]" t.name
    (String.concat ", " (List.map fst t.pins))
    (transistor_count t)
