(** A standard-cell definition.

    A cell couples a device kind (whose footprint lives in the process
    database) with its logical pin list and a transistor-level template.
    The template is what lets the same schematic be estimated under both
    methodologies: the Standard-Cell estimator works on gate instances,
    while the Full-Custom estimator works on the expanded transistor
    network (section 4.2 "individual transistor layouts are used as
    Standard-Cells"). *)

type pin_role = Input | Output

type terminal =
  | Pin of int  (** index into the cell's pin list *)
  | Internal of string  (** a net private to the cell instance; dot-free *)
  | Vdd
  | Gnd

type transistor = {
  name : string;  (** suffix for the expanded instance name; dot-free *)
  kind : string;  (** transistor device kind in the process *)
  drain : terminal;
  gate : terminal;
  source : terminal;
}

type t = private {
  name : string;  (** also the device-kind name of the gate *)
  pins : (string * pin_role) list;
      (** pin order matches HDL instantiation: inputs first, outputs last *)
  transistors : transistor list;
}

val make : name:string -> pins:(string * pin_role) list -> transistors:transistor list -> t
(** Validates pin indices in templates, uniqueness of transistor names,
    and that no transistor or internal-net name contains ['.'];
    raises [Invalid_argument] otherwise.

    The dot rule is what keeps expanded names unique: instance [x1]
    yields [x1.<transistor>] and [x1.<internal>], and with dot-free
    suffixes the last ['.'] of such a name always separates the
    instance from the suffix, so two instances can never generate the
    same name.  [t] is private so every cell goes through this check. *)

val pin_count : t -> int

val input_count : t -> int

val transistor_count : t -> int

val pp : Format.formatter -> t -> unit
