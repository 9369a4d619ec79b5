(** A named collection of standard cells.

    {!make} compiles every cell's transistor template once, eagerly,
    into an index form ({!template}) that {!Expand} walks without
    building or hashing any name it does not emit.  A library is
    immutable after [make], so sharing one across domains is safe. *)

type t

val make : name:string -> cells:Cell.t list -> t
(** Raises [Invalid_argument] on duplicate cell names. *)

val name : t -> string

val cells : t -> Cell.t list

val find : t -> string -> Cell.t option

val find_exn : t -> string -> Cell.t
(** Raises [Not_found]. *)

val cell_names : t -> string list
(** Sorted. *)

val check_against_process : t -> Mae_tech.Process.t -> string list
(** Names of cells (or their template transistors) whose device kinds are
    missing from the process; empty when the library and process are
    consistent. *)

(** {1 Compiled templates} *)

type terminal =
  | Pin of int  (** the instance's pin [i] *)
  | Slot of int  (** the instance's private net [slots.(j)] *)
  | Vdd
  | Gnd

type transistor = {
  suffix : string;  (** ["." ^ name]: appended to the instance name *)
  kind : string;
  drain : terminal;
  gate : terminal;
  source : terminal;
}

type template = private {
  transistors : transistor array;  (** in the cell's transistor order *)
  slots : string array;
      (** private-net suffixes (["." ^ internal], [".unconnected<i>"]),
          distinct *)
  unconnected : int array;
      (** [unconnected.(i)]: the slot an instance that omits pin [i]
          connects in its place *)
}

val template : t -> string -> template option
(** The compiled template of the named cell. *)
