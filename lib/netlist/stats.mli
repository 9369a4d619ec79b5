(** Scans a circuit schematic for the quantities the estimator consumes.

    These are exactly the parameters listed in section 4 of the paper:
    N (devices), H (nets), W_i and X_i (distinct device widths and their
    multiplicities), W_avg (equation 1), and y_i (the net-degree
    histogram). *)

exception Unknown_kind of string
(** Raised when a device's kind is not present in the process. *)

type t = {
  device_count : int;  (** N *)
  net_count : int;  (** H, floating (degree-0) nets included *)
  port_count : int;  (** I/O ports of the module *)
  width_classes : (Mae_geom.Lambda.t * int) list;
      (** (W_i, X_i) pairs, widths ascending: X_i devices share width W_i *)
  average_width : Mae_geom.Lambda.t;
      (** W_avg, equation (1): device widths summed in device-index order,
          divided by N; 0 when N = 0 *)
  average_height : Mae_geom.Lambda.t;
      (** h_avg, used by equation (13): the same fold over device heights *)
  total_device_area : Mae_geom.Lambda.area;
      (** sum of exact device areas in device-index order ("active cell
          area") *)
  degree_histogram : (int * int) list;
      (** (D, y_D) pairs, D ascending: y_D nets have exactly D components;
          only nets with D >= 1 appear *)
  max_degree : int;  (** 0 for a circuit with no connected nets *)
}

val compute : Circuit.t -> Mae_tech.Process.t -> t
(** Raises {!Unknown_kind} when the schematic references a device kind the
    process does not define. *)

val device_widths : Circuit.t -> Mae_tech.Process.t -> Mae_geom.Lambda.t array
(** Per-device width, indexed by device index.  Raises {!Unknown_kind}. *)

val device_areas : Circuit.t -> Mae_tech.Process.t -> Mae_geom.Lambda.area array
(** Per-device exact area.  Raises {!Unknown_kind}. *)

val pp : Format.formatter -> t -> unit
