(** Expansion of a gate-level schematic into a transistor-level one.

    Section 4.2 estimates full-custom area at the transistor level
    ("individual transistor layouts are used as Standard-Cells"), so a
    gate-level schematic must be flattened before full-custom estimation.

    {b Names.}  Instance [x1] of a cell with transistors [pd0], ... and
    internal net [m] produces devices [x1.pd0], ... and net [x1.m].  A
    device with fewer pins than its cell connects each missing pin [i]
    to the private net [x1.unconnected<i>] (one net per instance and
    pin, however many transistors use it).  The rails, when kept, are
    [vdd!] and [gnd!].  Gate nets keep their names.

    {b Merging.}  Nets are merged by name, exactly as a name-keyed
    {!Mae_netlist.Builder} would: a gate net whose name equals a
    generated one {e is} that net.  A user net named [x1.m] is instance
    [x1]'s internal node [m], [x1.unconnected2] is its floating pin 2,
    and a net named [vdd!] is the supply rail.  Generated names never
    collide with each other, because {!Cell.make} keeps transistor and
    internal-net names free of ['.'].

    {b Order.}  Devices are numbered instance by instance in the input's
    device order, and within an instance in the cell's transistor order.
    Nets are numbered on first use in that same walk, drain before gate
    before source; nets reached only through ports come last, in port
    order.  The result is built by {!Mae_netlist.Circuit.make}, so it is
    the circuit that adding the devices and then the ports to a
    {!Mae_netlist.Builder} would give, down to [=]. *)

type error =
  | Unknown_cell of { device : string; kind : string }
      (** the library has no template for this device kind *)

val pp_error : Format.formatter -> error -> unit

val circuit :
  ?include_supplies:bool ->
  Library.t ->
  Mae_netlist.Circuit.t ->
  (Mae_netlist.Circuit.t, error) result
(** Flatten every device through its library template.  Devices whose kind
    is already a transistor in the library's processes should not appear in
    the input; any kind missing from the library is an error, reported
    for the first such device in device order.

    When [include_supplies] is false (the default) the VDD and GND rails
    are omitted from the result: supply rails are routed as planned power
    buses, not as signal wiring, and would otherwise dominate the net
    degree histogram that drives the estimator.  Pass [true] to keep them
    as nets named [vdd!] and [gnd!]. *)

val transistor_count : Library.t -> Mae_netlist.Circuit.t -> (int, error) result
(** Total transistors the expansion would produce, without building it. *)
