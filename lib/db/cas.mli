(** Content-addressed estimate store.

    Keys digest everything that determines an estimate: the canonical
    circuit text ({!Mae_netlist.Canonical} -- structure, not
    construction order), the process fingerprint
    ({!Mae_tech.Process.fingerprint}), the methodology registry version
    ({!Mae.Methodology.registry_version}) and the resolved method-name
    set.  Invalidation is by construction: retuning a process, changing
    the registry, or bumping its epoch changes every key, so stale
    entries are simply never looked up again.

    Every hit returns one entry shape, whether the entry was stored in
    this process or promoted from the journal: the
    {!Mae.Driver.module_report} with [expanded = None] and
    [issues = []], its circuit, process and method results bit-for-bit
    as first computed.  Neither dropped field is part of a serve
    answer, and the expansion would dominate the store's memory.
    Entries replayed from the journal are promoted lazily on first
    hit.  Thread-safe; lookups count into the
    [mae_estimate_cache_{hits,misses}_total] metrics. *)

type t

val create : ?live_cap:int -> unit -> t
(** [?live_cap] bounds the live (promoted) tier: past the cap the
    least-recently-used entry is evicted and counted into
    [mae_estimate_cache_evictions_total].  Recency is updated on hit,
    promotion, and insert.  Omitted means unbounded.  Raises
    [Invalid_argument] on a cap below 1.  The warm (journal-replayed)
    tier is not capped: warm entries are parsed text, an order of
    magnitude lighter than live reports, and each leaves the tier on
    its first lookup. *)

val key :
  ?methods:string list ->
  process:Mae_tech.Process.t ->
  Mae_netlist.Circuit.t ->
  string
(** The content address of (circuit, process, registry, methods).
    [?methods] must be the {e resolved} method-name list (default
    {!Mae.Methodology.default_names}); aliases like ["default"] must be
    expanded by the caller so equal selections key equal. *)

val find :
  t ->
  key:string ->
  circuit:Mae_netlist.Circuit.t ->
  process:Mae_tech.Process.t ->
  Mae.Driver.module_report option
(** Lookup, counting a hit or miss.  [circuit] and [process] are needed
    to promote a journal-replayed entry into a live report; they must be
    the pair the key was computed from.  A warm entry naming a
    methodology that is no longer registered is dropped (miss). *)

val store : t -> key:string -> Mae.Driver.module_report -> unit
(** Insert (first write wins) and append to the journal when one is
    open.  The stored entry drops the report's [expanded] and [issues];
    the caller's report is not changed.  A journal write failure
    disables persistence but never estimation. *)

val length : t -> int
(** Promoted + journal-replayed entries currently held. *)

val warm_pending : t -> int
(** Journal-replayed entries not yet promoted by a hit. *)

val eviction_count : unit -> int
(** Process-wide value of [mae_estimate_cache_evictions_total]. *)

val open_journal : t -> path:string -> (int * int, string) result
(** Replay [path] (created if absent) into the warm tier, then keep it
    open for appends.  Returns [(loaded, skipped)]: malformed blocks --
    e.g. a tail torn by a crash mid-append -- are skipped (a skip is
    just a future miss), parsing resyncs at the next entry header.
    [Error] only on I/O failure. *)

val close_journal : t -> unit

val to_store : t -> Store.t
(** Flatten promoted entries into a floor-planner {!Store} snapshot.
    Entries whose method set cannot feed a {!Record} (narrower than the
    default set) are omitted, as are unpromoted journal entries. *)
