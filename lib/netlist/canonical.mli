(** Canonical circuit serialization and digest.

    The estimate store ({!Mae_db.Cas}) keys results by content: two
    structurally identical circuits -- same name, technology, devices,
    nets, ports and pin connectivity -- must produce the same key
    regardless of the order their builders created nets and devices in.
    This module renders a circuit into a normal form (devices, nets and
    ports sorted by name; pins referencing nets by name in pin order)
    and digests it. *)

val to_string : Circuit.t -> string
(** The canonical text.  Deterministic and construction-order
    independent; names are quoted so adversarial names cannot collide
    two different circuits onto one rendering.  The bytes are stable:
    each name is rendered exactly as [Printf]'s [%S] renders it, so
    store keys written by earlier versions still match. *)

val add : Buffer.t -> Circuit.t -> unit
(** [add buf c] appends {!to_string}[ c] to [buf], for callers that
    digest the canonical text together with more fields. *)

val digest : Circuit.t -> string
(** Hex MD5 of {!to_string}.  Equal for structurally identical circuits;
    any structural mutation (adding/removing a device or net, rewiring a
    pin, renaming, changing a port direction) changes it. *)
