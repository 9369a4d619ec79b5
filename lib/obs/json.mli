(** Dependency-free JSON support for the telemetry artifacts.

    The exporters in {!Trace} and {!Metrics} build their documents with
    [Buffer] and {!escape}; this module's parser lets tests and the
    [@obs-smoke] gate check those artifacts are well formed without
    pulling a JSON library into the build. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

val escape : string -> string
(** [escape s] is [s] as a quoted JSON string literal (quotes
    included), with control characters, backslashes and quotes
    escaped. *)

val write : Buffer.t -> t -> unit
(** Append the compact one-line encoding of a document to a buffer.
    Integer-valued numbers print without a decimal point; other floats
    round-trip. *)

val encode : t -> string
(** {!write} into a fresh string.  [parse (encode v)] is [Ok v] for
    any [v] whose numbers survive float round-tripping. *)

val parse : string -> (t, string) result
(** Full-grammar JSON parser (objects, arrays, numbers, escapes
    including surrogate pairs).  Rejects trailing garbage. *)

val parse_sub : string -> off:int -> len:int -> (t, string) result
(** [parse_sub s ~off ~len] is [parse (String.sub s off len)] without
    the copy; error offsets count from [off].  Raises
    [Invalid_argument] when the window is not inside [s]. *)

val member : string -> t -> t option
(** First field of that name, when the value is an object. *)

val to_list : t -> t list option
val to_string : t -> string option
val to_number : t -> float option
