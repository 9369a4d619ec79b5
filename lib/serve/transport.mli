(** Fd lifecycle for the serve plane: listeners, the accept path,
    buffered per-connection reads, the write-everything loop, the
    select round, idle reaping and the max-connection cap.

    Bytes in, {!Protocol.frame}s out (through [handle]); responses go
    back through {!send}.  Request semantics live in {!Protocol} and
    {!Dispatch}. *)

type addr = Tcp of { host : string; port : int } | Unix_sock of string

val pp_addr : Format.formatter -> addr -> unit
val parse_addr : string -> (addr, string) result

val listen_on : addr -> (Unix.file_descr * addr, string) result
(** Bind + listen; the returned address has the kernel-assigned port
    when binding TCP port 0. *)

val unlink_unix_addr : addr -> unit
val write_all : Unix.file_descr -> string -> bool

type plane = Request_plane | Obs_plane

type conn = {
  fd : Unix.file_descr;
  plane : plane;
  peer : string;
  rbuf : Buffer.t;
  mutable decoder : Protocol.decoder;
  mutable wait : Protocol.wait;
      (** what the partial frame at the start of [rbuf] awaits: a read
          re-decodes the buffer only once {!Protocol.resumes} says so *)
  mutable last_activity : float;
  mutable frames_in : int;
  mutable pending : int;
      (** submitted but unanswered dispatch jobs; {!Dispatch} maintains
          it so EOF/idle close waits for in-flight answers *)
  mutable closing : bool;
  mutable dead : bool;
}

type config = {
  max_request_bytes : int;
  idle_timeout_s : float;
  max_connections : int;
}

type t

val create : config:config -> listeners:(Unix.file_descr * plane) list -> t
val open_request_conns : t -> int

val send : t -> conn -> Protocol.framing -> Protocol.response -> unit
(** Encode and write; closes the connection on write failure or when
    {!Protocol.will_close} says so.  A no-op on a dead connection. *)

val close : t -> conn -> unit

val run_loop :
  t ->
  stop:(unit -> bool) ->
  handle:(conn -> Protocol.frame -> unit) ->
  tick:(unit -> bool) ->
  unit
(** The select loop: accept, read, decode, [handle] each frame, then
    [tick] the dispatch queue.  While [tick] reports a backlog the
    next round polls instead of sleeping. *)

val drain :
  t ->
  handle:(conn -> Protocol.frame -> unit) ->
  tick:(unit -> bool) ->
  unit
(** Shutdown path (listeners already closed): deliver every buffered
    complete frame, run [tick] until the queue is dry, close all. *)
