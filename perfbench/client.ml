(* The serve-side harness: forks `mae serve`, talks HTTP/1.1 to it, and
   drives open-loop load from one single-threaded select loop. *)

module Json = Mae_obs.Json

(* --- HTTP framing --- *)

let find_sub hay needle from =
  let nn = String.length needle and nh = String.length hay in
  let rec matches i j = j = nn || (hay.[i + j] = needle.[j] && matches i (j + 1)) in
  let rec at i = if i + nn > nh then -1 else if matches i 0 then i else at (i + 1) in
  at from

let content_length head =
  let lower = String.lowercase_ascii head in
  let i = find_sub lower "content-length:" 0 in
  if i < 0 then 0
  else
    let j = try String.index_from lower i '\r' with Not_found -> String.length lower in
    int_of_string (String.trim (String.sub lower (i + 15) (j - i - 15)))

(* One complete response at [off] of [buf]: status, body and the offset
   just past it; [None] while bytes are missing. *)
let parse_response buf off =
  let h = find_sub buf "\r\n\r\n" off in
  if h < 0 then None
  else begin
    let head = String.sub buf off (h - off) in
    let len = content_length head in
    if String.length buf < h + 4 + len then None
    else
      let status =
        match String.split_on_char ' ' head with
        | _ :: code :: _ -> Option.value (int_of_string_opt code) ~default:0
        | _ -> 0
      in
      Some (status, String.sub buf (h + 4) len, h + 4 + len)
  end

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* A blocking one-shot request (health checks, /metrics scrapes). *)
let get ~port path =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd
        (Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n" path)
        0;
      let chunk = Bytes.create 65536 in
      let rec go acc =
        match parse_response acc 0 with
        | Some (status, body, _) -> (status, body)
        | None ->
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n = 0 then (0, acc) else go (acc ^ Bytes.sub_string chunk 0 n)
      in
      go "")

let post_bytes body =
  Printf.sprintf
    "POST /estimate HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    (String.length body) body

let estimate_body ~id ?methods hdl =
  Json.encode
    (Json.Object
       ([ ("id", Json.Number (float_of_int id)); ("hdl", Json.String hdl) ]
       @ match methods with Some m -> [ ("methods", Json.String m) ] | None -> []))

(* --- /metrics --- *)

(* Unlabelled samples of a Prometheus text document. *)
let scrape ~port =
  let status, body = get ~port "/metrics" in
  if status <> 200 then Util.fail "/metrics answered %d" status;
  let t = Hashtbl.create 128 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' && not (String.contains line '{') then
        match String.split_on_char ' ' line with
        | [ name; v ] -> (
            match float_of_string_opt v with
            | Some f -> Hashtbl.replace t name f
            | None -> ())
        | _ -> ())
    (String.split_on_char '\n' body);
  t

let metric t name = Option.value (Hashtbl.find_opt t name) ~default:0.
let delta before after name = metric after name -. metric before name

(* --- the daemon --- *)

type daemon = { pid : int; port : int }

let live : int list ref = ref []

let stop d =
  if List.mem d.pid !live then begin
    live := List.filter (( <> ) d.pid) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Util.now () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Util.now () < deadline ->
          Unix.sleepf 0.005;
          wait ()
      | 0, _ ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

let () =
  at_exit (fun () -> List.iter (fun pid -> stop { pid; port = 0 }) !live)

let ready_marker = "serving estimation requests on 127.0.0.1:"

(* Fork/exec `mae serve` on a kernel-assigned loopback port and wait for
   the first 200 from /healthz.  Returns the daemon and that set-up
   time.  The daemon's stderr (its access log, at the default level)
   goes to [log]. *)
let spawn ~mae ~args ~log =
  let t0 = Util.now () in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Unix.create_process mae
      (Array.of_list (mae :: "serve" :: "--listen" :: "127.0.0.1:0" :: args))
      Unix.stdin out out
  in
  Unix.close out;
  live := pid :: !live;
  let d = { pid; port = 0 } in
  let deadline = t0 +. 30. in
  let check_alive () =
    if Util.now () > deadline then Util.fail "daemon not ready after 30 s";
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        live := List.filter (( <> ) pid) !live;
        Util.fail "daemon exited during start-up: %s" (Util.read_file log)
  in
  let rec port () =
    check_alive ();
    let s = Util.read_file log in
    let i = find_sub s ready_marker 0 in
    let j = i + String.length ready_marker in
    let k = ref j in
    while i >= 0 && !k < String.length s && s.[!k] >= '0' && s.[!k] <= '9' do
      incr k
    done;
    if i >= 0 && !k > j && !k < String.length s then
      int_of_string (String.sub s j (!k - j))
    else begin
      Unix.sleepf 0.0005;
      port ()
    end
  in
  let d = { d with port = port () } in
  let rec healthy () =
    check_alive ();
    match get ~port:d.port "/healthz" with
    | 200, _ -> ()
    | _ | (exception Unix.Unix_error _) ->
        Unix.sleepf 0.0005;
        healthy ()
  in
  healthy ();
  (d, Util.now () -. t0)

(* --- open-loop load --- *)

type conn = {
  fd : Unix.file_descr;
  out : string Queue.t;  (** requests not yet fully written *)
  mutable out_off : int;  (** bytes of the head already written *)
  inbuf : Buffer.t;
  pending : int Queue.t;
  mutable dead : bool;
}

type outcome = {
  sched : float array;  (** when each request was due *)
  sent : float array;  (** when the generator issued it (its send lag) *)
  done_at : float array;  (** completion; NaN when never answered *)
  status : int array;  (** 0 when never answered *)
  bodies : string array;
}

(* Issue [requests.(i)] at [start + i / rate] over [conns] keep-alive
   connections whatever the state of earlier requests, and collect every
   response.  A connection carries at most [depth] requests in flight
   (pipelined); a request due while every connection is full waits in
   the generator's own FIFO and is still timed from its schedule.
   Requests unanswered [timeout_s] after the last send count as
   failed. *)
let open_loop ~port ~conns ~depth ~rate ~timeout_s requests =
  let n = Array.length requests in
  let cs =
    Array.init conns (fun _ ->
        let fd = connect port in
        Unix.set_nonblock fd;
        {
          fd;
          out = Queue.create ();
          out_off = 0;
          inbuf = Buffer.create 65536;
          pending = Queue.create ();
          dead = false;
        })
  in
  let start = Util.now () +. 0.005 in
  let sched = Array.init n (fun i -> start +. (float_of_int i /. rate)) in
  let sent = Array.make n Float.nan in
  let done_at = Array.make n Float.nan in
  let status = Array.make n 0 in
  let bodies = Array.make n "" in
  let next = ref 0 and answered = ref 0 in
  let waiting = Queue.create () in
  let chunk = Bytes.create 65536 in
  let kill c =
    c.dead <- true;
    answered := !answered + Queue.length c.pending;
    Queue.clear c.pending
  in
  let rec flush c =
    if (not c.dead) && not (Queue.is_empty c.out) then begin
      let s = Queue.peek c.out in
      match Unix.write_substring c.fd s c.out_off (String.length s - c.out_off) with
      | k ->
          c.out_off <- c.out_off + k;
          if c.out_off = String.length s then begin
            ignore (Queue.pop c.out);
            c.out_off <- 0;
            flush c
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> kill c
    end
  in
  (* hand waiting requests to connections with room, least loaded first *)
  let dispatch () =
    let rec go () =
      if not (Queue.is_empty waiting) then begin
        let best = ref None in
        Array.iter
          (fun c ->
            if (not c.dead) && Queue.length c.pending < depth then
              match !best with
              | Some b when Queue.length b.pending <= Queue.length c.pending -> ()
              | _ -> best := Some c)
          cs;
        match !best with
        | None -> if Array.for_all (fun c -> c.dead) cs then begin
              answered := !answered + Queue.length waiting;
              Queue.clear waiting
            end
        | Some c ->
            let i = Queue.pop waiting in
            Queue.push requests.(i) c.out;
            Queue.push i c.pending;
            flush c;
            go ()
      end
    in
    go ()
  in
  let read c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> kill c
    | k ->
        Buffer.add_subbytes c.inbuf chunk 0 k;
        let t = Util.now () in
        let buf = Buffer.contents c.inbuf in
        let rec take off =
          match parse_response buf off with
          | Some (st, body, off') when not (Queue.is_empty c.pending) ->
              let i = Queue.pop c.pending in
              done_at.(i) <- t;
              status.(i) <- st;
              bodies.(i) <- body;
              incr answered;
              take off'
          | _ -> off
        in
        let off = take 0 in
        if off > 0 then begin
          Buffer.clear c.inbuf;
          Buffer.add_substring c.inbuf buf off (String.length buf - off)
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> kill c
  in
  let send_end = ref start in
  let finished = ref false in
  while not !finished do
    let t = Util.now () in
    while !next < n && sched.(!next) <= t do
      sent.(!next) <- t;
      Queue.push !next waiting;
      incr next;
      if !next = n then send_end := t
    done;
    dispatch ();
    if !answered >= n then finished := true
    else if !next >= n && t > !send_end +. timeout_s then finished := true
    else begin
      let wait =
        if !next < n then Float.max 0. (sched.(!next) -. t)
        else Float.min 0.05 (!send_end +. timeout_s -. t)
      in
      let live_cs = List.filter (fun c -> not c.dead) (Array.to_list cs) in
      let rd = List.map (fun c -> c.fd) live_cs in
      let wr = List.filter_map (fun c -> if Queue.is_empty c.out then None else Some c.fd) live_cs in
      match Unix.select rd wr [] wait with
      | r, w, _ ->
          List.iter (fun c -> if List.memq c.fd w then flush c) live_cs;
          List.iter (fun c -> if List.memq c.fd r then read c) live_cs
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs;
  { sched; sent; done_at; status; bodies }
