(* Protocol: the pure request/response codec of the serve plane.

   Both wire dialects decode into the same typed [request]:

   - line-delimited JSON (the original request plane): one request per
     newline-terminated line;
   - HTTP/1.1 with Content-Length framing and keep-alive (plus an
     HTTP/1.0 close-by-default fallback): [GET] paths are scrapes,
     [POST /estimate] bodies are estimation requests.

   [decode] is an incremental step function over a connection buffer:
   feed it whatever bytes arrived, get back at most one frame plus the
   number of bytes it consumed.  No sockets, no clocks, no globals --
   the whole codec is unit-testable with strings, which is the point
   of the layer. *)

module Json = Mae_obs.Json

type estimate = {
  id : Json.t;  (** the client's "id" field, echoed back; Null if absent *)
  hdl : string;
  methods : string list option;  (** validated against the registry *)
  sleep_s : float option;
      (** the "sleep_s" overload-injector field, parsed here but only
          honoured when the daemon config opts in *)
}

type http_version = V10 | V11

type framing =
  | Line
  | Http of { version : http_version; keep_alive : bool }

type request =
  | Estimate of estimate
  | Scrape of { path : string }  (** GET: the observability documents *)
  | Invalid of { id : Json.t; error : string }
      (** a well-framed request with bad content (malformed JSON, bad
          "methods", missing "hdl"): answered, counted, and -- the
          keep-alive contract -- the connection survives it *)
  | Malformed of { status : int; error : string }
      (** an HTTP framing error (bad request line, bad Content-Length):
          answered as text and the connection closes, because the codec
          cannot trust where the next request starts *)
  | Too_large of { limit : int }
      (** a line or body over the limit: answered, the oversized input
          is discarded, and the connection resynchronizes at the next
          newline *)
  | Not_allowed of { meth : string }  (** any HTTP method we don't serve *)

type frame = { request : request; framing : framing; bytes : int }

(* After an oversized line without a newline in sight the decoder
   discards input until the newline that ends it, then resumes. *)
type decoder = Ready | Discard_line

let initial = Ready

(* What a partial frame waits for, so the transport re-decodes it only
   when it can complete: the frame starts at position 0 of the buffer. *)
type wait =
  | Bytes of int  (* the buffer holds this many bytes *)
  | Newline of int  (* a '\n' arrives, or the buffer exceeds this size *)
  | Head_end of int  (* a head terminator arrives, or the buffer exceeds this *)

type step =
  | Frame of frame * decoder * int
  | Skip of decoder * int
  | Await of wait

(* --- the request body: one JSON document --- *)

(* The optional "methods" request field: a comma-separated string or an
   array of names, validated against the registry before estimation so a
   typo answers with a request error listing what is registered. *)
let parse_methods doc =
  match Json.member "methods" doc with
  | None -> Ok None
  | Some (Json.String s) -> begin
      match Mae.Methodology.selection_of_string s with
      | Ok names -> Ok (Some names)
      | Error e -> Error e
    end
  | Some (Json.Array items) -> begin
      let rec strings acc = function
        | [] -> Some (List.rev acc)
        | Json.String s :: rest -> strings (s :: acc) rest
        | _ -> None
      in
      match strings [] items with
      | None -> Error "\"methods\" entries must be strings"
      | Some [] -> Error "empty method set"
      | Some names -> begin
          match Mae.Methodology.selection_of_string (String.concat "," names) with
          | Ok names -> Ok (Some names)
          | Error e -> Error e
        end
    end
  | Some _ -> Error "\"methods\" must be a string or an array of strings"

(* One JSON request document -- the shared body semantics of both
   dialects -- read straight out of the connection buffer's
   [off, off + len) window, without copying it first. *)
let request_of_body buf ~off ~len =
  match Json.parse_sub buf ~off ~len with
  | Error e -> Invalid { id = Json.Null; error = "bad request JSON: " ^ e }
  | Ok doc -> begin
      let id = Option.value (Json.member "id" doc) ~default:Json.Null in
      let sleep_s =
        match Json.member "sleep_s" doc with
        | Some (Json.Number s) when s > 0. && s <= 5. -> Some s
        | _ -> None
      in
      match parse_methods doc with
      | Error e -> Invalid { id; error = "bad \"methods\": " ^ e }
      | Ok methods -> begin
          match Json.member "hdl" doc with
          | Some (Json.String text) ->
              Estimate { id; hdl = text; methods; sleep_s }
          | Some _ -> Invalid { id; error = "\"hdl\" must be a string" }
          | None -> Invalid { id; error = "request needs an \"hdl\" field" }
        end
    end

(* --- dialect detection --- *)

let http_methods =
  [ "GET"; "POST"; "HEAD"; "PUT"; "DELETE"; "OPTIONS"; "PATCH" ]

(* Does the buffer, from [off], start an HTTP request?  [`Maybe] while
   the rest is still a proper prefix of some "METHOD " token -- the
   caller waits for more bytes before committing to a dialect.  A
   line-JSON request can never be mistaken: it starts with '{' (or
   anything that is not an HTTP method name). *)
let looks_http buf off =
  let n = String.length buf - off in
  let rec same m i lim = i >= lim || (buf.[off + i] = m.[i] && same m (i + 1) lim) in
  let classify m =
    let lm = String.length m in
    if n > lm then if same m 0 lm && buf.[off + lm] = ' ' then `Yes else `No
    else if same m 0 n then `Maybe
    else `No
  in
  List.fold_left
    (fun acc m ->
      match (acc, classify m) with
      | `Yes, _ | _, `Yes -> `Yes
      | `Maybe, _ | _, `Maybe -> `Maybe
      | `No, `No -> `No)
    `No http_methods

(* --- line dialect --- *)

let strip_cr line =
  if String.length line > 0 && line.[String.length line - 1] = '\r' then
    String.sub line 0 (String.length line - 1)
  else line

let decode_line ~max_bytes buf off =
  let n = String.length buf - off in
  match String.index_from_opt buf off '\n' with
  | Some nl ->
      let len = if nl > off && buf.[nl - 1] = '\r' then nl - off - 1 else nl - off in
      if len > max_bytes then
        Frame
          ( { request = Too_large { limit = max_bytes };
              framing = Line;
              bytes = len },
            Ready, nl - off + 1 )
      else if len = 0 then Skip (Ready, nl - off + 1)
      else
        Frame
          ( { request = request_of_body buf ~off ~len; framing = Line; bytes = len },
            Ready, nl - off + 1 )
  | None ->
      if n > max_bytes then
        (* no newline yet and already over budget: answer now and
           discard until the line finally ends *)
        Frame
          ( { request = Too_large { limit = max_bytes };
              framing = Line;
              bytes = n },
            Discard_line, n )
      else Await (Newline max_bytes)

(* --- HTTP dialect --- *)

(* The request head may not exceed this, like the old obs plane's
   64 KiB buffer bound.  Bodies are bounded by [max_bytes]. *)
let max_head_bytes = 65536

(* Earliest of "\r\n\r\n" or a bare "\n\n" (tolerated like the old
   plane did) at or after [off]; returns (head_end, body_offset) as
   buffer positions.  One pass that stops at the first terminator, so
   the body and any pipelined requests behind it are never scanned. *)
let head_terminator buf off =
  let n = String.length buf in
  let rec at i =
    if i + 1 >= n then None
    else
      match String.unsafe_get buf i with
      | '\n' when String.unsafe_get buf (i + 1) = '\n' -> Some (i, i + 2)
      | '\r'
        when i + 3 < n
             && String.unsafe_get buf (i + 1) = '\n'
             && String.unsafe_get buf (i + 2) = '\r'
             && String.unsafe_get buf (i + 3) = '\n' ->
          Some (i, i + 4)
      | _ -> at (i + 1)
  in
  at off

type head = {
  meth : string;
  target : string;
  version : http_version option;
  headers : (string * string) list;  (** names lowercased, values trimmed *)
}

let parse_head text =
  let lines =
    String.split_on_char '\n' text |> List.map strip_cr
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> Error "bad request line"
  | request_line :: header_lines ->
      let tokens =
        String.split_on_char ' ' request_line
        |> List.filter (fun t -> t <> "")
      in
      (match tokens with
      | [ meth; target; v ] ->
          let version =
            match v with
            | "HTTP/1.1" -> Some V11
            | "HTTP/1.0" -> Some V10
            | _ -> None
          in
          let headers =
            List.filter_map
              (fun l ->
                match String.index_opt l ':' with
                | None -> None
                | Some i ->
                    Some
                      ( String.lowercase_ascii (String.trim (String.sub l 0 i)),
                        String.trim
                          (String.sub l (i + 1) (String.length l - i - 1)) ))
              header_lines
          in
          Ok { meth; target; version; headers }
      | _ -> Error "bad request line")

let wants_keep_alive version headers =
  let conn =
    Option.map String.lowercase_ascii (List.assoc_opt "connection" headers)
  in
  match version with
  | V11 -> conn <> Some "close"
  | V10 -> conn = Some "keep-alive"

let strip_query target =
  match String.index_opt target '?' with
  | Some i -> String.sub target 0 i
  | None -> target

(* The bounds of [String.trim] applied to [buf]'s [off, off + len)
   window, without the copy. *)
let trimmed buf ~off ~len =
  let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false in
  let rec first i = if i < off + len && is_space buf.[i] then first (i + 1) else i in
  let start = first off in
  let rec last j = if j > start && is_space buf.[j - 1] then last (j - 1) else j in
  (start, last (off + len) - start)

let decode_http ~max_bytes buf off =
  let n = String.length buf - off in
  match head_terminator buf off with
  | None ->
      if n > max_head_bytes then
        Frame
          ( { request = Too_large { limit = max_head_bytes };
              framing = Http { version = V10; keep_alive = false };
              bytes = n },
            Ready, n )
      else Await (Head_end max_head_bytes)
  | Some (head_end, body_start) -> begin
      let body_off = body_start - off in
      let closing err status =
        (* a framing error poisons the rest of the buffer: consume it
           all, answer, close *)
        Frame
          ( { request = Malformed { status; error = err };
              framing = Http { version = V10; keep_alive = false };
              bytes = n },
            Ready, n )
      in
      match parse_head (String.sub buf off (head_end - off)) with
      | Error e -> closing e 400
      | Ok h -> begin
          let version = Option.value h.version ~default:V10 in
          let keep_alive =
            match h.version with
            | None -> false
            | Some v -> wants_keep_alive v h.headers
          in
          let framing = Http { version; keep_alive } in
          match
            match List.assoc_opt "content-length" h.headers with
            | None -> Ok 0
            | Some s -> (
                match int_of_string_opt (String.trim s) with
                | Some l when l >= 0 -> Ok l
                | _ -> Error "bad Content-Length")
          with
          | Error e -> closing e 400
          | Ok body_len ->
              if body_len > max_bytes then
                Frame
                  ( { request = Too_large { limit = max_bytes };
                      framing = Http { version; keep_alive = false };
                      bytes = n },
                    Ready, n )
              else if n - body_off < body_len then Await (Bytes (body_off + body_len))
              else begin
                let consumed = body_off + body_len in
                let path = strip_query h.target in
                let request =
                  match h.meth with
                  | "GET" -> Scrape { path }
                  | "POST" ->
                      if path = "/estimate" || path = "/" then
                        if body_len = 0 then
                          Invalid
                            { id = Json.Null;
                              error =
                                "POST needs a JSON request body (with \
                                 Content-Length)" }
                        else
                          let off, len = trimmed buf ~off:body_start ~len:body_len in
                          request_of_body buf ~off ~len
                      else
                        Malformed
                          { status = 404;
                            error =
                              Printf.sprintf
                                "POST %s is not served; try POST /estimate"
                                path }
                  | m -> Not_allowed { meth = m }
                in
                Frame ({ request; framing; bytes = body_len }, Ready, consumed)
              end
        end
    end

let decode ?(off = 0) ~max_bytes state buf =
  if off < 0 || off > String.length buf then
    invalid_arg "Protocol.decode: offset" (* invariant *);
  if String.length buf = off then Await (Bytes 1)
  else
    match state with
    | Discard_line -> begin
        match String.index_from_opt buf off '\n' with
        | Some nl -> Skip (Ready, nl - off + 1)
        | None -> Skip (Discard_line, String.length buf - off)
      end
    | Ready -> begin
        match looks_http buf off with
        | `Maybe -> Await (Bytes (String.length buf - off + 1))
        | `Yes -> decode_http ~max_bytes buf off
        | `No -> decode_line ~max_bytes buf off
      end

(* Whether the bytes of [buf] from [from] on may complete the frame
   awaiting [wait]: one look at each new byte, and the 3 before it for
   a head terminator (a "\n\n" or "\r\n\r\n" ending at [i]). *)
let resumes wait buf ~from =
  let len = Buffer.length buf in
  let byte i = if i < 0 then '\000' else Buffer.nth buf i in
  let rec arrives ends_at i = i < len && (ends_at i || arrives ends_at (i + 1)) in
  match wait with
  | Bytes need -> len >= need
  | Newline limit -> len > limit || arrives (fun i -> byte i = '\n') from
  | Head_end limit ->
      len > limit
      || arrives
           (fun i ->
             byte i = '\n'
             && (byte (i - 1) = '\n'
                || (byte (i - 1) = '\r' && byte (i - 2) = '\n' && byte (i - 3) = '\r')))
           from

(* --- responses --- *)

type body = Json_body of Json.t | Text of string

type response = {
  status : int;
  content_type : string;
  body : body;
  retry_after_s : int option;
      (** the admission-control hint: sent as Retry-After on HTTP and
          as a "retry_after_s" field callers place in the JSON body *)
}

let json_response ?(status = 200) ?retry_after_s doc =
  { status; content_type = "application/json"; body = Json_body doc;
    retry_after_s }

let text_response ?(status = 200) ?(content_type = "text/plain") text =
  { status; content_type; body = Text text; retry_after_s = None }

let status_text = function
  | 200 -> "200 OK"
  | 400 -> "400 Bad Request"
  | 404 -> "404 Not Found"
  | 405 -> "405 Method Not Allowed"
  | 413 -> "413 Content Too Large"
  | 500 -> "500 Internal Server Error"
  | 503 -> "503 Service Unavailable"
  | s -> Printf.sprintf "%d Status" s

let body_string r =
  match r.body with Json_body doc -> Json.encode doc ^ "\n" | Text s -> s

(* A response that poisons framing closes the connection even under
   keep-alive: after Too_large the client's next bytes may be the tail
   of the oversized body. *)
let will_close framing r =
  match framing with
  | Line -> false
  | Http { keep_alive; _ } -> (not keep_alive) || r.status = 413

let version_string = function V10 -> "HTTP/1.0" | V11 -> "HTTP/1.1"

let encode framing r =
  match framing with
  | Line -> body_string r
  | Http { version; keep_alive = _ } as f ->
      let body = body_string r in
      Printf.sprintf
        "%s %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: \
         %s\r\n\r\n%s"
        (version_string version) (status_text r.status) r.content_type
        (String.length body)
        (match r.retry_after_s with
        | None -> ""
        | Some s -> Printf.sprintf "Retry-After: %d\r\n" s)
        (if will_close f r then "close" else "keep-alive")
        body
