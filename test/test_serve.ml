(* Protocol codec tests: the pure request/response layer of the serve
   plane, exercised entirely with strings -- no sockets, no clocks.

   Covers both wire dialects (line JSON and HTTP/1.1), split-read
   invariance of the incremental decoder, oversize resynchronization
   through [Discard_line], keep-alive negotiation, adversarial headers,
   and the response encoder (Content-Length framing, Connection and
   Retry-After headers, version echo). *)

module P = Mae_serve.Protocol
module Json = Mae_obs.Json
module S = Mae_test_support.Support

let () = Mae_baselines.Methods.ensure_registered ()

(* Small budget so oversize cases stay cheap to build. *)
let max_bytes = 256

let decode ?(max_bytes = max_bytes) st buf = P.decode ~max_bytes st buf

let frame_exn what buf =
  match decode P.initial buf with
  | P.Frame (f, dec, consumed) -> (f, dec, consumed)
  | P.Skip _ -> Alcotest.failf "%s: expected a frame, got Skip" what
  | P.Await _ -> Alcotest.failf "%s: expected a frame, got Await" what

let request_exn what buf =
  let f, _, _ = frame_exn what buf in
  f.P.request

let estimate_exn what buf =
  match request_exn what buf with
  | P.Estimate e -> e
  | _ -> Alcotest.failf "%s: expected Estimate" what

let invalid_exn what buf =
  match request_exn what buf with
  | P.Invalid { id; error } -> (id, error)
  | _ -> Alcotest.failf "%s: expected Invalid" what

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
  in
  at 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in %S" what needle hay

let obj fields = Json.encode (Json.Object fields)

let est_line ?(id = Json.Number 7.) hdl =
  obj [ ("id", id); ("hdl", Json.String hdl) ]

(* --- line dialect --- *)

let line_basics () =
  let line = est_line "circuit c; end c" in
  let f, dec, consumed = frame_exn "lf line" (line ^ "\n") in
  Alcotest.(check bool) "decoder back to Ready" true (dec = P.Ready);
  Alcotest.(check int) "consumes through newline" (String.length line + 1)
    consumed;
  Alcotest.(check bool) "line framing" true (f.P.framing = P.Line);
  Alcotest.(check int) "frame bytes = line length" (String.length line)
    f.P.bytes;
  (match f.P.request with
  | P.Estimate { id; hdl; methods; sleep_s } ->
      Alcotest.(check bool) "id echoed" true (id = Json.Number 7.);
      Alcotest.(check string) "hdl text" "circuit c; end c" hdl;
      Alcotest.(check bool) "no methods" true (methods = None);
      Alcotest.(check bool) "no sleep_s" true (sleep_s = None)
  | _ -> Alcotest.fail "expected Estimate");
  (* CRLF line endings decode to the same request. *)
  let f2, _, consumed2 = frame_exn "crlf line" (line ^ "\r\n") in
  Alcotest.(check bool) "CRLF stripped" true (f2.P.request = f.P.request);
  Alcotest.(check int) "CRLF consumed" (String.length line + 2) consumed2;
  (* Only the first line is consumed when more bytes follow. *)
  let _, _, consumed3 = frame_exn "pipelined" (line ^ "\n" ^ line ^ "\n") in
  Alcotest.(check int) "stops at first newline" (String.length line + 1)
    consumed3

let line_blank_and_await () =
  (match decode P.initial "\n" with
  | P.Skip (P.Ready, 1) -> ()
  | _ -> Alcotest.fail "blank line should Skip 1 byte");
  (match decode P.initial "\r\n" with
  | P.Skip (P.Ready, 2) -> ()
  | _ -> Alcotest.fail "blank CRLF line should Skip 2 bytes");
  (match decode P.initial "" with
  | P.Await _ -> ()
  | _ -> Alcotest.fail "empty buffer should Await");
  match decode P.initial "{\"id\": 1" with
  | P.Await _ -> ()
  | _ -> Alcotest.fail "partial line should Await"

let line_request_errors () =
  let _, err = invalid_exn "bad json" "{nope\n" in
  Alcotest.(check bool) "bad JSON tagged" true
    (has_prefix ~prefix:"bad request JSON:" err);
  let id, err = invalid_exn "missing hdl" (obj [ ("id", Json.Number 3.) ] ^ "\n") in
  Alcotest.(check bool) "id still echoed" true (id = Json.Number 3.);
  Alcotest.(check string) "missing hdl message" "request needs an \"hdl\" field"
    err;
  let _, err =
    invalid_exn "hdl type" (obj [ ("hdl", Json.Number 1.) ] ^ "\n")
  in
  Alcotest.(check string) "hdl type message" "\"hdl\" must be a string" err

let line_methods () =
  let with_methods m =
    obj [ ("hdl", Json.String "x"); ("methods", m) ] ^ "\n"
  in
  let e =
    estimate_exn "methods string" (with_methods (Json.String "gatearray, naive"))
  in
  Alcotest.(check (option (list string))) "string selection"
    (Some [ "gatearray"; "naive" ]) e.P.methods;
  let e =
    estimate_exn "methods array"
      (with_methods
         (Json.Array [ Json.String "gatearray"; Json.String "naive" ]))
  in
  Alcotest.(check (option (list string))) "array selection"
    (Some [ "gatearray"; "naive" ]) e.P.methods;
  let bad what m expect_sub =
    let _, err = invalid_exn what (with_methods m) in
    Alcotest.(check bool) "tagged" true (has_prefix ~prefix:"bad \"methods\":" err);
    check_contains what err expect_sub
  in
  bad "unknown name" (Json.String "gatearray,zzz") "zzz";
  bad "non-string entry" (Json.Array [ Json.Number 1. ]) "must be strings";
  bad "empty array" (Json.Array []) "empty method set";
  bad "wrong type" (Json.Bool true) "must be a string or an array"

let line_sleep_s () =
  let with_sleep s =
    obj [ ("hdl", Json.String "x"); ("sleep_s", s) ] ^ "\n"
  in
  let e = estimate_exn "in range" (with_sleep (Json.Number 0.5)) in
  Alcotest.(check bool) "0.5 accepted" true (e.P.sleep_s = Some 0.5);
  let e = estimate_exn "too long" (with_sleep (Json.Number 10.)) in
  Alcotest.(check bool) "10s rejected" true (e.P.sleep_s = None);
  let e = estimate_exn "negative" (with_sleep (Json.Number (-1.))) in
  Alcotest.(check bool) "negative rejected" true (e.P.sleep_s = None)

let line_oversize_resync () =
  (* An oversized line that already has its newline: answered and the
     decoder stays Ready. *)
  let big = String.make (max_bytes + 1) 'x' in
  let f, dec, consumed = frame_exn "oversize with newline" (big ^ "\n") in
  Alcotest.(check bool) "Too_large" true
    (f.P.request = P.Too_large { limit = max_bytes });
  Alcotest.(check bool) "stays Ready" true (dec = P.Ready);
  Alcotest.(check int) "consumed through newline" (max_bytes + 2) consumed;
  (* Over budget with no newline in sight: answer now, then discard
     until the line finally ends. *)
  let huge = String.make (max_bytes + 10) 'y' in
  let f, dec, consumed = frame_exn "oversize unterminated" huge in
  Alcotest.(check bool) "Too_large (unterminated)" true
    (f.P.request = P.Too_large { limit = max_bytes });
  Alcotest.(check bool) "enters Discard_line" true (dec = P.Discard_line);
  Alcotest.(check int) "consumed all" (String.length huge) consumed;
  (match decode P.Discard_line "still-the-old-line" with
  | P.Skip (P.Discard_line, 18) -> ()
  | _ -> Alcotest.fail "discard should swallow newline-less bytes");
  (match decode P.Discard_line "zz\n" with
  | P.Skip (P.Ready, 3) -> ()
  | _ -> Alcotest.fail "discard should end at the newline");
  (* ...and the next request decodes normally. *)
  let e = estimate_exn "resynced" (est_line "after" ^ "\n") in
  Alcotest.(check string) "post-resync hdl" "after" e.P.hdl

(* [at pad buf]: [buf] behind [pad] bytes of already-consumed input,
   and the offset to decode it from -- the transport's view of a
   connection buffer holding earlier frames. *)
let at pad buf = (pad, String.make pad '#' ^ buf)

(* Split-read invariance: any prefix of a request line Awaits, and the
   frame decoded from the full buffer is independent of how the bytes
   arrived -- and of where in the connection buffer they sit. *)
let split_read_prop =
  let line = est_line ~id:(Json.Number 42.) "circuit split; end split" in
  let gen = QCheck2.Gen.(pair (int_bound (String.length line - 1)) (0 -- 64)) in
  S.qtest ~count:100 "line split-read invariance" gen (fun (cut, pad) ->
      let prefix = String.sub line 0 cut in
      let off, padded = at pad prefix in
      (match (decode P.initial prefix, P.decode ~off ~max_bytes P.initial padded) with
      | P.Await _, P.Await _ -> ()
      | _ -> QCheck2.Test.fail_report "prefix must Await");
      let off, padded = at pad (line ^ "\n") in
      decode P.initial (line ^ "\n") = P.decode ~off ~max_bytes P.initial padded
      &&
      match decode P.initial (line ^ "\n") with
      | P.Frame (f, P.Ready, consumed) ->
          consumed = String.length line + 1
          && f.P.request
             = P.Estimate
                 { id = Json.Number 42.; hdl = "circuit split; end split";
                   methods = None; sleep_s = None }
      | _ -> false)

(* --- HTTP dialect --- *)

let http_get () =
  let req = "GET /metrics HTTP/1.1\r\nHost: a\r\n\r\n" in
  let f, dec, consumed = frame_exn "GET" req in
  Alcotest.(check bool) "scrape" true (f.P.request = P.Scrape { path = "/metrics" });
  Alcotest.(check bool) "1.1 keep-alive default" true
    (f.P.framing = P.Http { version = P.V11; keep_alive = true });
  Alcotest.(check bool) "Ready" true (dec = P.Ready);
  Alcotest.(check int) "whole head consumed" (String.length req) consumed;
  (* Query strings are stripped from the scrape path. *)
  let f, _, _ = frame_exn "query" "GET /healthz?verbose=1 HTTP/1.1\r\n\r\n" in
  Alcotest.(check bool) "query stripped" true
    (f.P.request = P.Scrape { path = "/healthz" });
  (* A bare \n\n head terminator is tolerated. *)
  let f, _, _ = frame_exn "lf head" "GET /slo HTTP/1.1\n\n" in
  Alcotest.(check bool) "bare LF terminator" true
    (f.P.request = P.Scrape { path = "/slo" })

let http_keep_alive () =
  let framing_of req =
    let f, _, _ = frame_exn "keep-alive case" req in
    f.P.framing
  in
  let check_ka what req version keep_alive =
    Alcotest.(check bool) what true
      (framing_of req = P.Http { version; keep_alive })
  in
  check_ka "1.1 defaults to keep" "GET / HTTP/1.1\r\n\r\n" P.V11 true;
  check_ka "1.1 + close" "GET / HTTP/1.1\r\nConnection: close\r\n\r\n" P.V11
    false;
  check_ka "header name and value case-insensitive"
    "GET / HTTP/1.1\r\nCONNECTION: Close\r\n\r\n" P.V11 false;
  check_ka "whitespace around value"
    "GET / HTTP/1.1\r\nConnection:   close  \r\n\r\n" P.V11 false;
  check_ka "1.0 defaults to close" "GET / HTTP/1.0\r\n\r\n" P.V10 false;
  check_ka "1.0 + keep-alive" "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
    P.V10 true

let http_post () =
  let body = est_line "circuit h; end h" in
  let post path =
    Printf.sprintf "POST %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" path
      (String.length body) body
  in
  let e = estimate_exn "POST /estimate" (post "/estimate") in
  Alcotest.(check string) "body hdl" "circuit h; end h" e.P.hdl;
  let e = estimate_exn "POST /" (post "/") in
  Alcotest.(check string) "root alias" "circuit h; end h" e.P.hdl;
  (match request_exn "POST elsewhere" (post "/metrics") with
  | P.Malformed { status = 404; error } ->
      check_contains "404 hint" error "try POST /estimate"
  | _ -> Alcotest.fail "POST to a scrape path should be Malformed 404");
  (match
     request_exn "empty body" "POST /estimate HTTP/1.1\r\n\r\n"
   with
  | P.Invalid { error; _ } -> check_contains "needs body" error "Content-Length"
  | _ -> Alcotest.fail "empty POST should be Invalid");
  match request_exn "PUT" "PUT /estimate HTTP/1.1\r\n\r\n" with
  | P.Not_allowed { meth = "PUT" } -> ()
  | _ -> Alcotest.fail "PUT should be Not_allowed"

let http_adversarial () =
  (* A framing error consumes the whole buffer (it cannot be trusted)
     and will close the connection. *)
  let buf = "GET /\r\n\r\ntrailing bytes" in
  (match decode P.initial buf with
  | P.Frame
      ( { P.request = P.Malformed { status = 400; _ };
          framing = P.Http { keep_alive = false; _ }; _ },
        P.Ready, consumed ) ->
      Alcotest.(check int) "poisoned buffer fully consumed"
        (String.length buf) consumed
  | _ -> Alcotest.fail "short request line should be Malformed 400");
  (match
     request_exn "bad length" "POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
   with
  | P.Malformed { status = 400; error = "bad Content-Length" } -> ()
  | _ -> Alcotest.fail "non-numeric Content-Length should be Malformed 400");
  (match
     request_exn "negative length"
       "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
   with
  | P.Malformed { status = 400; _ } -> ()
  | _ -> Alcotest.fail "negative Content-Length should be Malformed 400");
  (* An over-budget body is rejected from the declared length alone --
     before the body arrives -- and the framing closes. *)
  match
    decode P.initial
      (Printf.sprintf "POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         (max_bytes + 1))
  with
  | P.Frame
      ( { P.request = P.Too_large { limit };
          framing = P.Http { keep_alive = false; _ }; _ },
        _, _ ) ->
      Alcotest.(check int) "limit echoed" max_bytes limit
  | _ -> Alcotest.fail "oversized declared body should be Too_large"

let http_split_reads () =
  let body = est_line "circuit s; end s" in
  let req =
    Printf.sprintf "POST /estimate HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  (* Method prefix: could still become "GET ", so the decoder waits. *)
  (match decode P.initial "PO" with
  | P.Await _ -> ()
  | _ -> Alcotest.fail "method prefix should Await");
  (* Head not yet terminated. *)
  (match decode P.initial "POST /estimate HTTP/1.1\r\nContent-Le" with
  | P.Await _ -> ()
  | _ -> Alcotest.fail "partial head should Await");
  (* Head complete, body still in flight. *)
  (match decode P.initial (String.sub req 0 (String.length req - 4)) with
  | P.Await _ -> ()
  | _ -> Alcotest.fail "partial body should Await");
  let f, _, consumed = frame_exn "complete POST" (req ^ "GET /") in
  Alcotest.(check int) "consumes exactly one request" (String.length req)
    consumed;
  match f.P.request with
  | P.Estimate { hdl = "circuit s; end s"; _ } -> ()
  | _ -> Alcotest.fail "reassembled POST should decode"

(* Every cut point of an HTTP POST either Awaits or never appears;
   the full buffer always yields the same single frame. *)
let http_split_prop =
  let body = est_line ~id:(Json.Number 9.) "circuit p; end p" in
  let req =
    Printf.sprintf "POST /estimate HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let gen = QCheck2.Gen.(pair (int_bound (String.length req - 1)) (0 -- 64)) in
  S.qtest ~count:100 "http split-read invariance" gen (fun (cut, pad) ->
      let off, padded = at pad (String.sub req 0 cut) in
      (match
         (decode P.initial (String.sub req 0 cut),
          P.decode ~off ~max_bytes P.initial padded)
       with
      | P.Await _, P.Await _ -> ()
      | _ -> QCheck2.Test.fail_report "http prefix must Await");
      let off, padded = at pad req in
      decode P.initial req = P.decode ~off ~max_bytes P.initial padded
      &&
      match decode P.initial req with
      | P.Frame ({ P.request = P.Estimate { id; _ }; _ }, P.Ready, consumed) ->
          consumed = String.length req && id = Json.Number 9.
      | _ -> false)

(* Framing is linear in the bytes received: 512 pipelined 3 KiB POSTs
   in one buffer decode, front to back at their offsets, into exactly
   the frames each decodes to alone, well inside 2 s.  A decoder that
   scans or copies the whole rest of the buffer per frame is quadratic
   in the pipeline depth: one allocating a substring per offset, per
   frame, measured about 2 s for 256 such requests and 8 s for 512,
   hence 512. *)
let http_pipeline_linear () =
  let max_bytes = 8 * 1024 * 1024 in
  let request i =
    let hdl = String.make 3000 'x' ^ string_of_int i in
    let body = est_line ~id:(Json.Number (float_of_int i)) hdl in
    Printf.sprintf
      "POST /estimate HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let requests = List.init 512 request in
  let buf = String.concat "" requests in
  let t0 = Unix.gettimeofday () in
  let rec drain off acc =
    if off = String.length buf then List.rev acc
    else
      match P.decode ~off ~max_bytes P.initial buf with
      | P.Frame (f, P.Ready, k) -> drain (off + k) ((f, k) :: acc)
      | _ -> Alcotest.failf "pipelined buffer stalled at offset %d" off
  in
  let frames = drain 0 [] in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "one frame per request" 512 (List.length frames);
  List.iter2
    (fun req got ->
      match P.decode ~max_bytes P.initial req with
      | P.Frame (f, P.Ready, k) ->
          if got <> (f, k) then Alcotest.fail "pipelined frame differs from its solo decode"
      | _ -> Alcotest.fail "solo request did not decode")
    requests frames;
  if elapsed > 2.0 then
    Alcotest.failf "512 pipelined requests took %.2f s to decode (bound 2 s)" elapsed

(* [trickle ~read input]: [input] arriving [read] bytes at a time, run
   the way a connection runs it -- append, and decode the buffer only
   when [P.resumes] says the frame at its start may complete ([~gate],
   default true; false decodes after every read).  Returns the frames
   in order and how many times the buffer was decoded. *)
let trickle ?(max_bytes = max_bytes) ?(gate = true) ~read input =
  let buf = Buffer.create 64 in
  let state = ref P.initial and wait = ref (P.Bytes 1) in
  let frames = ref [] and decodes = ref 0 in
  let deliver () =
    incr decodes;
    let data = Buffer.contents buf in
    let rec go pos =
      if pos = String.length data then begin
        wait := P.Bytes 1;
        pos
      end
      else
        match P.decode ~off:pos ~max_bytes !state data with
        | P.Await w ->
            wait := w;
            pos
        | P.Skip (d, k) ->
            state := d;
            go (pos + k)
        | P.Frame (f, d, k) ->
            state := d;
            frames := f :: !frames;
            go (pos + k)
    in
    let consumed = go 0 in
    Buffer.clear buf;
    Buffer.add_substring buf data consumed (String.length data - consumed)
  in
  let rec feed pos =
    if pos < String.length input then begin
      let k = min read (String.length input - pos) in
      let from = Buffer.length buf in
      Buffer.add_substring buf input pos k;
      if (not gate) || P.resumes !wait buf ~from then deliver ();
      feed (pos + k)
    end
  in
  feed 0;
  (List.rev !frames, !decodes)

(* The wait an [Await] reports never hides a frame: for any stream of
   requests -- line and HTTP, CRLF and bare-LF heads, oversized lines
   and bodies, blank lines -- read in pieces of any size, decoding only
   when [P.resumes] says so yields the frames that decoding after every
   read does.  (Oversized input is answered by how much had arrived, so
   the reference is per-read decoding, not one decode of the whole.) *)
let trickle_prop =
  let http ?(eol = "\r\n") body =
    Printf.sprintf "POST /estimate HTTP/1.1%sContent-Length: %d%s%s%s" eol
      (String.length body) eol eol body
  in
  let pool =
    [| est_line "circuit a; end a" ^ "\n";
       est_line "circuit b; end b" ^ "\r\n";
       "\n";
       http (est_line "circuit c; end c");
       http ~eol:"\n" (est_line "circuit d; end d");
       "GET /healthz HTTP/1.1\r\nHost: x\r\nX-A: \r\n\r\n";
       "GET /metrics HTTP/1.1\nX-B: \r\n\n";
       String.make (max_bytes + 5) 'z' ^ "\n";
       http (String.make (max_bytes + 5) 'b') |]
  in
  let gen =
    QCheck2.Gen.(
      pair (list_size (1 -- 5) (int_bound (Array.length pool - 1))) (1 -- 64))
  in
  S.qtest ~count:300 "trickled reads decode the same frames" gen
    (fun (picks, read) ->
      let input = String.concat "" (List.map (Array.get pool) picks) in
      fst (trickle ~read input) = fst (trickle ~gate:false ~read input))

(* A frame arriving over many reads is decoded once it can complete,
   not once per read: a 1 MiB body or line in 1 KiB reads, and a head
   trickled a byte at a time through lines ending "\n" and "\r\n". *)
let trickle_decodes_once () =
  let max_bytes = 8 * 1024 * 1024 in
  let hdl = String.make (1024 * 1024) 'h' in
  let body = est_line hdl in
  let post =
    Printf.sprintf "POST /estimate HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let check what input ~read ~most =
    let frames, decodes = trickle ~max_bytes ~read input in
    (match frames with
    | [ { P.request = P.Estimate e; _ } ] ->
        Alcotest.(check int) (what ^ ": hdl") (String.length hdl) (String.length e.P.hdl)
    | _ -> Alcotest.failf "%s: expected one estimate frame" what);
    if decodes > most then
      Alcotest.failf "%s: buffer decoded %d times (at most %d)" what decodes most
  in
  (* once for the first read, once at the frame's end *)
  check "http body" post ~read:1024 ~most:2;
  check "line" (body ^ "\n") ~read:1024 ~most:2;
  let head =
    String.concat "" (List.init 2000 (fun i -> Printf.sprintf "X-%d: v\n\r\n" i))
  in
  let post =
    Printf.sprintf "POST /estimate HTTP/1.1\r\n%sContent-Length: %d\r\n\r\n%s"
      head (String.length body) body
  in
  (* the method token is classified a byte at a time ("POST " is 5),
     then once at the head terminator and once at the body's end *)
  check "trickled head" post ~read:1 ~most:7

(* --- responses --- *)
(* --- responses --- *)

let encode_line () =
  let doc = Json.Object [ ("ok", Json.Bool true) ] in
  Alcotest.(check string) "line response is body + newline"
    (Json.encode doc ^ "\n")
    (P.encode P.Line (P.json_response doc));
  Alcotest.(check bool) "line framing never closes" false
    (P.will_close P.Line (P.text_response ~status:503 "x"))

let encode_http () =
  let doc = Json.Object [ ("ok", Json.Bool true) ] in
  let body = Json.encode doc ^ "\n" in
  let ka = P.Http { version = P.V11; keep_alive = true } in
  let wire = P.encode ka (P.json_response doc) in
  Alcotest.(check bool) "echoes 1.1" true
    (has_prefix ~prefix:"HTTP/1.1 200 OK\r\n" wire);
  check_contains "content type" wire "Content-Type: application/json\r\n";
  check_contains "content length" wire
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  check_contains "keep-alive header" wire "Connection: keep-alive\r\n";
  Alcotest.(check bool) "body at the end" true
    (String.length wire > String.length body
    && String.sub wire (String.length wire - String.length body)
         (String.length body)
       = body);
  let close = P.Http { version = P.V10; keep_alive = false } in
  let wire10 = P.encode close (P.text_response "hello\n") in
  Alcotest.(check bool) "echoes 1.0" true
    (has_prefix ~prefix:"HTTP/1.0 200 OK\r\n" wire10);
  check_contains "close header" wire10 "Connection: close\r\n";
  check_contains "text content type" wire10 "Content-Type: text/plain\r\n"

let encode_shed_and_close () =
  let ka = P.Http { version = P.V11; keep_alive = true } in
  let shed =
    P.json_response ~status:503 ~retry_after_s:1
      (Json.Object [ ("ok", Json.Bool false) ])
  in
  let wire = P.encode ka shed in
  Alcotest.(check bool) "503 status line" true
    (has_prefix ~prefix:"HTTP/1.1 503 Service Unavailable\r\n" wire);
  check_contains "retry-after header" wire "Retry-After: 1\r\n";
  Alcotest.(check bool) "shed keeps the connection" false (P.will_close ka shed);
  (* 413 poisons framing: closes even under keep-alive, and says so. *)
  let too_large = P.text_response ~status:413 "too big\n" in
  Alcotest.(check bool) "413 closes" true (P.will_close ka too_large);
  check_contains "413 close header" (P.encode ka too_large)
    "Connection: close\r\n"

let status_texts () =
  let cases =
    [ (200, "200 OK"); (400, "400 Bad Request"); (404, "404 Not Found");
      (405, "405 Method Not Allowed"); (413, "413 Content Too Large");
      (500, "500 Internal Server Error"); (503, "503 Service Unavailable");
      (418, "418 Status") ]
  in
  List.iter
    (fun (code, text) ->
      Alcotest.(check string) (string_of_int code) text (P.status_text code))
    cases

(* Request documents round-trip: encode an estimate as line JSON,
   decode it, and the id and hdl come back intact. *)
let roundtrip_prop =
  let gen =
    QCheck2.Gen.(pair (int_bound 1_000_000) (string_size ~gen:printable (1 -- 40)))
  in
  S.qtest ~count:200 "request round-trip" gen (fun (id, hdl) ->
      let hdl = String.map (fun c -> if c = '\n' then ' ' else c) hdl in
      let line = est_line ~id:(Json.Number (float_of_int id)) hdl in
      QCheck2.assume (String.length line <= max_bytes);
      match decode P.initial (line ^ "\n") with
      | P.Frame ({ P.request = P.Estimate e; _ }, _, _) ->
          e.P.id = Json.Number (float_of_int id) && e.P.hdl = hdl
      | _ -> false)

let () =
  Alcotest.run "serve"
    [ ( "protocol-line",
        [ Alcotest.test_case "basics" `Quick line_basics;
          Alcotest.test_case "blank lines and partial reads" `Quick
            line_blank_and_await;
          Alcotest.test_case "request errors" `Quick line_request_errors;
          Alcotest.test_case "methods field" `Quick line_methods;
          Alcotest.test_case "sleep_s field" `Quick line_sleep_s;
          Alcotest.test_case "oversize resync" `Quick line_oversize_resync ] );
      ( "protocol-http",
        [ Alcotest.test_case "GET scrapes" `Quick http_get;
          Alcotest.test_case "keep-alive negotiation" `Quick http_keep_alive;
          Alcotest.test_case "POST estimates" `Quick http_post;
          Alcotest.test_case "adversarial headers" `Quick http_adversarial;
          Alcotest.test_case "split reads" `Quick http_split_reads;
          Alcotest.test_case "pipelined decode is linear" `Quick
            http_pipeline_linear;
          Alcotest.test_case "trickled frame decodes once" `Quick
            trickle_decodes_once ] );
      ( "protocol-encode",
        [ Alcotest.test_case "line responses" `Quick encode_line;
          Alcotest.test_case "http responses" `Quick encode_http;
          Alcotest.test_case "shed and close semantics" `Quick
            encode_shed_and_close;
          Alcotest.test_case "status texts" `Quick status_texts ] );
      ( "protocol-props",
        [ split_read_prop; http_split_prop; trickle_prop; roundtrip_prop ] ) ]
