(* The [mae top] dashboard: poll a serve instance's observability
   plane and render one frame per interval.

   Everything except the socket I/O is pure -- fetch the three
   documents, parse them into a [sample], diff two samples for rates,
   render to a string -- so tests can drive frames from canned
   payloads without a server. *)

module Json = Mae_obs.Json

(* index of the first occurrence of [needle] in [hay] at or after
   [from], or None *)
let find_sub hay needle from =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then Some from
  else begin
    let rec go i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else go (i + 1)
    in
    go from
  end

(* --- HTTP/1.0 client (blocking, one request per connection) --- *)

let http_get ~host ~port ~path =
  match
    let inet =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found | Invalid_argument _ -> Unix.inet_addr_loopback
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (inet, port));
        let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
        let _ = Unix.write_substring fd req 0 (String.length req) in
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
        in
        drain ();
        Buffer.contents buf)
  with
  | raw -> begin
      (* split the status line + headers from the body *)
      match find_sub raw "\r\n\r\n" 0 with
      | Some i ->
          Ok (String.sub raw (i + 4) (String.length raw - i - 4))
      | None -> Error (Printf.sprintf "GET %s: malformed HTTP response" path)
    end
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "GET %s: %s" path (Unix.error_message e))

(* --- Prometheus text parsing --- *)

type pm_sample = {
  pm_name : string;
  pm_quantile : float option;
  pm_value : float;
}

let parse_prometheus text =
  let parse_line line =
    if String.length line = 0 || line.[0] = '#' then None
    else begin
      match String.rindex_opt line ' ' with
      | None -> None
      | Some sp -> begin
          let series = String.sub line 0 sp in
          let value = String.sub line (sp + 1) (String.length line - sp - 1) in
          match float_of_string_opt value with
          | None -> None
          | Some pm_value ->
              let pm_name, pm_quantile =
                match String.index_opt series '{' with
                | None -> (series, None)
                | Some b ->
                    let name = String.sub series 0 b in
                    let labels =
                      String.sub series b (String.length series - b)
                    in
                    let q =
                      let marker = "quantile=\"" in
                      match find_sub labels marker 0 with
                      | Some start -> begin
                          let vstart = start + String.length marker in
                          match String.index_from_opt labels vstart '"' with
                          | None -> None
                          | Some e ->
                              float_of_string_opt
                                (String.sub labels vstart (e - vstart))
                        end
                      | None -> None
                    in
                    (name, q)
              in
              Some { pm_name; pm_quantile; pm_value }
        end
    end
  in
  String.split_on_char '\n' text |> List.filter_map parse_line

let metric_value samples name =
  List.find_map
    (fun s ->
      if String.equal s.pm_name name && s.pm_quantile = None then
        Some s.pm_value
      else None)
    samples

let sketch_quantiles samples name =
  List.filter_map
    (fun s ->
      match s.pm_quantile with
      | Some q when String.equal s.pm_name name -> Some (q, s.pm_value)
      | _ -> None)
    samples

(* --- /slo and /tracez JSON parsing --- *)

type slo_row = {
  slo_name : string;
  slo_kind : string;
  target : float;
  fast_burn : float;
  slow_burn : float;
  fast_bad : int;
  fast_total : int;
  slo_healthy : bool;
}

let num field doc = Option.bind (Json.member field doc) Json.to_number

let parse_slo body =
  match Json.parse body with
  | Error e -> Error ("bad /slo JSON: " ^ e)
  | Ok doc ->
      let healthy =
        match Json.member "healthy" doc with
        | Some (Json.Bool b) -> b
        | _ -> true
      in
      let rows =
        match Option.bind (Json.member "slos" doc) Json.to_list with
        | None -> []
        | Some slos ->
            List.filter_map
              (fun slo ->
                let str field =
                  Option.bind (Json.member field slo) Json.to_string
                in
                let window field =
                  match Json.member field slo with
                  | Some w ->
                      let f name =
                        Option.value ~default:0. (num name w)
                      in
                      (f "burn_rate", int_of_float (f "good" +. f "bad"),
                       int_of_float (f "bad"))
                  | None -> (0., 0, 0)
                in
                match str "name" with
                | None -> None
                | Some slo_name ->
                    let fast_burn, fast_total, fast_bad = window "fast" in
                    let slow_burn, _, _ = window "slow" in
                    Some
                      {
                        slo_name;
                        slo_kind =
                          Option.value ~default:"" (str "kind");
                        target = Option.value ~default:0. (num "target" slo);
                        fast_burn;
                        slow_burn;
                        fast_bad;
                        fast_total;
                        slo_healthy =
                          (match Json.member "healthy" slo with
                          | Some (Json.Bool b) -> b
                          | _ -> true);
                      })
              slos
      in
      Ok (healthy, rows)

type capture_row = {
  cap_rid : string;
  cap_kind : string;
  cap_latency : float;
  cap_error : string option;
}

let parse_captures body =
  match Json.parse body with
  | Error e -> Error ("bad /tracez JSON: " ^ e)
  | Ok doc ->
      let rows =
        match Option.bind (Json.member "captures" doc) Json.to_list with
        | None -> []
        | Some caps ->
            List.filter_map
              (fun c ->
                let str field =
                  Option.bind (Json.member field c) Json.to_string
                in
                match str "rid" with
                | None -> None
                | Some cap_rid ->
                    Some
                      {
                        cap_rid;
                        cap_kind = Option.value ~default:"" (str "kind");
                        cap_latency =
                          Option.value ~default:0. (num "latency_s" c);
                        cap_error = str "error";
                      })
              caps
      in
      Ok rows

(* --- /runtimez JSON parsing --- *)

type runtime_row = {
  rt_domain : int;
  rt_pauses : int;
  rt_p50 : float option;
  rt_p99 : float option;
  rt_max_pause_s : float;
  rt_minors : int;
  rt_major_slices : int;
  rt_alloc_words : float;
  rt_heap_words : float;
}

let parse_runtimez body =
  match Json.parse body with
  | Error e -> Error ("bad /runtimez JSON: " ^ e)
  | Ok doc ->
      let rows =
        match Option.bind (Json.member "domains" doc) Json.to_list with
        | None -> []
        | Some ds ->
            List.filter_map
              (fun d ->
                match num "domain" d with
                | None -> None
                | Some dom ->
                    let f field = Option.value ~default:0. (num field d) in
                    Some
                      {
                        rt_domain = int_of_float dom;
                        rt_pauses = int_of_float (f "pauses");
                        rt_p50 = num "p50_pause_s" d;
                        rt_p99 = num "p99_pause_s" d;
                        rt_max_pause_s = f "max_pause_s";
                        rt_minors = int_of_float (f "minor_collections");
                        rt_major_slices = int_of_float (f "major_slices");
                        rt_alloc_words = f "allocated_words";
                        rt_heap_words = f "heap_words";
                      })
              ds
      in
      Ok rows

(* --- one sampled frame --- *)

type sample = {
  at : float;  (* monotonic sample instant, for rate arithmetic *)
  metrics : pm_sample list;
  healthy : bool;
  slos : slo_row list;
  captures : capture_row list;
  runtime : runtime_row list;
}

let fetch ~host ~port =
  match http_get ~host ~port ~path:"/metrics" with
  | Error _ as e -> e
  | Ok metrics_text -> begin
      match Result.bind (http_get ~host ~port ~path:"/slo") parse_slo with
      | Error _ as e -> e
      | Ok (healthy, slos) ->
          let captures =
            (* /tracez is best-effort garnish; a failure there should
               not take the dashboard down *)
            match
              Result.bind (http_get ~host ~port ~path:"/tracez")
                parse_captures
            with
            | Ok rows -> rows
            | Error _ -> []
          in
          let runtime =
            (* /runtimez likewise: empty when the lens is off or the
               daemon predates it *)
            match
              Result.bind (http_get ~host ~port ~path:"/runtimez")
                parse_runtimez
            with
            | Ok rows -> rows
            | Error _ -> []
          in
          Ok
            {
              at = Mae_obs.Clock.monotonic ();
              metrics = parse_prometheus metrics_text;
              healthy;
              slos;
              captures;
              runtime;
            }
    end

(* --- rendering --- *)

let fmt_latency v =
  if v >= 1. then Printf.sprintf "%.2fs" v
  else if v >= 1e-3 then Printf.sprintf "%.1fms" (v *. 1e3)
  else Printf.sprintf "%.0fus" (v *. 1e6)

let quantile_cells samples name =
  let qs = sketch_quantiles samples name in
  let cell q =
    match List.assoc_opt q qs with
    | Some v -> fmt_latency v
    | None -> "-"
  in
  (cell 0.5, cell 0.9, cell 0.99, cell 0.999)

(* every latency sketch the scrape exposes, without the dashboard
   having to know the methodology registry.  Only families measured in
   seconds: other summaries (batch sizes in requests) would print as
   microseconds. *)
let summary_metrics samples =
  let seconds name =
    List.exists
      (fun suffix -> String.ends_with ~suffix name)
      [ "_seconds"; "_seconds_summary" ]
  in
  List.sort_uniq String.compare
    (List.filter_map
       (fun s ->
         if s.pm_quantile <> None && seconds s.pm_name then Some s.pm_name
         else None)
       samples)

let render ?prev (s : sample) =
  let b = Buffer.create 2048 in
  let line fmt =
    Printf.ksprintf
      (fun str ->
        Buffer.add_string b str;
        Buffer.add_char b '\n')
      fmt
  in
  let v name = Option.value ~default:0. (metric_value s.metrics name) in
  let reqs = v "mae_serve_requests_total" in
  let rate =
    match prev with
    | Some p when s.at > p.at ->
        let dr =
          reqs -. Option.value ~default:0.
                    (metric_value p.metrics "mae_serve_requests_total")
        in
        Printf.sprintf "%.1f req/s" (Float.max 0. dr /. (s.at -. p.at))
    | _ -> "- req/s"
  in
  let hits = v "mae_kernel_cache_hits_total" in
  let misses = v "mae_kernel_cache_misses_total" in
  let lookups = hits +. misses in
  line "mae top -- %s  %s" (if s.healthy then "HEALTHY" else "DEGRADED") rate;
  line "requests %.0f (%.0f ok, %.0f failed)   scrapes %.0f   cache %s"
    reqs
    (v "mae_serve_requests_ok_total")
    (v "mae_serve_requests_failed_total")
    (v "mae_serve_scrapes_total")
    (if lookups = 0. then "n/a"
     else Printf.sprintf "%.1f%% hit of %.0f" (100. *. hits /. lookups) lookups);
  (* connections pane: daemons predating the layered serve plane expose
     none of these series; render nothing rather than a row of zeros *)
  let conn_metric name = metric_value s.metrics name in
  (match conn_metric "mae_serve_open_connections" with
  | None -> ()
  | Some open_conns ->
      let shed = v "mae_serve_requests_shed_total" in
      let shed_rate =
        match prev with
        | Some p when s.at > p.at ->
            let dp =
              shed -. Option.value ~default:0.
                        (metric_value p.metrics "mae_serve_requests_shed_total")
            in
            Printf.sprintf "%.1f shed/s" (Float.max 0. dp /. (s.at -. p.at))
        | _ -> "- shed/s"
      in
      line
        "connections %.0f open (%.0f accepted, %.0f reused)   queue %.0f   \
         shed %.0f (%s)"
        open_conns
        (v "mae_serve_connections_total")
        (v "mae_serve_connections_reused_total")
        (v "mae_serve_queue_depth")
        shed shed_rate);
  line "";
  if s.slos <> [] then begin
    line "%-24s %-12s %8s %10s %10s  %s" "slo" "kind" "target" "fast burn"
      "slow burn" "state";
    List.iter
      (fun r ->
        line "%-24s %-12s %7.2f%% %10.2f %10.2f  %s" r.slo_name r.slo_kind
          (100. *. r.target) r.fast_burn r.slow_burn
          (if r.slo_healthy then "ok"
           else Printf.sprintf "BURNING (%d/%d bad)" r.fast_bad r.fast_total))
      s.slos;
    line ""
  end;
  let summaries = summary_metrics s.metrics in
  if summaries <> [] then begin
    line "%-40s %9s %9s %9s %9s" "latency sketch" "p50" "p90" "p99" "p999";
    List.iter
      (fun name ->
        let p50, p90, p99, p999 = quantile_cells s.metrics name in
        line "%-40s %9s %9s %9s %9s" name p50 p90 p99 p999)
      summaries;
    line ""
  end;
  if s.runtime <> [] then begin
    line "%-10s %7s %9s %9s %9s %8s %8s %11s %8s" "gc domain" "pauses" "p50"
      "p99" "max" "minor/s" "major/s" "alloc Mw/s" "heap Mw";
    let dt =
      match prev with
      | Some p when s.at > p.at -> Some (p, s.at -. p.at)
      | _ -> None
    in
    List.iter
      (fun r ->
        let opt_lat = function Some v -> fmt_latency v | None -> "-" in
        let rate f =
          match dt with
          | Some (p, dt) -> begin
              match
                List.find_opt (fun q -> q.rt_domain = r.rt_domain) p.runtime
              with
              | Some pr ->
                  Printf.sprintf "%.1f" (Float.max 0. (f r -. f pr) /. dt)
              | None -> "-"
            end
          | None -> "-"
        in
        line "%-10d %7d %9s %9s %9s %8s %8s %11s %8.1f" r.rt_domain
          r.rt_pauses (opt_lat r.rt_p50) (opt_lat r.rt_p99)
          (fmt_latency r.rt_max_pause_s)
          (rate (fun x -> float_of_int x.rt_minors))
          (rate (fun x -> float_of_int x.rt_major_slices))
          (rate (fun x -> x.rt_alloc_words /. 1e6))
          (r.rt_heap_words /. 1e6))
      s.runtime;
    line ""
  end;
  (match s.captures with
  | [] -> line "no captured tails yet"
  | caps ->
      line "worst recent traces (/tracez captures):";
      let by_latency =
        List.sort (fun a b -> Float.compare b.cap_latency a.cap_latency) caps
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: tl -> x :: take (n - 1) tl
      in
      List.iter
        (fun c ->
          line "  %-8s %-8s %9s%s" c.cap_rid c.cap_kind
            (fmt_latency c.cap_latency)
            (match c.cap_error with None -> "" | Some e -> "  " ^ e))
        (take 8 by_latency));
  Buffer.contents b

(* --- the polling loop --- *)

let run ~host ~port ~interval_s ~iterations ~clear =
  let rec go i prev =
    match iterations with
    | Some n when i >= n -> Ok ()
    | _ -> begin
        match fetch ~host ~port with
        | Error e -> Error e
        | Ok s ->
            if clear then print_string "\x1b[2J\x1b[H";
            print_string (render ?prev s);
            flush stdout;
            let last =
              match iterations with Some n -> i + 1 >= n | None -> false
            in
            if not last then Unix.sleepf interval_s;
            go (i + 1) (Some s)
      end
  in
  go 0 None
