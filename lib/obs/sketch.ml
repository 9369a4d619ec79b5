(* Log-bucket quantile sketches (DDSketch: Masson, Rim & Lee, VLDB 2019).

   Bucket k counts the values in (gamma^(k-1), gamma^k]; answering a
   query with the bucket midpoint 2 gamma^k / (gamma + 1) is off by at
   most (gamma - 1) / (gamma + 1) = alpha relative to any value in the
   bucket.  The regular buckets span (floor_v, ceiling_v]; slot 0
   counts everything at or below the floor (and NaN), the last slot
   everything above the ceiling.  With alpha = 0.005 that is 3 457
   slots, one int each.

   One mutex per sketch guards the counters and the exact
   count/sum/min/max: an observation is a log, a few array stores and
   an uncontended lock, with nothing allocated.  Readers copy under the
   same lock, so there is no per-domain state to publish or flush. *)

let alpha = 0.005
let gamma = (1. +. alpha) /. (1. -. alpha)
let log_gamma = Float.log gamma
let floor_v = 1e-9
let ceiling_v = 1e6
let k_lo = int_of_float (Float.ceil (Float.log floor_v /. log_gamma))
let k_hi = int_of_float (Float.ceil (Float.log ceiling_v /. log_gamma))
let slots = k_hi - k_lo + 3 (* underflow + regular + overflow *)
let exemplar_slots = 4

type exemplar = { ex_v : float; ex_label : string; ex_wall : float }

type t = {
  sk_name : string;
  sk_labels : (string * string) list;  (* sorted by key; [] = unlabeled *)
  sk_help : string;
  sk_lock : Mutex.t;  (* guards the three fields below *)
  mutable sk_counts : int array;  (* [slots] long; [||] until first observe *)
  mutable sk_n : int;
  sk_stats : float array;  (* sum, min, max: a flat float array, so
                              updating them allocates nothing *)
  sk_exemplars : exemplar option Atomic.t array;
}

let name t = t.sk_name
let labels t = t.sk_labels

(* Canonical "k=v,k=v" form: the registry key suffix and the sort key
   that keeps a family's series adjacent in [all]. *)
let label_key labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let lint_labels labels =
  let ok_key k =
    String.length k > 0
    && String.for_all
         (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
         k
    && not (k.[0] >= '0' && k.[0] <= '9')
  in
  let ok_value v =
    String.for_all (fun c -> c <> '"' && c <> '\\' && c <> '\n') v
  in
  List.iter
    (fun (k, v) ->
      if not (ok_key k) then
        invalid_arg
          (Printf.sprintf "Mae_obs.Sketch: invalid label name %S" k);
      if not (ok_value v) then
        invalid_arg
          (Printf.sprintf "Mae_obs.Sketch: invalid label value %S" v))
    labels;
  if
    List.length (List.sort_uniq String.compare (List.map fst labels))
    <> List.length labels
  then invalid_arg "Mae_obs.Sketch: duplicate label name"

(* --- registry --- *)

let registry_lock = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 8

let empty_stats () = [| 0.; Float.infinity; Float.neg_infinity |]

let create ?(help = "") ?(labels = []) name =
  Metrics.lint_name ~what:"Mae_obs.Sketch" name;
  lint_labels labels;
  let labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  let key = name ^ "{" ^ label_key labels ^ "}" in
  Mutex.lock registry_lock;
  let t =
    match Hashtbl.find_opt registry key with
    | Some t -> t
    | None ->
        let t =
          {
            sk_name = name;
            sk_labels = labels;
            sk_help = help;
            sk_lock = Mutex.create ();
            sk_counts = [||];
            sk_n = 0;
            sk_stats = empty_stats ();
            sk_exemplars =
              Array.init exemplar_slots (fun _ -> Atomic.make None);
          }
        in
        Hashtbl.add registry key t;
        t
  in
  Mutex.unlock registry_lock;
  t

(* --- observation --- *)

let slot v =
  if not (v > floor_v) then 0
  else if v > ceiling_v then slots - 1
  else
    let k = int_of_float (Float.ceil (Float.log v /. log_gamma)) in
    Int.max k_lo (Int.min k_hi k) - k_lo + 1

let observe t v =
  let i = slot v in
  Mutex.lock t.sk_lock;
  if Array.length t.sk_counts = 0 then t.sk_counts <- Array.make slots 0;
  t.sk_counts.(i) <- t.sk_counts.(i) + 1;
  t.sk_n <- t.sk_n + 1;
  let st = t.sk_stats in
  st.(0) <- st.(0) +. v;
  if v < st.(1) then st.(1) <- v;
  if v > st.(2) then st.(2) <- v;
  Mutex.unlock t.sk_lock

let offer_exemplar t ~label v =
  let slots = t.sk_exemplars in
  let min_i = ref 0 and min_v = ref Float.infinity and empty = ref (-1) in
  Array.iteri
    (fun i slot ->
      match Atomic.get slot with
      | None -> if !empty < 0 then empty := i
      | Some e ->
          if e.ex_v < !min_v then begin
            min_v := e.ex_v;
            min_i := i
          end)
    slots;
  if !empty >= 0 then
    Atomic.set slots.(!empty)
      (Some { ex_v = v; ex_label = label; ex_wall = Clock.wall () })
  else if v > !min_v then
    Atomic.set slots.(!min_i)
      (Some { ex_v = v; ex_label = label; ex_wall = Clock.wall () })

let observe_exemplar t ~label v =
  observe t v;
  offer_exemplar t ~label v

let all () =
  Mutex.lock registry_lock;
  let l = Hashtbl.fold (fun _ t acc -> t :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort
    (fun a b ->
      match String.compare a.sk_name b.sk_name with
      | 0 -> String.compare (label_key a.sk_labels) (label_key b.sk_labels)
      | c -> c)
    l

(* --- reads --- *)

(* A consistent copy of one sketch, or the bucket-wise sum of several. *)
type state = {
  s_counts : int array;  (* [||] when nothing was ever observed *)
  s_n : int;
  s_sum : float;
  s_lo : float;
  s_hi : float;
}

let read t =
  Mutex.lock t.sk_lock;
  let st =
    {
      s_counts = Array.copy t.sk_counts;
      s_n = t.sk_n;
      s_sum = t.sk_stats.(0);
      s_lo = t.sk_stats.(1);
      s_hi = t.sk_stats.(2);
    }
  in
  Mutex.unlock t.sk_lock;
  st

let merge a b =
  let counts =
    if Array.length a.s_counts = 0 then b.s_counts
    else if Array.length b.s_counts = 0 then a.s_counts
    else Array.map2 ( + ) a.s_counts b.s_counts
  in
  {
    s_counts = counts;
    s_n = a.s_n + b.s_n;
    s_sum = a.s_sum +. b.s_sum;
    s_lo = Float.min a.s_lo b.s_lo;
    s_hi = Float.max a.s_hi b.s_hi;
  }

(* The answer for slot [i], clamped into the exact [lo, hi]. *)
let slot_value st i =
  let v =
    if i = 0 then 0.
    else if i = slots - 1 then st.s_hi
    else 2. *. Float.pow gamma (float_of_int (i - 1 + k_lo)) /. (gamma +. 1.)
  in
  Float.min st.s_hi (Float.max st.s_lo v)

(* Every requested quantile in one cumulative walk: ranks grow with q,
   so the ascending query list never moves the cursor backwards. *)
let answer st qs =
  if st.s_n = 0 then []
  else begin
    let i = ref 0 and cum = ref st.s_counts.(0) in
    List.map
      (fun q ->
        let r =
          Int.max 1
            (Int.min st.s_n (int_of_float (Float.ceil (q *. float_of_int st.s_n))))
        in
        while !cum < r do
          incr i;
          cum := !cum + st.s_counts.(!i)
        done;
        (q, slot_value st !i))
      (List.sort_uniq Float.compare qs)
  end

let quantile_of_state st q =
  match answer st [ q ] with [ (_, v) ] -> Some v | _ -> None

let quantile t q = quantile_of_state (read t) q

let quantile_of_many ts q =
  match List.map read ts with
  | [] -> None
  | st :: rest -> quantile_of_state (List.fold_left merge st rest) q

type snapshot = {
  n : int;
  sum : float;
  min_v : float;
  max_v : float;
  quantiles : (float * float) list;
  exemplars : (float * string * float) list;
}

let default_qs = [ 0.5; 0.9; 0.95; 0.99; 0.999 ]

let exemplars t =
  Array.to_list t.sk_exemplars
  |> List.filter_map (fun slot ->
         Option.map
           (fun e -> (e.ex_v, e.ex_label, e.ex_wall))
           (Atomic.get slot))
  |> List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a)

let snapshot ?(qs = default_qs) t =
  let st = read t in
  let empty = st.s_n = 0 in
  {
    n = st.s_n;
    sum = st.s_sum;
    min_v = (if empty then Float.nan else st.s_lo);
    max_v = (if empty then Float.nan else st.s_hi);
    quantiles = answer st qs;
    exemplars = exemplars t;
  }

let reset t =
  Mutex.lock t.sk_lock;
  Array.fill t.sk_counts 0 (Array.length t.sk_counts) 0;
  t.sk_n <- 0;
  Array.blit (empty_stats ()) 0 t.sk_stats 0 3;
  Mutex.unlock t.sk_lock;
  Array.iter (fun slot -> Atomic.set slot None) t.sk_exemplars

(* --- exposition --- *)

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* "{domain="0",quantile="0.5"}" -- the sketch's own labels plus an
   optional quantile, or "" when there is neither. *)
let render_labels ?quantile t =
  let pairs =
    t.sk_labels
    @ match quantile with Some q -> [ ("quantile", float_repr q) ] | None -> []
  in
  match pairs with
  | [] -> ""
  | pairs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v) pairs)
      ^ "}"

let to_prometheus () =
  let buf = Buffer.create 512 in
  (* [all] sorts by (name, labels): a family's labelled series are
     adjacent, and HELP/TYPE are emitted once per family name. *)
  let last_family = ref "" in
  List.iter
    (fun t ->
      let s = snapshot t in
      if not (String.equal !last_family t.sk_name) then begin
        last_family := t.sk_name;
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" t.sk_name
             (if String.equal t.sk_help "" then t.sk_name else t.sk_help));
        Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" t.sk_name)
      end;
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" t.sk_name
               (render_labels ~quantile:q t)
               (float_repr v)))
        s.quantiles;
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %s\n" t.sk_name (render_labels t)
           (float_repr s.sum));
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" t.sk_name (render_labels t) s.n);
      List.iter
        (fun (v, label, wall) ->
          (* OpenMetrics-flavoured exemplar, kept as a comment so plain
             Prometheus text parsers stay happy; the label is a request
             id resolvable at /tracez. *)
          Buffer.add_string buf
            (Printf.sprintf "# EXEMPLAR %s {request_id=\"%s\"} %s %s\n"
               t.sk_name label (float_repr v) (float_repr wall)))
        s.exemplars)
    (all ());
  Buffer.contents buf

let to_json_body () =
  let sketch_json t =
    let s = snapshot t in
    let base =
      (if t.sk_labels = [] then []
       else
         [
           ( "labels",
             Json.Object
               (List.map (fun (k, v) -> (k, Json.String v)) t.sk_labels) );
         ])
      @ [
        ("count", Json.Number (float_of_int s.n));
        ("sum", Json.Number s.sum);
      ]
    in
    let extremes =
      if s.n = 0 then []
      else [ ("min", Json.Number s.min_v); ("max", Json.Number s.max_v) ]
    in
    let quantiles =
      ( "quantiles",
        Json.Object
          (List.map (fun (q, v) -> (float_repr q, Json.Number v)) s.quantiles)
      )
    in
    let exemplars =
      ( "exemplars",
        Json.Array
          (List.map
             (fun (v, label, wall) ->
               Json.Object
                 [
                   ("value", Json.Number v);
                   ("label", Json.String label);
                   ("ts", Json.Number wall);
                 ])
             s.exemplars) )
    in
    let key =
      if t.sk_labels = [] then t.sk_name
      else t.sk_name ^ "{" ^ label_key t.sk_labels ^ "}"
    in
    (key, Json.Object (base @ extremes @ [ quantiles; exemplars ]))
  in
  Json.encode (Json.Object (List.map sketch_json (all ())))

(* Splice sketches into the shared /metrics dumps. *)
let () =
  Metrics.register_exposition ~key:"sketches" ~prometheus:to_prometheus
    ~json:to_json_body
