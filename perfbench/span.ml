(* Benchmark-side spans around the calls into each layer's public
   functions.  A span records its name, start, end, parent and the id
   of the operation (module or request) it belongs to.  Spans stay in
   memory and are written out when the run ends.  When recording is off
   a span costs one branch, which is what the untraced replay measures
   against for the trace-overhead ratio. *)

type t = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** id of the enclosing span, -1 for an op root *)
  start : float;
  stop : float;
}

let on = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let current = ref (-1)
let current_op = ref 0

let reset () =
  recorded := [];
  next_id := 0;
  current := -1

(* [name_of] names the span from the call's result (a lookup is a hit
   or a miss); an escaping exception records it under [name]. *)
let with_named ~name name_of f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start = Util.now () in
    let close v_name =
      let stop = Util.now () in
      current := parent;
      recorded :=
        { id; name = v_name; op = !current_op; parent; start; stop } :: !recorded
    in
    match f () with
    | v ->
        close (name_of v);
        v
    | exception e ->
        close name;
        raise e
  end

let with_ name f = with_named ~name (fun _ -> name) f

(* One operation: a root span named "op" that every layer span of the
   module or request nests under. *)
let op i f =
  current_op := i;
  with_ "op" f

let spans () = List.rev !recorded

let durations_of spans name =
  Array.of_list
    (List.filter_map
       (fun s -> if String.equal s.name name then Some (s.stop -. s.start) else None)
       spans)

(* Self time: a span's duration minus what its direct children cover
   (children never overlap: the replay is sequential). *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start)
          +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  List.map
    (fun s ->
      ( s,
        s.stop -. s.start
        -. Option.value (Hashtbl.find_opt child s.id) ~default:0. ))
    spans

(* The layer a span name belongs to: its first dotted component, with
   the op root standing for the residual (harness and glue code between
   layer calls). *)
let layer_of name =
  if String.equal name "op" then "residual"
  else match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name

let layer_order =
  [ "serve"; "hdl"; "db"; "netlist"; "celllib"; "core"; "residual" ]

(* Per-op self time of each layer (seconds), plus the per-op total.  The
   rows sum to the total by construction; the caller checks it. *)
let layer_table spans =
  let ops = List.length (List.filter (fun s -> s.parent < 0) spans) in
  let total =
    List.fold_left
      (fun acc s -> if s.parent < 0 then acc +. (s.stop -. s.start) else acc)
      0. spans
  in
  let per_layer = Hashtbl.create 8 in
  List.iter
    (fun (s, self) ->
      let l = layer_of s.name in
      Hashtbl.replace per_layer l
        (self +. Option.value (Hashtbl.find_opt per_layer l) ~default:0.))
    (self_times spans);
  let n = float_of_int (max 1 ops) in
  ( ops,
    total /. n,
    List.map
      (fun l ->
        (l, Option.value (Hashtbl.find_opt per_layer l) ~default:0. /. n))
      layer_order )

let to_json spans =
  let t0 = match spans with s :: _ -> s.start | [] -> 0. in
  let module J = Mae_obs.Json in
  J.encode
    (J.Array
       (List.map
          (fun s ->
            J.Object
              [
                ("id", J.Number (float_of_int s.id));
                ("name", J.String s.name);
                ("op", J.Number (float_of_int s.op));
                ("parent", J.Number (float_of_int s.parent));
                ("start_us", J.Number ((s.start -. t0) *. 1e6));
                ("dur_us", J.Number ((s.stop -. s.start) *. 1e6));
              ])
          spans))
