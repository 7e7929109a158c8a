(* The traced run's bookkeeping on top of [Obs].

   Layer entry points are wrapped with [Obs.span], which keeps every
   completed span (name, id, parent, start, duration) in memory while
   observability is on. This module adds what [Obs] lacks: the net a
   span belongs to, per-call duration samples of hot calls, self times
   per layer, and the trace writer. A span's layer is its name up to
   the first dot; the library's own [ldrg.*] spans belong to [core]. *)

(* Root span id -> net id. Each net's work runs under one root span
   ([bench.net], [bench.replay]); [root] registers it once it ends. *)
let roots : (int, int) Hashtbl.t = Hashtbl.create 64
let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 16

let reset () =
  Obs.Span.reset ();
  Hashtbl.reset roots;
  Hashtbl.reset samples

let root name ~net f =
  let v = Obs.span name f in
  (match Obs.Span.find name with
  | Some s when Obs.enabled () -> Hashtbl.replace roots s.id net
  | _ -> ());
  v

let record name v =
  match Hashtbl.find_opt samples name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add samples name (ref [ v ])

(* Per-call durations of hot calls (one per candidate), kept as samples
   rather than spans so the trace stays small. *)
let timed name f =
  if not (Obs.enabled ()) then f ()
  else begin
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        record name (Unix.gettimeofday () -. start))
  end

let samples_of name =
  match Hashtbl.find_opt samples name with Some l -> !l | None -> []

let durations name =
  List.filter_map
    (fun (s : Obs.Span.t) -> if s.name = name then Some s.dur_s else None)
    (Obs.Span.all ())

let layer name =
  match String.index_opt name '.' with
  | Some i -> (
      match String.sub name 0 i with "ldrg" -> "core" | l -> l)
  | None -> name

(* Self time per layer: each span's duration minus the time of all its
   direct children, summed over the layer's spans. *)
let self_times () =
  let spans = Obs.Span.all () in
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let add tbl k v = Hashtbl.replace tbl k (get tbl k +. v) in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.Span.t) ->
      Option.iter (fun p -> add children p s.dur_s) s.parent)
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Span.t) ->
      add totals (layer s.name) (s.dur_s -. get children s.id))
    spans;
  get totals

(* One JSON object per line: every span with its net, then the
   caller's extra lines (per-net GC deltas). *)
let write ~path extra =
  let spans = Obs.Span.all () in
  let parent = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.Span.t) -> Option.iter (Hashtbl.replace parent s.id) s.parent)
    spans;
  let rec net id =
    match Hashtbl.find_opt parent id with
    | Some p -> net p
    | None -> Option.value ~default:(-1) (Hashtbl.find_opt roots id)
  in
  let oc = open_out path in
  List.iter
    (fun (s : Obs.Span.t) ->
      Printf.fprintf oc
        "{\"span\":%S,\"id\":%d,\"parent\":%d,\"net\":%d,\
         \"start\":%.9f,\"end\":%.9f}\n"
        s.name s.id
        (Option.value ~default:(-1) s.parent)
        (net s.id) s.start_s (s.start_s +. s.dur_s))
    spans;
  List.iter (fun line -> output_string oc (line ^ "\n")) extra;
  close_out oc
