let src = Logs.Src.create "nontree.oracle" ~doc:"Greedy-loop delay oracle"

module Log = (val Logs.src_log src : Logs.LOG)

let net_of_points points =
  match Geom.Net.of_list points with
  | net -> Ok net
  | exception Invalid_argument msg -> Error (Nontree_error.Invalid_net msg)

let guard objective =
  (* Atomic exchange, not a plain ref: with --jobs > 1 the candidate
     evaluations run on worker domains, and exactly one evaluation (the
     sequential baseline, in practice) must get first-call semantics. *)
  let first = Atomic.make true in
  fun r ->
    let initial = Atomic.exchange first false in
    match Nontree_error.protect (fun () -> objective r) with
    | Ok d -> d
    | Error e when initial -> Nontree_error.raise_error e
    | Error e ->
        Nontree_error.Counters.incr_dropped_evaluations ();
        Log.warn (fun f ->
            f "dropping candidate evaluation: %s" (Nontree_error.to_string e));
        Float.infinity

(* Memo layer over the robust oracle ------------------------------------ *)

module Cache = struct
  type stats = { hits : int; misses : int; entries : int }

  let enabled_flag = Atomic.make false

  (* Registry counters, so the manifest's counter section carries the
     cache traffic without extra plumbing; [stats] reads them back. *)
  let hits = Obs.Counter.make "oracle.cache.hits"
  let misses = Obs.Counter.make "oracle.cache.misses"
  let capacity = 200_000
  let lock = Mutex.create ()

  let table : (string, (int * float) list) Hashtbl.t = Hashtbl.create 4096

  let set_enabled b = Atomic.set enabled_flag b
  let enabled () = Atomic.get enabled_flag

  let reset () =
    Mutex.lock lock;
    Hashtbl.reset table;
    Mutex.unlock lock;
    Obs.Counter.set hits 0;
    Obs.Counter.set misses 0

  let stats () =
    Mutex.lock lock;
    let entries = Hashtbl.length table in
    Mutex.unlock lock;
    { hits = Obs.Counter.value hits;
      misses = Obs.Counter.value misses;
      entries }

  let summary () =
    let s = stats () in
    let total = s.hits + s.misses in
    (* An enabled cache that saw no traffic still reports — with an
       explicit "n/a" hit rate, never 0/0 = NaN. Only a cache that was
       never switched on stays silent. *)
    if total = 0 && not (Atomic.get enabled_flag) then None
    else
      Some
        (Printf.sprintf
           "oracle cache: %d hits, %d misses (%s hit rate)" s.hits s.misses
           (if total = 0 then "n/a"
            else
              Printf.sprintf "%.1f%%"
                (100.0 *. float_of_int s.hits /. float_of_int total)))

  (* The key is an explicit rendering of everything the robust oracle's
     result depends on: the model (with its full SPICE configuration),
     the technology constants, the vertex geometry, and the edge set
     with widths. Floats print as %h (exact hex), so two routings map
     to one key iff the oracle inputs are bit-identical; the rendering
     is then digested to keep per-entry memory small. Wgraph stores
     edges canonically (smaller endpoint first, lexicographic order),
     so structurally equal routings built along different edit paths
     produce the same key. *)
  let render_model buf model =
    match model with
    | Delay.Model.Elmore_tree -> Buffer.add_string buf "elmore"
    | Delay.Model.First_moment -> Buffer.add_string buf "moment1"
    | Delay.Model.Two_pole -> Buffer.add_string buf "two-pole"
    | Delay.Model.Spice { options; segmentation; include_inductance } ->
        Printf.bprintf buf "spice:%s:%d:%d:%s:%b"
          (match options.Spice.Engine.method_ with
           | Spice.Transient.Backward_euler -> "be"
           | Spice.Transient.Trapezoidal -> "tr")
          options.Spice.Engine.steps_per_chunk
          options.Spice.Engine.max_extensions
          (match segmentation with
           | Delay.Lumping.Fixed n -> Printf.sprintf "f%d" n
           | Delay.Lumping.Per_length { unit_length; max_segments } ->
               Printf.sprintf "p%h:%d" unit_length max_segments)
          include_inductance

  let render_tech buf (t : Circuit.Technology.t) =
    Printf.bprintf buf "|%h:%h:%h:%h:%h:%h|" t.driver_resistance
      t.wire_resistance t.wire_capacitance t.wire_inductance
      t.sink_capacitance t.layout_side

  let key ~model ~tech r =
    let buf = Buffer.create 512 in
    render_model buf model;
    render_tech buf tech;
    Printf.bprintf buf "%d/" (Routing.num_terminals r);
    Array.iter
      (fun (p : Geom.Point.t) -> Printf.bprintf buf "%h,%h;" p.x p.y)
      (Routing.points r);
    Buffer.add_char buf '/';
    List.iter
      (fun ((u, v), w) -> Printf.bprintf buf "%d-%d*%h;" u v w)
      (Routing.widths r);
    Digest.string (Buffer.contents buf)

  let find k =
    Mutex.lock lock;
    let v = Hashtbl.find_opt table k in
    Mutex.unlock lock;
    v

  (* The first value stored under a key stays: a hit returns the bits
     of whichever path computed the routing first. Once [capacity]
     entries are held, new results are computed but not stored. *)
  let store k ds =
    Mutex.lock lock;
    if (not (Hashtbl.mem table k)) && Hashtbl.length table < capacity then
      Hashtbl.add table k ds;
    Mutex.unlock lock

  (* The incremental scorer publishes its round winners through the
     same key the memoised oracle uses, so the measurement replays of
     an accepted routing hit the memo. *)
  let store_delays ~model ~tech r ds =
    if Atomic.get enabled_flag then store (key ~model ~tech r) ds

  let sink_delays ~model ~tech r =
    if not (Atomic.get enabled_flag) then
      Delay.Robust.sink_delays_exn ~model ~tech r
    else begin
      let k = key ~model ~tech r in
      match find k with
      | Some ds ->
          Obs.Counter.incr hits;
          ds
      | None ->
          Obs.Counter.incr misses;
          (* Computed outside the lock; two domains racing on the same
             key both compute the same value, and the second store is a
             no-op. Failed evaluations are never cached — a retry under
             fault injection may still succeed. *)
          let ds = Delay.Robust.sink_delays_exn ~model ~tech r in
          store k ds;
          ds
    end

  let max_delay ~model ~tech r =
    List.fold_left
      (fun acc (_, d) -> Float.max acc d)
      0.0
      (sink_delays ~model ~tech r)
end

let objective ~model ~tech = guard (fun r -> Cache.max_delay ~model ~tech r)
