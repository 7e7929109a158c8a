(* Stage replay: one incremental candidate evaluation re-done from the
   public delay, spice and numeric entry points, one span per stage.

   The replay follows the incremental scorer's algebra step for step —
   base factorisation, rank-1 Woodbury update, extended transient
   system, threshold scan — so its delay must equal the scorer's bit
   for bit. A replay that differs describes some other computation,
   and its sample counts as failed. *)

let span = Obs.span

exception Degenerate of string

let max_over_sinks r value =
  List.fold_left (fun acc s -> Float.max acc (value s)) 0.0 (Routing.sinks r)

(* Base moments system: conductance matrix factored, capacitances. *)
let prepare_moments ~tech r =
  let g =
    span "delay.conductance" (fun () ->
        Delay.Moments.conductance_matrix ~tech r)
  in
  match span "numeric.factor" (fun () -> Numeric.Backend.try_factor g) with
  | Error _ -> raise (Degenerate "base conductance matrix is singular")
  | Ok lu -> (lu, Delay.Moments.node_capacitances ~tech r)

let edge_length r (u, v) =
  Geom.Point.manhattan (Routing.point r u) (Routing.point r v)

(* First moments of base + edge through one rank-1 update. *)
let first_moments ~tech r (lu, cap) ((u, v) as edge) =
  let length = edge_length r edge in
  let cond =
    1.0 /. Circuit.Technology.wire_resistance_of tech ~length ~width:1.0
  in
  let wcap = Circuit.Technology.wire_capacitance_of tech ~length ~width:1.0 in
  let w = Array.make (Array.length cap) 0.0 in
  w.(u) <- 1.0;
  w.(v) <- w.(v) -. 1.0;
  let c = Array.copy cap in
  c.(u) <- c.(u) +. (wcap /. 2.0);
  c.(v) <- c.(v) +. (wcap /. 2.0);
  span "numeric.update" (fun () ->
      match Numeric.Backend.update lu [ (cond, w, w) ] with
      | None -> raise (Degenerate "degenerate moments update")
      | Some up -> Numeric.Lu.Update.solve up c)

let first_moment ~tech base edge =
  let m1 = first_moments ~tech base (prepare_moments ~tech base) edge in
  max_over_sinks base (fun s -> m1.(s))

(* Marginal transient cost, from a one-step and a full-chunk run of the
   extended system. *)
let time_steps ~options sys ~idx ~x0 ~dt =
  let run steps =
    let t0 = Unix.gettimeofday () in
    ignore
      (Spice.Transient.run sys ~method_:options.Spice.Engine.method_ ~x0
         ~t0:0.0 ~dt ~steps ~probes:idx);
    Unix.gettimeofday () -. t0
  in
  let steps = options.Spice.Engine.steps_per_chunk in
  let one = span "spice.transient_setup" (fun () -> run 1) in
  let full = run steps in
  Probe.record "spice.step" ((full -. one) /. float_of_int (steps - 1))

let spice ~tech (cfg : Delay.Model.spice_config) base ((u, v) as edge) =
  let moments = prepare_moments ~tech base in
  let nl, sink_names =
    span "delay.lumping" (fun () ->
        Delay.Lumping.circuit_of_routing ~segmentation:cfg.segmentation
          ~include_inductance:false ~tech base)
  in
  let sys = span "spice.mna_build" (fun () -> Spice.Mna.build nl) in
  let g_lu =
    match span "numeric.factor" (fun () -> Spice.Mna.factor_g_result sys) with
    | Ok lu -> lu
    | Error _ -> raise (Degenerate "base MNA conductance is singular")
  in
  let unknown = Adapter.unknown_of_node sys nl in
  let vertex i = unknown (Delay.Lumping.vertex_node_name i) in
  let idx = Array.of_list (List.map unknown sink_names) in
  let m1 = first_moments ~tech base moments edge in
  let horizon = 4.0 *. max_over_sinks base (fun s -> m1.(s)) in
  let d = Spice.Mna.Delta.create sys in
  let n_seg, seg_r, seg_c =
    Delay.Lumping.pi_segments ~segmentation:cfg.segmentation ~tech
      ~length:(edge_length base edge) ~width:1.0
  in
  let chain =
    Array.init (n_seg + 1) (fun s ->
        if s = 0 then vertex u
        else if s = n_seg then vertex v
        else Spice.Mna.Delta.fresh_unknown d)
  in
  for s = 0 to n_seg - 1 do
    Spice.Mna.Delta.add_conductance d chain.(s) chain.(s + 1) (1.0 /. seg_r);
    Spice.Mna.Delta.add_capacitance d chain.(s) (-1) (seg_c /. 2.0);
    Spice.Mna.Delta.add_capacitance d chain.(s + 1) (-1) (seg_c /. 2.0)
  done;
  let rhs = Adapter.rhs nl ~size:(Spice.Mna.Delta.size d) in
  let x0, xf =
    span "numeric.update" (fun () ->
        match
          Numeric.Backend.update ~pad:(Spice.Mna.Delta.added_unknowns d) g_lu
            (Spice.Mna.Delta.g_terms d)
        with
        | None -> raise (Degenerate "degenerate conductance update")
        | Some up ->
            ( Numeric.Lu.Update.solve up (rhs 0.0),
              Numeric.Lu.Update.solve up
                (rhs (Spice.Engine.settled_time ~horizon)) ))
  in
  let ext = span "spice.extend" (fun () -> Spice.Mna.Delta.extend sys d) in
  let found =
    span "spice.scan" (fun () ->
        Spice.Engine.threshold_scan_result ~options:cfg.options ext ~idx ~x0
          ~xf ~horizon)
  in
  time_steps ~options:cfg.options ext ~idx ~x0
    ~dt:(horizon /. float_of_int cfg.options.steps_per_chunk);
  match found with
  | Error e -> raise (Degenerate (Nontree_error.to_string e))
  | Ok found ->
      Array.fold_left
        (fun acc t ->
          match t with
          | Some t -> Float.max acc t
          | None -> raise (Degenerate "probe never settled"))
        0.0 found

(* The candidate's delay replayed stage by stage, or the reason the
   replay could not follow the scorer. *)
let replay ~model ~tech base edge =
  match
    match model with
    | Delay.Model.First_moment -> first_moment ~tech base edge
    | Delay.Model.Spice cfg when not cfg.include_inductance ->
        spice ~tech cfg base edge
    | _ -> raise (Degenerate "model has no incremental path")
  with
  | d -> Ok d
  | exception Degenerate why -> Error why

(* The plain oracle on the same candidate, for the delay layer's cost
   without the incremental algebra. *)
let plain ~model ~tech trial =
  span "delay.eval" (fun () ->
      ignore (Delay.Model.sink_delays_result model ~tech trial))
