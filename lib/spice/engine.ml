type options = {
  method_ : Transient.method_;
  steps_per_chunk : int;
  max_extensions : int;
}

let default_options =
  { method_ = Transient.Trapezoidal; steps_per_chunk = 600; max_extensions = 12 }

let fast_options = { default_options with steps_per_chunk = 160 }
let accurate_options = { default_options with steps_per_chunk = 2500 }

(* Operational failures (singular stamps, waveform blow-ups, probes
   that never settle) travel as [Nontree_error.t] results so the
   robustness layer can retry or degrade; argument-shape errors remain
   Invalid_argument. *)

let singular_error ~stage k =
  if k < 0 then Nontree_error.Non_finite { stage; value = Float.nan }
  else Nontree_error.Singular_matrix { stage; column = k }

let check_finite ~stage arr =
  let n = Array.length arr in
  let rec go i =
    if i >= n then Ok ()
    else if Float.is_finite (Array.unsafe_get arr i) then go (i + 1)
    else Error (Nontree_error.Non_finite { stage; value = arr.(i) })
  in
  go 0

(* Fault injection: the oracle stack's test harness asks this layer to
   fail on purpose; see lib/fault. Consulted once per delay query. *)
let injected_fault ~horizon =
  match Fault.draw ~stage:"spice" with
  | None -> None
  | Some Fault.Singular_stamp ->
      Some (Nontree_error.Singular_matrix { stage = "spice.injected"; column = 0 })
  | Some Fault.Nan_value ->
      Some (Nontree_error.Non_finite { stage = "spice.injected"; value = Float.nan })
  | Some Fault.Never_settles ->
      Some (Nontree_error.Probe_never_settled { probe = "(injected)"; horizon })

let ( let* ) = Result.bind

let dc_result nl =
  match
    let sys = Mna.build nl in
    let x = Transient.dc_operating_point sys in
    (sys, x)
  with
  | exception Numeric.Lu.Singular k -> Error (singular_error ~stage:"spice.dc" k)
  | sys, x ->
      let* () = check_finite ~stage:"spice.dc" x in
      let result = ref [] in
      for node = Circuit.Netlist.num_nodes nl - 1 downto 1 do
        result :=
          (Circuit.Netlist.node_name nl node, Mna.voltage sys x node) :: !result
      done;
      Ok !result

let dc nl =
  match dc_result nl with Ok r -> r | Error e -> Nontree_error.raise_error e

let probe_indices nl (sys : Mna.t) probes =
  List.map
    (fun name ->
      match Circuit.Netlist.find_node nl name with
      | None -> invalid_arg ("Engine: unknown probe node " ^ name)
      | Some node ->
          let u = sys.Mna.unknown_of_node.(node) in
          if u < 0 then invalid_arg "Engine: cannot probe ground";
          u)
    probes
  |> Array.of_list

let transient_result ?(options = default_options) nl ~tstop ~probes =
  if tstop <= 0.0 then invalid_arg "Engine.transient: tstop must be positive";
  match
    let sys = Mna.build nl in
    let idx = probe_indices nl sys probes in
    let x0 = Transient.dc_operating_point sys in
    let dt = tstop /. float_of_int options.steps_per_chunk in
    let chunk =
      Transient.run sys ~method_:options.method_ ~x0 ~t0:0.0 ~dt
        ~steps:options.steps_per_chunk ~probes:idx
    in
    (idx, x0, chunk)
  with
  | exception Numeric.Lu.Singular k ->
      Error (singular_error ~stage:"spice.transient" k)
  | idx, x0, chunk ->
      let* () = check_finite ~stage:"spice.transient" chunk.Transient.final in
      (* Prepend the t=0 operating point so traces start at time zero. *)
      let times = Array.append [| 0.0 |] chunk.Transient.times in
      let data =
        Array.mapi
          (fun p col -> Array.append [| x0.(idx.(p)) |] col)
          chunk.Transient.states
      in
      Ok { Trace.times; names = Array.of_list probes; data }

let transient ?options nl ~tstop ~probes =
  match transient_result ?options nl ~tstop ~probes with
  | Ok t -> t
  | Error e -> Nontree_error.raise_error e

(* Not a finite time: one that lands on a multiple of a PULSE's period
   finds it back at v0, so the settled state would equal the start and
   every delay read 0. *)
let settled_time ~horizon:_ = Float.infinity

(* Registry counters: scans run and steps integrated by them, added
   once per chunk. Their ratio is the mean scan length. *)
let scans = Obs.Counter.make "spice.scans"
let scan_steps = Obs.Counter.make "spice.scan_steps"

let threshold_scan_result ?(options = default_options) sys ~idx ~x0 ~xf
    ~horizon =
  if horizon <= 0.0 then
    invalid_arg "Engine.threshold_scan: horizon must be positive";
  Obs.Counter.incr scans;
  let num_probes = Array.length idx in
  let target =
    Array.map (fun u -> x0.(u) +. (0.5 *. (xf.(u) -. x0.(u)))) idx
  in
  (* A probe that settles below its start crosses its target from
     above. *)
  let falling = Array.map (fun u -> xf.(u) < x0.(u)) idx in
  let found = Array.make num_probes None in
  let remaining = ref num_probes in
  (* A probe that starts at its target crossed it at t = 0. *)
  Array.iteri
    (fun p u ->
      if x0.(u) = target.(p) then begin
        found.(p) <- Some 0.0;
        decr remaining
      end)
    idx;
  (* The sample before the current step, per probe, and its time: carried
     across chunk boundaries, where the last step's time is the next
     chunk's start. *)
  let prev_v = Array.map (fun u -> x0.(u)) idx in
  let prev_t = ref 0.0 in
  let failure = ref None in
  let on_step _ t1 x =
    for p = 0 to num_probes - 1 do
      let v1 = x.(idx.(p)) in
      if not (Float.is_finite v1) then begin
        if Option.is_none !failure then
          failure :=
            Some
              (Nontree_error.Non_finite { stage = "spice.transient"; value = v1 })
      end
      else if Option.is_none found.(p) then begin
        let crossed =
          if falling.(p) then v1 <= target.(p) else v1 >= target.(p)
        in
        if crossed then begin
          let v0 = prev_v.(p) in
          let t_cross =
            if v1 = v0 then t1
            else !prev_t +. ((target.(p) -. v0) /. (v1 -. v0) *. (t1 -. !prev_t))
          in
          found.(p) <- Some t_cross;
          decr remaining
        end
        else prev_v.(p) <- v1
      end
    done;
    prev_t := t1;
    Option.is_none !failure && !remaining > 0
  in
  let dt = horizon /. float_of_int options.steps_per_chunk in
  (* Each extension doubles the chunk, so n extensions cover 2^n
     horizons. *)
  let rec scan x t0 steps extensions =
    if !remaining = 0 || extensions > options.max_extensions then Ok found
    else
      match
        Transient.integrate sys ~method_:options.method_ ~x0:x ~t0 ~dt ~steps
          ~on_step
      with
      | exception Numeric.Lu.Singular k ->
          Error (singular_error ~stage:"spice.transient" k)
      | final, taken -> (
          Obs.Counter.add scan_steps taken;
          match !failure with
          | Some e -> Error e
          | None ->
              let* () = check_finite ~stage:"spice.transient" final in
              scan final
                (t0 +. (float_of_int steps *. dt))
                (steps * 2) (extensions + 1))
  in
  scan x0 0.0 options.steps_per_chunk 0

let threshold_delays_result ?(options = default_options) nl ~probes ~horizon =
  if horizon <= 0.0 then
    invalid_arg "Engine.threshold_delays: horizon must be positive";
  match injected_fault ~horizon with
  | Some e -> Error e
  | None -> (
      match
        let sys = Mna.build nl in
        let idx = probe_indices nl sys probes in
        let x0 = Transient.dc_operating_point sys in
        (sys, idx, x0)
      with
      | exception Numeric.Lu.Singular k ->
          Error (singular_error ~stage:"spice.dc" k)
      | sys, idx, x0 ->
          let* () = check_finite ~stage:"spice.dc" x0 in
          (* Final values: DC with sources settled. *)
          let t_settled = settled_time ~horizon in
          let* xf =
            match Mna.factor_g_result sys with
            | Error k -> Error (singular_error ~stage:"spice.settle" k)
            | Ok lu -> Ok (Numeric.Backend.solve lu (Mna.rhs sys t_settled))
          in
          let* () = check_finite ~stage:"spice.settle" xf in
          let* found =
            threshold_scan_result ~options sys ~idx ~x0 ~xf ~horizon
          in
          Ok (List.mapi (fun p name -> (name, found.(p))) probes))

let threshold_delays ?options nl ~probes ~horizon =
  match threshold_delays_result ?options nl ~probes ~horizon with
  | Ok r -> r
  | Error e -> Nontree_error.raise_error e

let max_delay_result ?options nl ~probes ~horizon =
  let* delays = threshold_delays_result ?options nl ~probes ~horizon in
  List.fold_left
    (fun acc (name, d) ->
      let* acc = acc in
      match d with
      | Some t -> Ok (Float.max acc t)
      | None ->
          Error (Nontree_error.Probe_never_settled { probe = name; horizon }))
    (Ok 0.0) delays

let max_delay ?options nl ~probes ~horizon =
  match max_delay_result ?options nl ~probes ~horizon with
  | Ok d -> d
  | Error e -> Nontree_error.raise_error e
