(* Tests validating the simulator against closed-form circuit theory. *)

open Circuit

let step01 = Waveform.Step { t0 = 0.0; v0 = 0.0; v1 = 1.0 }

(* A 1 kΩ / 1 pF low-pass: v(t) = 1 - exp(-t/RC), tau = 1 ns. *)
let rc_circuit () =
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground step01;
  Netlist.resistor nl inp out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  nl

let test_dc_divider () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  let b = Netlist.node nl "b" in
  Netlist.vsource nl a Netlist.ground (Waveform.Dc 10.0);
  Netlist.resistor nl a b 3e3;
  Netlist.resistor nl b Netlist.ground 7e3;
  let v = List.assoc "b" (Spice.Engine.dc nl) in
  Alcotest.(check (float 1e-9)) "divider" 7.0 v

let test_dc_current_source () =
  (* 1 mA into 2 kΩ gives 2 V. *)
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.isource nl Netlist.ground a (Waveform.Dc 1e-3);
  Netlist.resistor nl a Netlist.ground 2e3;
  let v = List.assoc "a" (Spice.Engine.dc nl) in
  Alcotest.(check (float 1e-9)) "IR" 2.0 v

let test_dc_inductor_short () =
  (* At DC an inductor is a short: the divider sees only R2. *)
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  let b = Netlist.node nl "b" in
  Netlist.vsource nl a Netlist.ground (Waveform.Dc 4.0);
  Netlist.inductor nl a b 1e-9;
  Netlist.resistor nl b Netlist.ground 1e3;
  let v = List.assoc "b" (Spice.Engine.dc nl) in
  Alcotest.(check (float 1e-9)) "inductor shorts" 4.0 v

let check_against_analytic trace analytic tolerance label =
  let v = Spice.Trace.signal trace "out" in
  let worst = ref 0.0 in
  Array.iteri
    (fun i t ->
      let expected = analytic t in
      worst := Float.max !worst (abs_float (v.(i) -. expected)))
    trace.Spice.Trace.times;
  Alcotest.(check bool)
    (Printf.sprintf "%s (worst err %.2e)" label !worst)
    true (!worst < tolerance)

let test_rc_charging_trapezoidal () =
  let nl = rc_circuit () in
  let trace =
    Spice.Engine.transient nl ~tstop:5e-9 ~probes:[ "out" ]
      ~options:Spice.Engine.accurate_options
  in
  (* An ideal step is discontinuous, so the integrator effectively sees
     it smeared over the first dt/2; the residual error is O(dt/tau). *)
  check_against_analytic trace
    (fun t -> 1.0 -. exp (-.t /. 1e-9))
    2.5e-3 "trapezoidal RC step"

(* RC response to a finite ramp is smooth, so both integrators converge
   at their theoretical orders. Closed form with tau = RC, rise Tr:
   t <= Tr:  v = (t - tau(1 - e^{-t/tau})) / Tr
   t >  Tr:  v = 1 - (tau/Tr)(1 - e^{-Tr/tau}) e^{-(t-Tr)/tau}. *)
let rc_ramp_circuit tr =
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground
    (Waveform.Ramp { t0 = 0.0; t1 = tr; v0 = 0.0; v1 = 1.0 });
  Netlist.resistor nl inp out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  nl

let rc_ramp_analytic ~tau ~tr t =
  if t <= tr then (t -. (tau *. (1.0 -. exp (-.t /. tau)))) /. tr
  else
    1.0 -. (tau /. tr *. (1.0 -. exp (-.tr /. tau)) *. exp (-.(t -. tr) /. tau))

let test_rc_ramp_trapezoidal () =
  let tr = 0.5e-9 in
  let nl = rc_ramp_circuit tr in
  let trace =
    Spice.Engine.transient nl ~tstop:5e-9 ~probes:[ "out" ]
      ~options:Spice.Engine.accurate_options
  in
  check_against_analytic trace
    (rc_ramp_analytic ~tau:1e-9 ~tr)
    1e-5 "trapezoidal RC ramp"

let test_trapezoidal_beats_euler () =
  let tr = 0.5e-9 in
  let nl = rc_ramp_circuit tr in
  let run method_ =
    let options =
      { Spice.Engine.default_options with method_; steps_per_chunk = 200 }
    in
    let trace = Spice.Engine.transient nl ~tstop:5e-9 ~probes:[ "out" ] ~options in
    let v = Spice.Trace.signal trace "out" in
    let err = ref 0.0 in
    Array.iteri
      (fun i t ->
        err := Float.max !err (abs_float (v.(i) -. rc_ramp_analytic ~tau:1e-9 ~tr t)))
      trace.Spice.Trace.times;
    !err
  in
  let e_trap = run Spice.Transient.Trapezoidal in
  let e_be = run Spice.Transient.Backward_euler in
  Alcotest.(check bool)
    (Printf.sprintf "trap %.2e << euler %.2e" e_trap e_be)
    true (e_trap < 0.2 *. e_be)

let test_rc_50_delay () =
  (* 50 % crossing of a first-order RC step is RC·ln 2 ≈ 0.693 ns. *)
  let nl = rc_circuit () in
  let delays =
    Spice.Engine.threshold_delays nl ~probes:[ "out" ] ~horizon:5e-9
      ~options:Spice.Engine.accurate_options
  in
  match delays with
  | [ ("out", Some t) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "t50 = %.4g ns" (t *. 1e9))
        true
        (abs_float (t -. (1e-9 *. log 2.0)) < 5e-12)
  | _ -> Alcotest.fail "expected one crossing"

let test_horizon_extension () =
  (* Deliberately underestimate the horizon: tau = 1 ns but start the
     search window at 10 ps; the engine must extend until crossing. *)
  let nl = rc_circuit () in
  let delays = Spice.Engine.threshold_delays nl ~probes:[ "out" ] ~horizon:1e-11 in
  match delays with
  | [ ("out", Some t) ] ->
      Alcotest.(check bool) "extended past horizon" true (t > 1e-11);
      Alcotest.(check bool) "roughly ln2 ns" true
        (abs_float (t -. 0.693e-9) < 0.05e-9)
  | _ -> Alcotest.fail "expected crossing after extension"

(* Series RLC with L = 1 nH, C = 100 pF: characteristic impedance
   Z0 = sqrt(L/C) = 3.162 Ω, so R = 0.632 Ω gives zeta = R/(2·Z0) = 0.1
   — distinctly underdamped. A pure RC response cannot overshoot, so
   these two tests exercise the inductor stamps specifically. *)
let underdamped_rlc () =
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let mid = Netlist.node nl "mid" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground step01;
  Netlist.resistor nl inp mid 0.6324555;
  Netlist.inductor nl mid out 1e-9;
  Netlist.capacitor nl out Netlist.ground 1e-10;
  nl

let test_rlc_underdamped () =
  let nl = underdamped_rlc () in
  let trace =
    Spice.Engine.transient nl ~tstop:1e-8 ~probes:[ "out" ]
      ~options:Spice.Engine.accurate_options
  in
  let v = Spice.Trace.signal trace "out" in
  let overshoot = Spice.Measure.overshoot ~values:v ~vfinal:1.0 in
  (* Analytic peak overshoot = exp(-pi*zeta/sqrt(1-zeta^2)) ~ 0.729. *)
  Alcotest.(check bool)
    (Printf.sprintf "overshoot %.3f" overshoot)
    true
    (abs_float (overshoot -. 0.729) < 0.03)

let test_rlc_oscillation_period () =
  (* Damped ringing period 2π/(ω_n·sqrt(1−ζ²)) ≈ 1.996 ns: measure the
     spacing of the first two response peaks. *)
  let nl = underdamped_rlc () in
  let trace =
    Spice.Engine.transient nl ~tstop:1e-8 ~probes:[ "out" ]
      ~options:Spice.Engine.accurate_options
  in
  let v = Spice.Trace.signal trace "out" in
  let times = trace.Spice.Trace.times in
  (* Find successive maxima by sign change of the discrete derivative. *)
  let peaks = ref [] in
  for i = 1 to Array.length v - 2 do
    if v.(i) > v.(i - 1) && v.(i) >= v.(i + 1) && v.(i) > 1.0 then
      peaks := times.(i) :: !peaks
  done;
  match List.rev !peaks with
  | t1 :: t2 :: _ ->
      let period = t2 -. t1 in
      let zeta = 0.1 in
      let expected =
        2.0 *. Float.pi *. sqrt (1e-9 *. 1e-10) /. sqrt (1.0 -. (zeta *. zeta))
      in
      Alcotest.(check bool)
        (Printf.sprintf "period %.3g vs %.3g" period expected)
        true
        (abs_float (period -. expected) < 0.05 *. expected)
  | _ -> Alcotest.fail "expected at least two ringing peaks"

let test_transient_continuation () =
  (* Running 2 x 2.5ns in chunks must equal one 5ns run at the chunk
     boundary (continuation passes exact state). *)
  let nl = rc_circuit () in
  let sys = Spice.Mna.build nl in
  let x0 = Spice.Transient.dc_operating_point sys in
  let probes = [| 1 |] in
  let dt = 5e-9 /. 1000.0 in
  let full =
    Spice.Transient.run sys ~method_:Spice.Transient.Trapezoidal ~x0 ~t0:0.0
      ~dt ~steps:1000 ~probes
  in
  let first =
    Spice.Transient.run sys ~method_:Spice.Transient.Trapezoidal ~x0 ~t0:0.0
      ~dt ~steps:500 ~probes
  in
  let second =
    Spice.Transient.run sys ~method_:Spice.Transient.Trapezoidal
      ~x0:first.Spice.Transient.final ~t0:2.5e-9 ~dt ~steps:500 ~probes
  in
  let v_full = full.Spice.Transient.states.(0) in
  let v_cat =
    Array.append first.Spice.Transient.states.(0)
      second.Spice.Transient.states.(0)
  in
  let worst = ref 0.0 in
  Array.iteri
    (fun i x -> worst := Float.max !worst (abs_float (x -. v_cat.(i))))
    v_full;
  Alcotest.(check bool)
    (Printf.sprintf "chunked = full (err %.2e)" !worst)
    true (!worst < 1e-12)

let test_floating_node_rejected () =
  (* A capacitor-only node has no DC path: G is singular. *)
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  let b = Netlist.node nl "b" in
  Netlist.vsource nl a Netlist.ground (Waveform.Dc 1.0);
  Netlist.capacitor nl a b 1e-12;
  Netlist.capacitor nl b Netlist.ground 1e-12;
  (match Spice.Engine.dc nl with
  | exception Nontree_error.Error (Nontree_error.Singular_matrix _) -> ()
  | _ -> Alcotest.fail "expected singular matrix");
  match Spice.Engine.dc_result nl with
  | Error (Nontree_error.Singular_matrix _) -> ()
  | _ -> Alcotest.fail "expected Singular_matrix from dc_result"

let test_engine_argument_validation () =
  let nl = rc_circuit () in
  Alcotest.check_raises "bad tstop"
    (Invalid_argument "Engine.transient: tstop must be positive") (fun () ->
      ignore (Spice.Engine.transient nl ~tstop:0.0 ~probes:[ "out" ]));
  Alcotest.check_raises "unknown probe"
    (Invalid_argument "Engine: unknown probe node nope") (fun () ->
      ignore (Spice.Engine.transient nl ~tstop:1e-9 ~probes:[ "nope" ]));
  Alcotest.check_raises "ground probe"
    (Invalid_argument "Engine: cannot probe ground") (fun () ->
      ignore (Spice.Engine.transient nl ~tstop:1e-9 ~probes:[ "0" ]));
  Alcotest.check_raises "bad horizon"
    (Invalid_argument "Engine.threshold_delays: horizon must be positive")
    (fun () ->
      ignore (Spice.Engine.threshold_delays nl ~probes:[ "out" ] ~horizon:0.0))

let test_max_delay_failure_path () =
  (* tau = 1 s but the search window tops out after two doublings of a
     1 ns horizon: the threshold is unreachable and max_delay must fail
     loudly rather than return garbage. *)
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground step01;
  Netlist.resistor nl inp out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-3;
  let options = { Spice.Engine.fast_options with max_extensions = 2 } in
  (match
     Spice.Engine.max_delay ~options nl ~probes:[ "out" ] ~horizon:1e-9
   with
  | exception Nontree_error.Error (Nontree_error.Probe_never_settled _) -> ()
  | _ -> Alcotest.fail "expected Probe_never_settled");
  match
    Spice.Engine.max_delay_result ~options nl ~probes:[ "out" ] ~horizon:1e-9
  with
  | Error (Nontree_error.Probe_never_settled { probe; _ }) ->
      Alcotest.(check string) "failing probe named" "out" probe
  | _ -> Alcotest.fail "expected Probe_never_settled from max_delay_result"

let test_threshold_already_settled () =
  (* A DC source: every node is at its final value from t=0, so the
     threshold is crossed at time zero by convention. *)
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground (Waveform.Dc 1.0);
  Netlist.resistor nl inp out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  match Spice.Engine.threshold_delays nl ~probes:[ "out" ] ~horizon:1e-9 with
  | [ (_, Some t) ] -> Alcotest.(check (float 0.0)) "zero delay" 0.0 t
  | _ -> Alcotest.fail "expected an immediate crossing"

(* A falling step mirrors the rising one: 1 V down to 0 at t0 = 1 ns
   crosses 50 % at t0 + RC·ln 2. *)
let test_rc_50_delay_falling () =
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground
    (Waveform.Step { t0 = 1e-9; v0 = 1.0; v1 = 0.0 });
  Netlist.resistor nl inp out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  match
    Spice.Engine.threshold_delays nl ~probes:[ "out" ] ~horizon:5e-9
      ~options:Spice.Engine.accurate_options
  with
  | [ ("out", Some t) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "t50 = %.4g ns" (t *. 1e9))
        true
        (abs_float (t -. (1e-9 +. (1e-9 *. log 2.0))) < 5e-12)
  | _ -> Alcotest.fail "expected one crossing"

(* A PULSE settles to its first-edge level, whatever its period: here
   100 ns divides every finite multiple of the 10 ns horizon that once
   stood for "settled", where the pulse is back at 0 V. Its delay must
   match the STEP's within the 10 ps rise. *)
let test_pulse_delay_matches_step () =
  let delay wave =
    let text =
      Printf.sprintf
        "* rc\nV1 in 0 %s\nR1 in out 1k\nC1 out 0 1p\n.end\n" wave
    in
    match Deck.of_string text with
    | Error e -> Alcotest.fail e
    | Ok nl -> (
        match
          Spice.Engine.threshold_delays nl ~probes:[ "out" ] ~horizon:10e-9
        with
        | [ ("out", Some t) ] -> t
        | _ -> Alcotest.fail ("no crossing for " ^ wave))
  in
  let step = delay "STEP(0 0 1)" in
  List.iter
    (fun pulse ->
      let t = delay pulse in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4g ns vs step %.4g ns" pulse (t *. 1e9)
           (step *. 1e9))
        true
        (abs_float (t -. step) <= 10e-12))
    [ "PULSE(0 1 0 0.01n 0.01n 50n 100n)"; "PULSE(0 1 0 0.01n 0.01n 30n 100n)" ]

(* Threshold scan vs the full-chunk reference -------------------------- *)

(* The scan as it ran before the transient could stop early: whole
   [Transient.run] chunks, each scanned afterwards for upward crossings.
   Every input below rises or starts at its target, where the early-exit
   scan must give the same bits. *)
let reference_scan ~(options : Spice.Engine.options) sys ~idx ~x0 ~xf
    ~horizon =
  let num_probes = Array.length idx in
  let target =
    Array.map (fun u -> x0.(u) +. (0.5 *. (xf.(u) -. x0.(u)))) idx
  in
  let found = Array.make num_probes None in
  let prev_v = Array.map (fun u -> x0.(u)) idx in
  let remaining = ref num_probes in
  Array.iteri
    (fun p u ->
      if x0.(u) >= target.(p) then begin
        found.(p) <- Some 0.0;
        decr remaining
      end)
    idx;
  let dt = horizon /. float_of_int options.steps_per_chunk in
  let x = ref x0 and t0 = ref 0.0 in
  let steps = ref options.steps_per_chunk and extensions = ref 0 in
  while !remaining > 0 && !extensions <= options.max_extensions do
    let chunk =
      Spice.Transient.run sys ~method_:options.method_ ~x0:!x ~t0:!t0 ~dt
        ~steps:!steps ~probes:idx
    in
    for p = 0 to num_probes - 1 do
      if found.(p) = None then begin
        let col = chunk.Spice.Transient.states.(p) in
        let times = chunk.Spice.Transient.times in
        let rec scan s prev prev_t =
          if s >= Array.length col then prev_v.(p) <- prev
          else if col.(s) >= target.(p) then begin
            let v0 = prev and v1 = col.(s) in
            let t1 = times.(s) in
            found.(p) <-
              Some
                (if v1 = v0 then t1
                 else
                   prev_t
                   +. ((target.(p) -. v0) /. (v1 -. v0) *. (t1 -. prev_t)));
            decr remaining
          end
          else scan (s + 1) col.(s) times.(s)
        in
        scan 0 prev_v.(p) !t0
      end
    done;
    x := chunk.Spice.Transient.final;
    t0 := !t0 +. (float_of_int !steps *. dt);
    incr extensions;
    steps := !steps * 2
  done;
  found

let probe_unknowns nl sys names =
  Array.of_list
    (List.map
       (fun name ->
         match Netlist.find_node nl name with
         | Some node -> sys.Spice.Mna.unknown_of_node.(node)
         | None -> Alcotest.failf "no node %s" name)
       names)

(* Start and settled states as the engine computes them. *)
let scan_inputs nl names ~horizon =
  let sys = Spice.Mna.build nl in
  let x0 = Spice.Transient.dc_operating_point sys in
  let xf =
    Numeric.Backend.solve (Spice.Mna.factor_g sys)
      (Spice.Mna.rhs sys (Spice.Engine.settled_time ~horizon))
  in
  (sys, probe_unknowns nl sys names, x0, xf)

(* Runs both scans and returns the early-exit one's crossings. *)
let check_scan_matches_reference label ~options nl names ~horizon =
  let sys, idx, x0, xf = scan_inputs nl names ~horizon in
  let hex = Array.map (Option.map (Printf.sprintf "%h")) in
  let expected = reference_scan ~options sys ~idx ~x0 ~xf ~horizon in
  match Spice.Engine.threshold_scan_result ~options sys ~idx ~x0 ~xf ~horizon with
  | Error e -> Alcotest.failf "%s: %s" label (Nontree_error.to_string e)
  | Ok found ->
      Alcotest.(check (array (option string)))
        (label ^ ": crossings in %h") (hex expected) (hex found);
      found

(* The MST plus one chord from pin 0 to the highest-numbered pin it is
   not yet wired to. *)
let rec add_chord r j =
  match Routing.add_edge r 0 j with
  | r -> r
  | exception Invalid_argument _ -> add_chord r (j - 1)

let test_scan_matches_full_chunk_reference () =
  let tech = Circuit.Technology.table1 in
  let segmentation = Delay.Model.fast_spice.Delay.Model.segmentation in
  let both_options =
    [ ("fast", Spice.Engine.fast_options);
      ("default", Spice.Engine.default_options) ]
  in
  (* Lumped routings: MSTs, and the same with one chord added. *)
  List.iter
    (fun (pins, seed) ->
      let net =
        Geom.Netgen.uniform (Rng.create seed)
          ~region:(Geom.Rect.square 10_000.0) ~pins
      in
      let mst = Routing.mst_of_net net in
      List.iter
        (fun (shape, r) ->
          let nl, sinks =
            Delay.Lumping.circuit_of_routing ~segmentation
              ~include_inductance:false ~tech r
          in
          let horizon = Delay.Model.spice_horizon ~tech r in
          List.iter
            (fun (oname, options) ->
              let label =
                Printf.sprintf "%d pins, seed %d, %s, %s" pins seed shape oname
              in
              ignore
                (check_scan_matches_reference label ~options nl sinks ~horizon))
            both_options)
        [ ("mst", mst);
          ("mst+chord", add_chord mst (pins - 1)) ])
    [ (5, 1); (10, 2); (20, 3); (30, 4) ];
  (* One probe two doublings out: chunks end at 0.1, 0.3 and 0.7 ns,
     and the crossing sits near 0.69 ns. *)
  let t =
    check_scan_matches_reference "two doublings"
      ~options:Spice.Engine.fast_options (rc_circuit ()) [ "out" ]
      ~horizon:1e-10
  in
  (match t with
  | [| Some t |] ->
      Alcotest.(check bool) "crossed in the third chunk" true (t > 3e-10)
  | _ -> Alcotest.fail "expected one crossing");
  (* Probes crossing in different chunks (τ = 1 ns and 10 ns over a
     2 ns first chunk), beside a DC-driven probe that starts at its
     target. *)
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" and dc = Netlist.node nl "dc" in
  let fast = Netlist.node nl "fast" and slow = Netlist.node nl "slow" in
  let held = Netlist.node nl "held" in
  Netlist.vsource nl inp Netlist.ground step01;
  Netlist.vsource nl dc Netlist.ground (Waveform.Dc 1.0);
  Netlist.resistor nl inp fast 1e3;
  Netlist.resistor nl inp slow 1e4;
  Netlist.resistor nl dc held 1e3;
  List.iter
    (fun node -> Netlist.capacitor nl node Netlist.ground 1e-12)
    [ fast; slow; held ];
  List.iter
    (fun (oname, options) ->
      match
        check_scan_matches_reference ("mixed, " ^ oname) ~options nl
          [ "fast"; "held"; "slow" ] ~horizon:2e-9
      with
      | [| Some t_fast; Some t_held; Some t_slow |] ->
          Alcotest.(check bool) "fast probe in the first chunk" true
            (t_fast < 2e-9);
          Alcotest.(check (float 0.0)) "held probe at t = 0" 0.0 t_held;
          Alcotest.(check bool) "slow probe in the third chunk" true
            (t_slow > 6e-9)
      | _ -> Alcotest.fail "expected three crossings")
    both_options

(* The scan stops at its last crossing: about 23 of fast_options' 160
   steps for an RC whose 50 % point sits at 0.69 ns of a 5 ns window. *)
let test_scan_stops_at_last_crossing () =
  let scans = Obs.Counter.make "spice.scans" in
  let steps = Obs.Counter.make "spice.scan_steps" in
  let scans0 = Obs.Counter.value scans and steps0 = Obs.Counter.value steps in
  let nl = rc_circuit () in
  let sys, idx, x0, xf = scan_inputs nl [ "out" ] ~horizon:5e-9 in
  (match
     Spice.Engine.threshold_scan_result ~options:Spice.Engine.fast_options sys
       ~idx ~x0 ~xf ~horizon:5e-9
   with
  | Ok [| Some _ |] -> ()
  | _ -> Alcotest.fail "expected one crossing");
  Alcotest.(check int) "one scan counted" 1 (Obs.Counter.value scans - scans0);
  let taken = Obs.Counter.value steps - steps0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d steps of 160" taken)
    true
    (taken > 0 && taken < 30)

(* A NaN at an unknown no probe reads, in a part of the circuit the
   probe does not see: the probe still crosses, and the state check
   where the transient stops must reject the run. *)
let test_scan_rejects_unprobed_nan () =
  let nl = rc_circuit () in
  let island = Netlist.node nl "island" in
  Netlist.resistor nl island Netlist.ground 1e3;
  Netlist.capacitor nl island Netlist.ground 1e-12;
  let sys, idx, x0, xf = scan_inputs nl [ "out" ] ~horizon:5e-9 in
  let x0 = Array.copy x0 in
  x0.(sys.Spice.Mna.unknown_of_node.(island)) <- Float.nan;
  match
    Spice.Engine.threshold_scan_result ~options:Spice.Engine.fast_options sys
      ~idx ~x0 ~xf ~horizon:5e-9
  with
  | Error (Nontree_error.Non_finite _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Nontree_error.to_string e)
  | Ok _ -> Alcotest.fail "a non-finite state was accepted"

(* Measure ------------------------------------------------------------ *)

let test_first_crossing_interpolates () =
  let times = [| 0.0; 1.0; 2.0 |] and values = [| 0.0; 0.4; 0.8 |] in
  match Spice.Measure.first_crossing ~times ~values ~level:0.6 with
  | Some t -> Alcotest.(check (float 1e-12)) "interp" 1.5 t
  | None -> Alcotest.fail "expected crossing"

let test_first_crossing_none () =
  let times = [| 0.0; 1.0 |] and values = [| 0.0; 0.3 |] in
  Alcotest.(check bool) "no crossing" true
    (Spice.Measure.first_crossing ~times ~values ~level:0.5 = None)

let test_first_crossing_exact_sample () =
  let times = [| 0.0; 1.0; 2.0 |] and values = [| 0.0; 0.5; 1.0 |] in
  match Spice.Measure.first_crossing ~times ~values ~level:0.5 with
  | Some t -> Alcotest.(check (float 0.0)) "exact" 1.0 t
  | None -> Alcotest.fail "expected crossing"

let test_rise_time () =
  (* Linear ramp 0..1 over [0,1]: 10-90 rise time is 0.8. *)
  let n = 101 in
  let times = Array.init n (fun i -> float_of_int i /. 100.0) in
  let values = Array.copy times in
  match Spice.Measure.rise_time ~times ~values ~vfinal:1.0 with
  | Some rt -> Alcotest.(check (float 1e-9)) "rise" 0.8 rt
  | None -> Alcotest.fail "expected rise time"

(* Trace -------------------------------------------------------------- *)

let test_trace_csv_and_append () =
  let t1 =
    { Spice.Trace.times = [| 0.0; 1.0 |]; names = [| "a" |];
      data = [| [| 0.1; 0.2 |] |] }
  in
  let t2 =
    { Spice.Trace.times = [| 2.0 |]; names = [| "a" |]; data = [| [| 0.3 |] |] }
  in
  let t = Spice.Trace.append t1 t2 in
  Alcotest.(check int) "length" 3 (Spice.Trace.length t);
  let csv = Spice.Trace.to_csv t in
  Alcotest.(check bool) "header" true
    (String.length csv > 7 && String.sub csv 0 7 = "time,a\n");
  let mismatched =
    { Spice.Trace.times = [| 0.0 |]; names = [| "b" |]; data = [| [| 0.0 |] |] }
  in
  Alcotest.check_raises "probe mismatch"
    (Invalid_argument "Trace.append: probe mismatch") (fun () ->
      ignore (Spice.Trace.append t1 mismatched))

(* The companion assembly against a dense reference: Matrix.scale/add/
   sub build G + sC and sC - G, the active backend factors the lhs with
   the same ordering, and a dense mat-vec drives the steps. Every
   recorded value must match bit for bit. *)
let dense_transient (sys : Spice.Mna.t) ~method_ ~dt ~steps =
  let open Numeric in
  let g = Sparse.Csc.to_matrix sys.Spice.Mna.g_csc in
  let c = Sparse.Csc.to_matrix sys.Spice.Mna.c_csc in
  let lhs, explicit =
    match method_ with
    | Spice.Transient.Backward_euler ->
        let ch = Matrix.scale (1.0 /. dt) c in
        (Matrix.add g ch, ch)
    | Spice.Transient.Trapezoidal ->
        let c2h = Matrix.scale (2.0 /. dt) c in
        (Matrix.add g c2h, Matrix.sub c2h g)
  in
  let lu =
    match
      Backend.try_factor_csc ~symbolic:sys.Spice.Mna.lhs_sym
        (Sparse.Csc.of_matrix lhs)
    with
    | Ok f -> f
    | Error k -> Alcotest.failf "companion matrix singular at %d" k
  in
  let n = sys.Spice.Mna.size in
  let states = Array.init n (fun _ -> Array.make steps 0.0) in
  let x = ref (Array.make n 0.0) in
  let b_prev = ref (Spice.Mna.rhs sys 0.0) in
  for s = 0 to steps - 1 do
    let b' = Spice.Mna.rhs sys (float_of_int (s + 1) *. dt) in
    let ex = Matrix.mul_vec explicit !x in
    let rhs =
      Array.mapi
        (fun i e ->
          match method_ with
          | Spice.Transient.Backward_euler -> e +. b'.(i)
          | Spice.Transient.Trapezoidal -> e +. !b_prev.(i) +. b'.(i))
        ex
    in
    x := Backend.solve lu rhs;
    b_prev := b';
    Array.iteri (fun u v -> states.(u).(s) <- v) !x
  done;
  (states, !x)

(* An RC net with a cycle (chord a–c), so the pattern is not a tree. *)
let rc_mesh () =
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let a = Netlist.node nl "a" and b = Netlist.node nl "b" in
  let c = Netlist.node nl "c" and d = Netlist.node nl "d" in
  Netlist.vsource nl inp Netlist.ground step01;
  Netlist.resistor nl inp a 100.0;
  Netlist.resistor nl a b 200.0;
  Netlist.resistor nl b c 150.0;
  Netlist.resistor nl a c 300.0;
  Netlist.resistor nl c d 250.0;
  List.iter2
    (fun node f -> Netlist.capacitor nl node Netlist.ground f)
    [ a; b; c; d ]
    [ 1e-13; 2e-13; 1.5e-13; 3e-13 ];
  nl

let test_transient_matches_dense_reference () =
  let bits a = Array.map Int64.bits_of_float a in
  let prev = Numeric.Backend.kind () in
  Fun.protect ~finally:(fun () -> Numeric.Backend.set_kind prev) @@ fun () ->
  List.iter
    (fun (label, nl) ->
      let sys = Spice.Mna.build nl in
      let n = sys.Spice.Mna.size in
      List.iter
        (fun kind ->
          Numeric.Backend.set_kind kind;
          List.iter
            (fun (mname, method_) ->
              let dt = 1e-11 and steps = 300 in
              let run =
                Spice.Transient.run sys ~method_ ~x0:(Array.make n 0.0)
                  ~t0:0.0 ~dt ~steps ~probes:(Array.init n Fun.id)
              in
              let states, final = dense_transient sys ~method_ ~dt ~steps in
              let what =
                Printf.sprintf "%s, %s, %s" label mname
                  (Numeric.Backend.kind_to_string kind)
              in
              Alcotest.(check bool)
                (what ^ ": states bit-equal") true
                (Array.for_all2
                   (fun a b -> bits a = bits b)
                   run.Spice.Transient.states states);
              Alcotest.(check bool)
                (what ^ ": final bit-equal") true
                (bits run.Spice.Transient.final = bits final))
            [ ("euler", Spice.Transient.Backward_euler);
              ("trap", Spice.Transient.Trapezoidal) ])
        [ Numeric.Backend.Sparse; Numeric.Backend.Dense ])
    [ ("rc mesh", rc_mesh ()); ("rlc", underdamped_rlc ()) ]

(* Stamp deltas: an added element as rank-1 terms vs the extended
   system. *)
let test_delta_extend_matches_stamps () =
  let nl = Netlist.create () in
  let inp = Netlist.node nl "in" in
  let out = Netlist.node nl "out" in
  Netlist.vsource nl inp Netlist.ground step01;
  Netlist.resistor nl inp out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  let sys = Spice.Mna.build nl in
  let out_u = sys.Spice.Mna.unknown_of_node.(out) in
  let d = Spice.Mna.Delta.create sys in
  let p = Spice.Mna.Delta.fresh_unknown d in
  Spice.Mna.Delta.add_conductance d out_u p 1e-3;
  Spice.Mna.Delta.add_conductance d p (-1) 5e-4;
  Spice.Mna.Delta.add_capacitance d p (-1) 2e-12;
  let ext = Spice.Mna.Delta.extend sys d in
  let sys_g = Numeric.Sparse.Csc.to_matrix sys.Spice.Mna.g_csc in
  let ext_g = Numeric.Sparse.Csc.to_matrix ext.Spice.Mna.g_csc in
  let ext_c = Numeric.Sparse.Csc.to_matrix ext.Spice.Mna.c_csc in
  let nt = ext.Spice.Mna.size in
  Alcotest.(check int) "one appended unknown" (sys.Spice.Mna.size + 1) nt;
  (* Extended G must equal the embedded base plus the same stamps
     g_terms renders as rank-1 outer products. *)
  let expect = Numeric.Matrix.create nt nt in
  for i = 0 to sys.Spice.Mna.size - 1 do
    for j = 0 to sys.Spice.Mna.size - 1 do
      Numeric.Matrix.set expect i j (Numeric.Matrix.get sys_g i j)
    done
  done;
  List.iter
    (fun (alpha, u, v) ->
      for i = 0 to nt - 1 do
        for j = 0 to nt - 1 do
          Numeric.Matrix.add_to expect i j (alpha *. u.(i) *. v.(j))
        done
      done)
    (Spice.Mna.Delta.g_terms d);
  Alcotest.(check (float 1e-15)) "G matches rank-1 rendering" 0.0
    (Numeric.Matrix.max_abs (Numeric.Matrix.sub ext_g expect));
  Alcotest.(check (float 0.0)) "C stamped on pad diagonal" 2e-12
    (Numeric.Matrix.get ext_c p p);
  let b = Spice.Mna.rhs ext 0.5 in
  Alcotest.(check int) "rhs grows" nt (Array.length b);
  Alcotest.(check (float 0.0)) "rhs pad is zero" 0.0 b.(p);
  (* And the DC state through the Woodbury update equals a fresh solve
     of the extended matrix. *)
  match Numeric.Lu.try_factor sys_g with
  | Error _ -> Alcotest.fail "base G did not factor"
  | Ok base -> (
      match
        Numeric.Lu.Update.make ~pad:1 base (Spice.Mna.Delta.g_terms d)
      with
      | None -> Alcotest.fail "delta update degenerate"
      | Some up ->
          let x_upd = Numeric.Lu.Update.solve up b in
          let x_fresh = Numeric.Lu.solve_matrix ext_g b in
          Alcotest.(check (float 1e-9)) "DC states agree" 0.0
            (Numeric.Vec.max_abs_diff x_upd x_fresh))

let suites =
  [ ( "spice",
      [ Alcotest.test_case "dc divider" `Quick test_dc_divider;
        Alcotest.test_case "dc current source" `Quick test_dc_current_source;
        Alcotest.test_case "dc inductor short" `Quick test_dc_inductor_short;
        Alcotest.test_case "rc charging (trap)" `Quick
          test_rc_charging_trapezoidal;
        Alcotest.test_case "rc ramp (trap)" `Quick test_rc_ramp_trapezoidal;
        Alcotest.test_case "trap beats euler" `Quick test_trapezoidal_beats_euler;
        Alcotest.test_case "rc 50% delay = RC ln2" `Quick test_rc_50_delay;
        Alcotest.test_case "falling rc 50% delay = t0 + RC ln2" `Quick
          test_rc_50_delay_falling;
        Alcotest.test_case "pulse delay = step delay" `Quick
          test_pulse_delay_matches_step;
        Alcotest.test_case "horizon extension" `Quick test_horizon_extension;
        Alcotest.test_case "rlc overshoot" `Quick test_rlc_underdamped;
        Alcotest.test_case "rlc ringing period" `Quick
          test_rlc_oscillation_period;
        Alcotest.test_case "transient continuation" `Quick
          test_transient_continuation;
        Alcotest.test_case "transient = dense reference" `Quick
          test_transient_matches_dense_reference;
        Alcotest.test_case "floating node rejected" `Quick
          test_floating_node_rejected;
        Alcotest.test_case "engine validation" `Quick
          test_engine_argument_validation;
        Alcotest.test_case "max_delay failure path" `Quick
          test_max_delay_failure_path;
        Alcotest.test_case "threshold already settled" `Quick
          test_threshold_already_settled;
        Alcotest.test_case "scan = full-chunk reference" `Quick
          test_scan_matches_full_chunk_reference;
        Alcotest.test_case "scan stops at the last crossing" `Quick
          test_scan_stops_at_last_crossing;
        Alcotest.test_case "scan rejects an unprobed NaN" `Quick
          test_scan_rejects_unprobed_nan;
        Alcotest.test_case "crossing interpolates" `Quick
          test_first_crossing_interpolates;
        Alcotest.test_case "crossing none" `Quick test_first_crossing_none;
        Alcotest.test_case "crossing exact sample" `Quick
          test_first_crossing_exact_sample;
        Alcotest.test_case "delta extend matches stamps" `Quick
          test_delta_extend_matches_stamps;
        Alcotest.test_case "rise time" `Quick test_rise_time;
        Alcotest.test_case "trace csv/append" `Quick test_trace_csv_and_append
      ] ) ]
