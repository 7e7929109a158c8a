(* Greedy-routing benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload NAME --write-expected

   Routes the workload's net pool back to back on one domain, in whole
   passes (the oracle memo starts empty each pass, as in one table
   run); a further pass runs only if it should end within S seconds.
   Every net is checked outside the timed region. The last stdout line
   is one JSON object with the end-to-end metrics (--trace 0) or the
   per-layer metrics (--trace 1); a readable report goes to stderr.
   Exits 1 when any check fails. *)

let expected_path (w : Workload.t) =
  Filename.concat "perfbench" (Filename.concat "expected" (w.name ^ ".txt"))

let load_expected (w : Workload.t) =
  let ic = open_in (expected_path w) in
  let rec lines acc =
    match input_line ic with
    | l -> lines (if l <> "" && l.[0] = '#' then acc else l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let a = Array.of_list (lines []) in
  close_in ic;
  if Array.length a <> w.pool then
    failwith
      (Printf.sprintf "%s: %d lines for a pool of %d nets" (expected_path w)
         (Array.length a) w.pool);
  a

(* Statistics ------------------------------------------------------------ *)

(* Linear-interpolated quantile; 0 for an empty list (a layer the
   workload bypasses). *)
let quantile q l =
  let a = Array.of_list (List.sort Float.compare l) in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l
let sum l = List.fold_left ( +. ) 0.0 l

let mean = function
  | [] -> 0.0
  | l -> sum l /. float_of_int (List.length l)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Runs ------------------------------------------------------------------ *)

type net_stat = {
  result : Net_run.t;
  seconds : float;  (* timed region: tree, greedy loop, measurement *)
  gc : Gc.stat * Gc.stat;  (* quick_stat at start and end of the net *)
  counters : (unit -> int) -> int;  (* registry counter delta *)
}

type run = {
  attempted : int;
  nets : net_stat list;  (* routed, in routing order *)
  failures : (int * string) list;  (* net id, what failed *)
  top_heap_words : int;  (* after the first pass *)
}

let counter_probes =
  [ Adapter.cache_hits; Adapter.cache_misses; Adapter.incremental_hits;
    Adapter.incremental_fallbacks; Adapter.lu_factorizations;
    Adapter.sparse_factorizations; Adapter.rank1_updates;
    Adapter.dense_fallbacks; Adapter.retries; Adapter.fallbacks ]

let route_one w ~seed ~expected ~obs id net =
  let before = List.map (fun c -> (c, c ())) counter_probes in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Nontree_error.protect (fun () ->
        Probe.root "bench.net" ~net:id (fun () ->
            Net_run.route w ~seed ~id net))
  in
  let t1 = Unix.gettimeofday () in
  let gc1 = Gc.quick_stat () in
  let after = List.map (fun (c, _) -> (c, c ())) before in
  let counters c = List.assq c after - List.assq c before in
  match outcome with
  | Error e -> (None, [ (id, "dropped: " ^ Nontree_error.to_string e) ])
  | Ok result ->
      Printf.eprintf "net %d: %.3f s, %d evaluations\n%!" id (t1 -. t0)
        result.evaluations;
      let failures = Net_run.check w ~expected ~obs result in
      ( Some { result; seconds = t1 -. t0; gc = (gc0, gc1); counters },
        List.map (fun f -> (id, f)) failures )

(* Whole passes over the nets [ids]: the first always, each further one
   while [more ~elapsed ~last] holds for the time elapsed so far and the
   duration of the last pass. [after_pass] runs after each pass, outside
   the timed region. *)
let run_passes ?(after_pass = ignore) w ~seed ~expected ~obs ~more ~ids nets =
  let start = Unix.gettimeofday () in
  let rec pass ~passes acc failures top =
    Adapter.reset_run_state ();
    (* Each pass starts from a compacted heap, so passes and phases
       compare like for like. *)
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let acc, failures =
      Array.fold_left
        (fun (acc, failures) id ->
          let stat, f = route_one w ~seed ~expected ~obs id nets.(id) in
          (Option.fold ~none:acc ~some:(fun s -> s :: acc) stat, f @ failures))
        (acc, failures) ids
    in
    let t1 = Unix.gettimeofday () in
    Printf.eprintf "pass of %d nets: %.3f s\n%!" (Array.length ids) (t1 -. t0);
    (* The peak heap is read after the first pass, so it does not depend
       on how many passes fit in the run. *)
    let top = if passes = 0 then (Gc.quick_stat ()).top_heap_words else top in
    after_pass ();
    if more ~elapsed:(t1 -. start) ~last:(t1 -. t0) then
      pass ~passes:(passes + 1) acc failures top
    else
      { attempted = (passes + 1) * Array.length ids;
        nets = List.rev acc;
        failures = List.rev failures;
        top_heap_words = top }
  in
  pass ~passes:0 [] [] 0

(* Another pass only when it should end within [seconds]. *)
let within seconds ~elapsed ~last = elapsed +. last <= seconds
let once ~elapsed:_ ~last:_ = false

(* Nets per second of routing time, over every routed net. *)
let nets_per_s run =
  float_of_int (List.length run.nets)
  /. sum (List.map (fun n -> n.seconds) run.nets)

(* Metrics --------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Per distinct net, in the order first routed: its latencies over the
   passes, and its result. *)
let by_net run =
  let tbl = Hashtbl.create 64 in
  List.filter_map
    (fun n ->
      let id = n.result.id in
      match Hashtbl.find_opt tbl id with
      | Some seconds ->
          seconds := n.seconds :: !seconds;
          None
      | None ->
          let seconds = ref [ n.seconds ] in
          Hashtbl.add tbl id seconds;
          Some (seconds, n.result))
    run.nets
  |> List.map (fun (seconds, result) -> (!seconds, result))

(* Timings are robust to a noisy host: each distinct net's latency is
   its median over the passes, and throughput is the pool's size over
   the sum of those medians, so one slow pass does not move them. The
   tail is taken over every routed latency. *)
let end_to_end ~setup_s run =
  let nets = by_net run in
  let typical = List.map (fun (l, _) -> median l) nets in
  let all_ms = List.map (fun n -> n.seconds *. 1e3) run.nets in
  let n = List.length all_ms in
  (* The highest percentile with at least 10 latencies beyond it. *)
  let tail = Float.max 0.0 (1.0 -. (10.0 /. float_of_int n)) in
  Printf.eprintf "net_ms_tail is p%.1f over n=%d routed nets (%d distinct)\n"
    (100.0 *. tail) n (List.length nets);
  [ metric "setup_s" "s" setup_s;
    metric "nets_per_s" "1/s"
      (float_of_int (List.length typical) /. sum typical);
    metric "net_ms_p50" "ms" (median typical *. 1e3);
    metric "net_ms_tail" "ms" (quantile tail all_ms);
    metric "peak_heap_mb" "MB"
      (float_of_int (run.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    metric "delay_ratio_mean" "ratio"
      (mean (List.map (fun (_, r) -> r.Net_run.ratio) nets)) ]

(* Stage replays of the sampled candidates: spans for the per-layer
   breakdown, and a bit-for-bit comparison with the scorer. *)
let replay_samples (w : Workload.t) run =
  let tech = Workload.tech w in
  List.concat_map
    (fun n ->
      let id = n.result.id in
      Probe.root "bench.replay" ~net:id @@ fun () ->
      List.filter_map
        (fun (s : Net_run.sample) ->
          let u, v = s.edge in
          Stages.plain ~model:w.model ~tech (Routing.add_edge s.base u v);
          match Stages.replay ~model:w.model ~tech s.base s.edge with
          | Ok d when Int64.(equal (bits_of_float d) (bits_of_float s.scored))
            ->
              None
          | Ok d ->
              Some
                (id, Printf.sprintf "edge %d-%d: replay %h <> scorer %h" u v d
                       s.scored)
          | Error why ->
              Some (id, Printf.sprintf "edge %d-%d: replay failed: %s" u v why))
        n.result.samples)
    run.nets

(* Span, sample and timing metrics come from the traced pass [traced];
   counts, registry counters and GC deltas from the untraced pass
   [untraced] over the same nets, so tracing's own allocations and
   bookkeeping do not show in them. *)
let per_layer ~traced ~untraced ~fill_ratio =
  let nets = float_of_int (List.length untraced.nets) in
  let total f =
    float_of_int (List.fold_left (fun acc n -> acc + f n) 0 untraced.nets)
  in
  let per_net f = total (fun n -> f n.result) /. nets in
  let evals = total (fun n -> n.result.evaluations) in
  let counter c = total (fun n -> n.counters c) in
  let gc f =
    total (fun n ->
        let a, b = n.gc in
        int_of_float (f b -. f a))
  in
  let scaled k l = List.map (fun s -> s *. k) l in
  let med_us name = median (scaled 1e6 (Probe.durations name)) in
  let med_ms name = median (scaled 1e3 (Probe.durations name)) in
  let self = Probe.self_times () in
  let score = scaled 1e6 (Probe.samples_of "core.score") in
  let hits = counter Adapter.cache_hits in
  let incremental = counter Adapter.incremental_hits in
  [ metric "routing.mst_ms" "ms" (med_ms "routing.mst");
    metric "routing.candidates_ms" "ms" (med_ms "routing.candidates");
    metric "steiner.tree_ms" "ms" (med_ms "steiner.tree");
    metric "core.rounds_per_net" "count" (per_net (fun r -> r.rounds));
    metric "core.candidates_per_net" "count" (per_net (fun r -> r.candidates));
    metric "core.evals.plain" "count" (per_net (fun r -> r.plain));
    metric "core.evals.incremental" "count" (per_net (fun r -> r.incremental));
    metric "core.evals.cached" "count" (per_net (fun r -> r.cached));
    metric "core.evals_per_s" "1/s"
      (ratio evals (sum (Probe.durations "core.ldrg")));
    metric "core.incremental_ratio" "ratio"
      (ratio incremental
         (incremental +. counter Adapter.incremental_fallbacks));
    metric "core.cache_hit_ratio" "ratio"
      (ratio hits (hits +. counter Adapter.cache_misses));
    metric "core.prepare_ms" "ms" (med_ms "core.prepare");
    metric "core.score_us_p50" "us" (quantile 0.5 score);
    metric "core.score_us_p90" "us" (quantile 0.9 score);
    metric "core.objective_us_p50" "us"
      (median (scaled 1e6 (Probe.samples_of "core.objective")));
    metric "core.measure_ms" "ms" (med_ms "core.measure");
    metric "core.self_ms" "ms" (self "core" *. 1e3 /. nets);
    metric "delay.eval_us_p50" "us" (med_us "delay.eval");
    metric "delay.lumping_us" "us" (med_us "delay.lumping");
    metric "delay.retries" "count" (counter Adapter.retries);
    metric "delay.fallbacks" "count" (counter Adapter.fallbacks);
    metric "spice.mna_build_us" "us" (med_us "spice.mna_build");
    metric "spice.extend_us" "us" (med_us "spice.extend");
    metric "spice.scan_us" "us" (med_us "spice.scan");
    metric "spice.transient_setup_us" "us" (med_us "spice.transient_setup");
    metric "spice.step_ns" "ns"
      (median (scaled 1e9 (Probe.samples_of "spice.step")));
    metric "numeric.factor_us" "us" (med_us "numeric.factor");
    metric "numeric.update_us" "us" (med_us "numeric.update");
    metric "numeric.factorizations_per_eval" "count"
      (ratio
         (counter Adapter.lu_factorizations
         +. counter Adapter.sparse_factorizations)
         evals);
    metric "numeric.rank1_per_eval" "count"
      (ratio (counter Adapter.rank1_updates) evals);
    metric "numeric.fill_ratio" "ratio" fill_ratio;
    metric "numeric.dense_fallbacks" "count" (counter Adapter.dense_fallbacks);
    metric "gc.alloc_words_per_eval" "words"
      (ratio (gc (fun s -> s.minor_words +. s.major_words -. s.promoted_words))
         evals);
    metric "gc.promoted_words_per_eval" "words"
      (ratio (gc (fun s -> s.promoted_words)) evals);
    metric "gc.major_per_net" "count"
      (gc (fun s -> float_of_int s.major_collections) /. nets);
    metric "obs.trace_overhead" "ratio"
      (ratio (nets_per_s traced) (nets_per_s untraced)) ]

(* Per-net Gc.quick_stat deltas, one JSON line each, for the trace. *)
let gc_lines run =
  List.map
    (fun n ->
      let (a : Gc.stat), b = n.gc in
      Printf.sprintf
        "{\"net\":%d,\"seconds\":%.9f,\"minor_words\":%.0f,\
         \"promoted_words\":%.0f,\"major_words\":%.0f,\
         \"minor_collections\":%d,\"major_collections\":%d}"
        n.result.id n.seconds
        (b.minor_words -. a.minor_words)
        (b.promoted_words -. a.promoted_words)
        (b.major_words -. a.major_words)
        (b.minor_collections - a.minor_collections)
        (b.major_collections - a.major_collections))
    run.nets

(* Output ---------------------------------------------------------------- *)

let finish runs ~failures metrics =
  let attempted = List.fold_left (fun acc r -> acc + r.attempted) 0 runs in
  let failed = List.length (List.sort_uniq compare (List.map fst failures)) in
  List.iter (fun (id, f) -> Printf.eprintf "net %d: %s\n" id f) failures;
  Printf.eprintf "attempted %d nets, failed_frac %g\n" attempted
    (float_of_int failed /. float_of_int (max 1 attempted));
  List.iter
    (fun m -> Printf.eprintf "  %-34s %16.6f %s\n" m.name m.value m.unit_)
    metrics;
  let field m =
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name
      m.value m.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map field metrics));
  if failed > 0 then exit 1

(* Set-up: configuration, the net pool and the expected results. *)
let setup w =
  Adapter.fast ~obs:false;
  Adapter.reset_run_state ();
  (Workload.nets w, load_expected w)

(* Set-up time from process start: the wall times of [reps] launches of
   the benchmark in --setup-only mode, one process at a time. *)
let setup_launches (w : Workload.t) ~reps =
  let launch () =
    let t0 = Unix.gettimeofday () in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--workload"; w.name; "--setup-only" |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Unix.gettimeofday () -. t0
    | _ -> failwith "set-up launch failed"
  in
  List.init reps (fun _ -> launch ())

let write_expected (w : Workload.t) =
  Adapter.fast ~obs:false;
  Adapter.reset_run_state ();
  let run =
    run_passes w ~seed:0 ~expected:None ~obs:false ~more:once
      ~ids:(Array.init w.pool Fun.id) (Workload.nets w)
  in
  if run.failures <> [] then finish [ run ] ~failures:run.failures [];
  let oc = open_out (expected_path w) in
  Printf.fprintf oc
    "# %s: per pool net: id, added edges, seed-tree and final max delay,\n\
     # final/seed delay ratio, per-iteration replay ratios (floats in %%h).\n"
    w.name;
  List.iter
    (fun n -> output_string oc (Net_run.expected_line n.result ^ "\n"))
    run.nets;
  close_out oc

let traced_run (w : Workload.t) ~seed ~expected ~order nets =
  (* Untraced, traced and untraced again over the pool in the seed's
     order. The first pass also warms the process up (its heap grows
     onto fresh pages), so the tracing overhead is the traced pass's
     throughput over the last one's. Every pass is checked against the
     expected results, so traced and untraced per-net results are
     identical. *)
  let pass ~obs =
    run_passes w ~seed ~expected ~obs ~more:once ~ids:order nets
  in
  let before = pass ~obs:false in
  Adapter.fast ~obs:true;
  Adapter.fill_ratio_reset ();
  Probe.reset ();
  let traced = pass ~obs:true in
  let fill_ratio = Adapter.fill_ratio_mean () in
  Adapter.fast ~obs:false;
  let after = pass ~obs:false in
  Adapter.fast ~obs:true;
  let replay_failures = replay_samples w traced in
  Adapter.fast ~obs:false;
  (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
  Probe.write
    ~path:(Printf.sprintf ".perfbench/trace-%s-seed%d.jsonl" w.name seed)
    (gc_lines traced);
  finish [ before; traced; after ]
    ~failures:
      (before.failures @ traced.failures @ after.failures @ replay_failures)
    (per_layer ~traced ~untraced:after ~fill_ratio)

let main ~workload ~seed ~seconds ~trace ~write ~setup_only =
  let w =
    match Workload.find workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S\n" workload;
        exit 2
  in
  if write then write_expected w
  else if setup_only then ignore (setup w)
  else begin
    let nets, expected = setup w in
    let expected = Some expected in
    let order = Workload.order w ~seed in
    if trace then traced_run w ~seed ~expected ~order nets
    else begin
      (* Set-up is timed before the first pass and after each one, so
         its median spans the run's host speed as the net timings do. *)
      let launches = ref [] in
      let time_setup () = launches := setup_launches w ~reps:17 @ !launches in
      time_setup ();
      let run =
        run_passes ~after_pass:time_setup w ~seed ~expected ~obs:false
          ~more:(within seconds) ~ids:order nets
      in
      finish [ run ] ~failures:run.failures
        (end_to_end ~setup_s:(median !launches) run)
    end
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and write = ref false and setup_only = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed ordering the net pool");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 untraced end-to-end or traced per-layer run" );
      ( "--write-expected",
        Arg.Set write,
        " route the pool once and write its expected results" );
      ( "--setup-only",
        Arg.Set setup_only,
        " set up and exit (timed by the benchmark itself)" ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    ~write:!write ~setup_only:!setup_only
