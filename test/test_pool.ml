(* Tests for the Domain work pool and the parallel oracle layer built
   on it: map ordering and exception determinism across worker counts,
   greedy traces identical between --jobs 1 and --jobs 4, and the
   oracle memo cache returning bit-identical values while actually
   being hit by the harness. *)

open Geom

let tech = Circuit.Technology.table1
let moment_model = Delay.Model.First_moment

exception Boom of int

(* The cache is process-global and off by default; every cache test
   must leave it that way for whoever runs next. *)
let with_cache f =
  Nontree.Oracle.Cache.reset ();
  Nontree.Oracle.Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Nontree.Oracle.Cache.set_enabled false;
      Nontree.Oracle.Cache.reset ())
    f

let random_net seed pins =
  let g = Rng.create seed in
  Netgen.uniform g ~region:(Rect.square 10_000.0) ~pins

let random_mst seed pins = Routing.mst_of_net (random_net seed pins)

(* Pool.map semantics ---------------------------------------------------- *)

let test_map_matches_list_map () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let xs = List.init 100 Fun.id in
          Alcotest.(check (list int))
            (Printf.sprintf "%d jobs: 100 items in order" jobs)
            (List.map (fun x -> x * x) xs)
            (Pool.map pool (fun x -> x * x) xs);
          Alcotest.(check (list int))
            (Printf.sprintf "%d jobs: empty list" jobs)
            []
            (Pool.map pool (fun x -> x * x) []);
          Alcotest.(check (list int))
            (Printf.sprintf "%d jobs: singleton" jobs)
            [ 49 ]
            (Pool.map pool (fun x -> x * x) [ 7 ])))
    [ 1; 2; 3; 8 ]

let test_map_raises_lowest_index () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let raised =
            match
              Pool.map pool
                (fun i -> if i >= 37 then raise (Boom i) else i)
                (List.init 100 Fun.id)
            with
            | _ -> None
            | exception Boom i -> Some i
          in
          Alcotest.(check (option int))
            (Printf.sprintf "%d jobs: lowest failing index wins" jobs)
            (Some 37) raised))
    [ 1; 2; 4 ]

let test_nested_maps () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let inner i =
        Pool.map pool (fun j -> (10 * i) + j) (List.init 5 Fun.id)
      in
      Alcotest.(check (list (list int)))
        "inner maps on the same pool complete in order"
        (List.init 4 (fun i -> List.init 5 (fun j -> (10 * i) + j)))
        (Pool.map pool inner (List.init 4 Fun.id)))

let test_parallel_effects_all_land () =
  Pool.with_pool ~jobs:8 (fun pool ->
      let counter = Atomic.make 0 in
      ignore
        (Pool.map pool
           (fun _ -> Atomic.incr counter)
           (List.init 1000 Fun.id));
      Alcotest.(check int) "1000 increments, none lost" 1000
        (Atomic.get counter))

let test_map_after_shutdown () =
  let pool = Pool.create 4 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check (list int)) "caller finishes the job alone" [ 2; 4; 6 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])

(* Parallel greedy loops ------------------------------------------------- *)

let steps_of (trace : Nontree.Ldrg.trace) =
  List.map
    (fun (s : Nontree.Ldrg.step) ->
      ( s.Nontree.Ldrg.edge,
        s.Nontree.Ldrg.objective_before,
        s.Nontree.Ldrg.objective_after,
        s.Nontree.Ldrg.cost_before,
        s.Nontree.Ldrg.cost_after ))
    trace.Nontree.Ldrg.steps

let traces_identical a b =
  (* Bitwise float equality on purpose: the parallel run must evaluate
     the same candidates to the same values and pick the same winners,
     not merely land close. *)
  steps_of a = steps_of b
  && a.Nontree.Ldrg.evaluations = b.Nontree.Ldrg.evaluations
  && Routing.widths a.Nontree.Ldrg.final = Routing.widths b.Nontree.Ldrg.final

let prop_ldrg_trace_identical_under_jobs =
  QCheck.Test.make
    ~name:"LDRG: --jobs 4 trace structurally equal to sequential" ~count:10
    QCheck.(pair small_int (int_range 4 8))
    (fun (seed, pins) ->
      let mst = random_mst seed pins in
      let seq = Nontree.Ldrg.run ~model:moment_model ~tech mst in
      let par =
        Pool.with_pool ~jobs:4 (fun pool ->
            Nontree.Ldrg.run ~pool ~model:moment_model ~tech mst)
      in
      traces_identical seq par)

let test_ldrg_spice_trace_identical () =
  (* One fixed net under the SPICE oracle, where numeric noise would
     show up first if the parallel path perturbed evaluation at all. *)
  let mst = random_mst 42 8 in
  let model = Delay.Model.Spice Delay.Model.fast_spice in
  let seq = Nontree.Ldrg.run ~model ~tech mst in
  let par =
    Pool.with_pool ~jobs:4 (fun pool -> Nontree.Ldrg.run ~pool ~model ~tech mst)
  in
  Alcotest.(check bool) "SPICE traces identical" true (traces_identical seq par)

let test_h1_under_net_fanout () =
  (* H1 itself is serial; check that fanning nets out over a pool (as
     the harness does) reproduces the sequential traces. *)
  let nets = List.init 6 (fun i -> random_mst (100 + i) 6) in
  let run mst = Nontree.Heuristics.h1 ~model:moment_model ~tech mst in
  let seq = List.map run nets in
  let par = Pool.with_pool ~jobs:3 (fun pool -> Pool.map pool run nets) in
  Alcotest.(check bool) "h1 traces identical under fan-out" true
    (List.for_all2 traces_identical seq par)

let test_table_rows_identical_under_jobs () =
  let config jobs =
    { Nontree.Experiment.default with trials = 3; sizes = [ 5; 10 ]; jobs }
  in
  let rows jobs = Harness.Runs.table2 (config jobs) in
  Alcotest.(check bool) "table2 rows identical for jobs 1 and 2" true
    (rows 1 = rows 2)

(* Oracle memo cache ----------------------------------------------------- *)

let test_cache_bit_identical_and_hit () =
  with_cache (fun () ->
      let r = random_mst 7 6 in
      let direct = Delay.Robust.sink_delays_exn ~model:moment_model ~tech r in
      let first = Nontree.Oracle.Cache.sink_delays ~model:moment_model ~tech r in
      let second = Nontree.Oracle.Cache.sink_delays ~model:moment_model ~tech r in
      Alcotest.(check bool) "cached equals uncached, bit for bit" true
        (direct = first && first = second);
      let s = Nontree.Oracle.Cache.stats () in
      Alcotest.(check int) "one miss" 1 s.Nontree.Oracle.Cache.misses;
      Alcotest.(check int) "one hit" 1 s.Nontree.Oracle.Cache.hits;
      Alcotest.(check int) "one entry" 1 s.Nontree.Oracle.Cache.entries;
      Nontree.Oracle.Cache.store_delays ~model:moment_model ~tech r
        (List.map (fun (sink, d) -> (sink, 2.0 *. d)) first);
      Alcotest.(check bool) "a later store keeps the first value" true
        (Nontree.Oracle.Cache.sink_delays ~model:moment_model ~tech r = first))

let test_cache_key_discriminates () =
  with_cache (fun () ->
      let r = random_mst 11 6 in
      let u, v = List.hd (Routing.candidate_edges r) in
      let grown = Routing.add_edge r u v in
      let (wu, wv), _ = List.hd (Routing.widths r) in
      let widened = Routing.set_width r wu wv 2.0 in
      ignore (Nontree.Oracle.Cache.max_delay ~model:moment_model ~tech r);
      ignore (Nontree.Oracle.Cache.max_delay ~model:moment_model ~tech grown);
      ignore (Nontree.Oracle.Cache.max_delay ~model:moment_model ~tech widened);
      ignore
        (Nontree.Oracle.Cache.max_delay
           ~model:(Delay.Model.Spice Delay.Model.fast_spice) ~tech r);
      let s = Nontree.Oracle.Cache.stats () in
      Alcotest.(check int)
        "edge set, widths and model all key separately (4 misses)" 4
        s.Nontree.Oracle.Cache.misses;
      Alcotest.(check int) "no spurious hits" 0 s.Nontree.Oracle.Cache.hits)

let test_cache_disabled_passthrough () =
  Nontree.Oracle.Cache.reset ();
  let r = random_mst 13 5 in
  ignore (Nontree.Oracle.Cache.sink_delays ~model:moment_model ~tech r);
  ignore (Nontree.Oracle.Cache.sink_delays ~model:moment_model ~tech r);
  let s = Nontree.Oracle.Cache.stats () in
  Alcotest.(check int) "disabled cache records nothing" 0
    (s.Nontree.Oracle.Cache.hits + s.Nontree.Oracle.Cache.misses
   + s.Nontree.Oracle.Cache.entries)

let test_cache_hit_by_harness () =
  with_cache (fun () ->
      let config =
        { Nontree.Experiment.default with trials = 3; sizes = [ 10 ] }
      in
      let with_cache_rows = Harness.Runs.table2 config in
      let s = Nontree.Oracle.Cache.stats () in
      Alcotest.(check bool)
        "iteration replay hits the search's cached evaluations" true
        (s.Nontree.Oracle.Cache.hits > 0);
      Nontree.Oracle.Cache.set_enabled false;
      let without_cache_rows = Harness.Runs.table2 config in
      Alcotest.(check bool) "rows identical with and without cache" true
        (with_cache_rows = without_cache_rows))

(* The incremental scorer writes only round-best routings to the cache,
   at any worker count: during a run only plain-path evaluations (the
   baseline) touch the cache, every accepted routing is a hit
   afterwards with the bits the search scored, and the table holds far
   fewer entries than the run evaluated. *)
let test_incremental_stores_round_best () =
  let inc_hits = Obs.Counter.make "oracle.incremental_hits" in
  let r = random_mst 5 15 in
  let run pool =
    with_cache (fun () ->
        let h0 = Obs.Counter.value inc_hits in
        let trace = Nontree.Ldrg.run ~pool ~model:moment_model ~tech r in
        let incremental = Obs.Counter.value inc_hits - h0 in
        let s = Nontree.Oracle.Cache.stats () in
        Alcotest.(check int) "no hits during the run" 0
          s.Nontree.Oracle.Cache.hits;
        Alcotest.(check int) "misses = plain-path evaluations"
          (trace.Nontree.Ldrg.evaluations - incremental)
          s.Nontree.Oracle.Cache.misses;
        Alcotest.(check bool) "entries far below evaluations" true
          (10 * s.Nontree.Oracle.Cache.entries < trace.evaluations);
        List.iteri
          (fun k (step : Nontree.Ldrg.step) ->
            let d =
              Nontree.Oracle.Cache.max_delay ~model:moment_model ~tech
                (Nontree.Ldrg.routing_after trace (k + 1))
            in
            Alcotest.(check bool) "hit returns the scored bits" true
              (Int64.equal (Int64.bits_of_float d)
                 (Int64.bits_of_float step.objective_after)))
          trace.steps;
        let s' = Nontree.Oracle.Cache.stats () in
        Alcotest.(check int) "every accepted routing hits"
          (List.length trace.steps) s'.Nontree.Oracle.Cache.hits;
        Alcotest.(check int) "and misses nothing" s.Nontree.Oracle.Cache.misses
          s'.Nontree.Oracle.Cache.misses;
        List.map (fun (st : Nontree.Ldrg.step) -> st.edge) trace.steps)
  in
  let prev = Nontree.Incremental.enabled () in
  Nontree.Incremental.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Nontree.Incremental.set_enabled prev)
    (fun () ->
      let seq = run Pool.sequential in
      Alcotest.(check bool) "the run accepts edges" true (seq <> []);
      let par = Pool.with_pool ~jobs:2 run in
      Alcotest.(check (list (pair int int))) "same edges on 2 domains" seq par)

let suites =
  [ ( "pool",
      [ Alcotest.test_case "map = List.map, any worker count" `Quick
          test_map_matches_list_map;
        Alcotest.test_case "lowest-index exception" `Quick
          test_map_raises_lowest_index;
        Alcotest.test_case "nested maps" `Quick test_nested_maps;
        Alcotest.test_case "parallel effects all land" `Quick
          test_parallel_effects_all_land;
        Alcotest.test_case "map after shutdown" `Quick
          test_map_after_shutdown;
        QCheck_alcotest.to_alcotest prop_ldrg_trace_identical_under_jobs;
        Alcotest.test_case "spice trace identical under jobs" `Quick
          test_ldrg_spice_trace_identical;
        Alcotest.test_case "h1 under net fan-out" `Quick
          test_h1_under_net_fanout;
        Alcotest.test_case "table2 rows identical under jobs" `Quick
          test_table_rows_identical_under_jobs;
        Alcotest.test_case "cache bit-identical + hit" `Quick
          test_cache_bit_identical_and_hit;
        Alcotest.test_case "cache key discriminates" `Quick
          test_cache_key_discriminates;
        Alcotest.test_case "cache disabled passthrough" `Quick
          test_cache_disabled_passthrough;
        Alcotest.test_case "cache hit by harness" `Quick
          test_cache_hit_by_harness;
        Alcotest.test_case "incremental stores round-best only" `Quick
          test_incremental_stores_round_best ] ) ]
