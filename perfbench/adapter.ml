(* The one configuration adapter of the benchmark.

   Every call that configures the program, and every composition of
   the greedy pipeline the benchmark drives, lives here and nowhere
   else in the benchmark: the process-wide switches (matrix backend,
   incremental scoring, oracle cache, observability, fault injection),
   the objective and scorer [Ldrg.run] builds, and the two bridges the
   stage replay needs into the MNA representation. Only functions
   exported in .mli files are called, and no [Mna.t] record field is
   read, so refactors of those layers touch this file alone. *)

(* Fast path: what bin/tables runs by default — sparse backend,
   incremental scoring and the oracle cache on, faults off. [obs]
   switches span and histogram recording; untraced runs keep it off. *)
let fast ~obs =
  Numeric.Backend.set_kind Numeric.Backend.Sparse;
  Nontree.Incremental.set_enabled true;
  Nontree.Oracle.Cache.set_enabled true;
  Obs.set_enabled obs;
  Fault.disable ()

(* Slow path for the correctness check: dense LU, plain rebuild-and-
   refactor evaluations, no memo. *)
let slow () =
  Numeric.Backend.set_kind Numeric.Backend.Dense;
  Nontree.Incremental.set_enabled false;
  Nontree.Oracle.Cache.set_enabled false;
  Fault.disable ()

(* A fresh run: empty memo and zeroed robustness tallies. *)
let reset_run_state () =
  Nontree.Oracle.Cache.reset ();
  Nontree_error.Counters.reset ()

(* The composition [Ldrg.run] uses, exposed so the benchmark can wrap
   each piece: the guarded cached objective and the per-round
   incremental scorer falling back to it. *)
let objective ~model ~tech = Nontree.Oracle.objective ~model ~tech

let scorer ~model ~tech ~fallback =
  Nontree.Incremental.make_scorer ~model ~tech ~fallback

(* The slow-path objective value of a routing. Call under [slow]. *)
let slow_max_delay ~model ~tech r = Delay.Model.max_delay model ~tech r

(* Registry counters read as deltas around single evaluations. The
   benchmark runs on one domain, so a delta belongs to the call it
   brackets. *)
let counter name =
  let c = Obs.Counter.make name in
  fun () -> Obs.Counter.value c

let cache_hits = counter "oracle.cache.hits"
let cache_misses = counter "oracle.cache.misses"
let incremental_hits = counter "oracle.incremental_hits"
let incremental_fallbacks = counter "oracle.incremental_fallbacks"
let lu_factorizations = counter "lu.factorizations"
let sparse_factorizations = counter "sparse.factorizations"
let rank1_updates = counter "lu.rank1_updates"
let dense_fallbacks = counter "sparse.dense_fallbacks"

let retries () = (Nontree_error.Counters.snapshot ()).retries

let fallbacks () =
  let s = Nontree_error.Counters.snapshot () in
  s.moment_fallbacks + s.elmore_fallbacks

(* Mean fill ratio of the sparse factorisations recorded since the last
   reset; the histogram only records while observability is on. *)
let fill_ratio_reset, fill_ratio_mean =
  let h =
    Obs.Histogram.make "sparse.fill_ratio"
      ~buckets:[| 1.0; 1.5; 2.0; 3.0; 5.0; 10.0; 25.0 |]
  in
  ( (fun () -> Obs.Histogram.reset h),
    fun () ->
      let v = Obs.Histogram.view h in
      if v.count = 0 then 0.0 else v.total /. float_of_int v.count )

(* Bridges for the stage replay ---------------------------------------- *)

(* Unknown index of each netlist node, read through [Mna.voltage] on a
   state vector that holds each unknown's index plus one; ground reads
   0 and maps to -1. *)
let unknown_of_node sys nl =
  let size = Spice.Mna.Delta.size (Spice.Mna.Delta.create sys) in
  let x = Array.init size (fun i -> float_of_int (i + 1)) in
  fun name ->
    match Circuit.Netlist.find_node nl name with
    | None -> -1
    | Some node -> int_of_float (Spice.Mna.voltage sys x node) - 1

(* The right-hand side b(t) of [Mna.build nl], zero-padded to [size]:
   voltage sources and inductors take one branch row each after the
   node unknowns, in element order, and the source terms sum in the
   order [Mna.build] applies them. Lumped routings drive the net from
   one voltage source and carry no current sources. *)
let rhs nl ~size =
  let terms, _ =
    List.fold_left
      (fun (terms, row) e ->
        match e with
        | Circuit.Element.Vsource { wave; _ } -> ((row, wave) :: terms, row + 1)
        | Circuit.Element.Inductor _ -> (terms, row + 1)
        | Circuit.Element.Isource _ ->
            invalid_arg "Adapter.rhs: current sources are not replayed"
        | Circuit.Element.Resistor _ | Circuit.Element.Capacitor _ ->
            (terms, row))
      ([], Circuit.Netlist.num_nodes nl - 1)
      (Circuit.Netlist.elements nl)
  in
  fun t ->
    let b = Array.make size 0.0 in
    List.iter
      (fun (row, wave) ->
        b.(row) <- b.(row) +. (1.0 *. Circuit.Waveform.value wave t))
      terms;
    b
