(* One net through the greedy pipeline, as the table harness runs it:
   seed tree, [Ldrg.run_objective] with the composition [Ldrg.run]
   uses, then [Experiment.sample] (plus the per-iteration replays of
   Table 2's shape). Every evaluation is counted at the wrappers below
   by the path that served it; in a traced run the wrappers also time
   each layer's entry point. *)

type sample = { base : Routing.t; edge : int * int; scored : float }

type t = {
  id : int;
  added : (int * int) list;
  initial_delay : float;
  final_delay : float;
  final : Routing.t;
  ratio : float;  (* final over seed-tree delay, under the eval model *)
  replays : float list;  (* per-iteration delay ratios *)
  evaluations : int;  (* as counted by the greedy loop *)
  plain : int;
  incremental : int;
  cached : int;
  rounds : int;
  candidates : int;
  samples : sample list;  (* stage-replay picks; traced runs only *)
}

(* Which candidate of a round the traced run replays: one per round,
   drawn from the run seed, the net and the round. *)
let pick ~seed ~id ~round cands =
  match cands with
  | [] -> None
  | _ ->
      let rng = Rng.create ((seed * 1_000_003) + (id * 1_009) + round) in
      Some (List.nth cands (Rng.int rng (List.length cands)))

let route (w : Workload.t) ~seed ~id net =
  let model = w.model and tech = Workload.tech w in
  let config = Workload.config w in
  let plain = ref 0 and incremental = ref 0 and cached = ref 0 in
  let rounds = ref 0 and candidates = ref 0 and samples = ref [] in
  let initial_delay = ref None in
  let objective = Adapter.objective ~model ~tech in
  let counted_objective r =
    let hits = Adapter.cache_hits () in
    let d = Probe.timed "core.objective" (fun () -> objective r) in
    if Adapter.cache_hits () > hits then incr cached else incr plain;
    if !initial_delay = None then initial_delay := Some d;
    d
  in
  let last_cands = ref [] in
  let candidate_edges r =
    Obs.span "routing.candidates" (fun () ->
        let c = Routing.candidate_edges r in
        last_cands := c;
        candidates := !candidates + List.length c;
        c)
  in
  let scorer base =
    incr rounds;
    let picked =
      if Obs.enabled () then pick ~seed ~id ~round:!rounds !last_cands
      else None
    in
    match
      Obs.span "core.prepare" (fun () ->
          Adapter.scorer ~model ~tech ~fallback:objective base)
    with
    | None -> None
    | Some score ->
        Some
          (fun edge trial ->
            let hits = Adapter.cache_hits () in
            let inc = Adapter.incremental_hits () in
            let d = Probe.timed "core.score" (fun () -> score edge trial) in
            if Adapter.cache_hits () > hits then incr cached
            else if Adapter.incremental_hits () > inc then begin
              incr incremental;
              if picked = Some edge then
                samples := { base; edge; scored = d } :: !samples
            end
            else incr plain;
            d)
  in
  let initial =
    match w.seed_tree with
    | Workload.Mst ->
        Obs.span "routing.mst" (fun () -> Routing.mst_of_net net)
    | Workload.Steiner ->
        Obs.span "steiner.tree" (fun () -> Nontree.Sldrg.initial_tree net)
  in
  let trace =
    Obs.span "core.ldrg" (fun () ->
        Nontree.Ldrg.run_objective ~candidates:candidate_edges ~scorer
          ~objective:counted_objective initial)
  in
  let final = trace.Nontree.Ldrg.final in
  let ratio, replays =
    Obs.span "core.measure" (fun () ->
        let ratio baseline routing =
          (Nontree.Experiment.sample config ~baseline ~routing)
            .Nontree.Stats.delay_ratio
        in
        let steps = List.length trace.Nontree.Ldrg.steps in
        let replays =
          List.init (min w.replays steps) (fun i ->
              ratio
                (Nontree.Ldrg.routing_after trace i)
                (Nontree.Ldrg.routing_after trace (i + 1)))
        in
        (ratio initial final, replays))
  in
  let initial_delay = Option.get !initial_delay in
  let final_delay =
    List.fold_left
      (fun _ s -> s.Nontree.Ldrg.objective_after)
      initial_delay trace.Nontree.Ldrg.steps
  in
  { id;
    added = List.map (fun (s : Nontree.Ldrg.step) -> s.edge) trace.steps;
    initial_delay;
    final_delay;
    final;
    ratio;
    replays;
    evaluations = trace.Nontree.Ldrg.evaluations;
    plain = !plain;
    incremental = !incremental;
    cached = !cached;
    rounds = !rounds;
    candidates = !candidates;
    samples = List.rev !samples }

(* The committed expected-file line of a result: added edges and the
   delays, floats in exact hex. *)
let expected_line r =
  let hex = Printf.sprintf "%h" in
  let list f = function [] -> "-" | l -> String.concat "," (List.map f l) in
  Printf.sprintf "%d %s %s %s %s %s" r.id
    (list (fun (u, v) -> Printf.sprintf "%d-%d" u v) r.added)
    (hex r.initial_delay) (hex r.final_delay) (hex r.ratio)
    (list hex r.replays)

(* Checks outside the timed region: evaluation accounting, the slow-path
   re-score of the final routing, and the expected-file line. Returns
   the failures. *)
let check (w : Workload.t) ~expected ~obs r =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if r.plain + r.incremental + r.cached <> r.evaluations then
    fail "%d plain + %d incremental + %d cached <> %d evaluations" r.plain
      r.incremental r.cached r.evaluations;
  Adapter.slow ();
  let slow =
    Nontree_error.protect (fun () ->
        Adapter.slow_max_delay ~model:w.model ~tech:(Workload.tech w) r.final)
  in
  Adapter.fast ~obs;
  (match slow with
  | Error e -> fail "slow path failed: %s" (Nontree_error.to_string e)
  | Ok d ->
      if Float.abs (d -. r.final_delay) > 1e-9 *. Float.abs d then
        fail "slow path %h <> fast path %h" d r.final_delay);
  (match expected with
  | None -> ()
  | Some lines ->
      let got = expected_line r in
      if lines.(r.id) <> got then fail "expected %S, got %S" lines.(r.id) got);
  List.rev !failures
