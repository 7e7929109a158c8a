(** Robust oracle access for the greedy loops.

    The loops (LDRG, pruning, wire sizing, ...) evaluate one baseline
    routing followed by many candidate edits. Failure semantics differ:
    if the *baseline* cannot be evaluated the whole net is unusable and
    the typed error propagates (callers drop the net and count it),
    whereas a failed *candidate* evaluation merely discards that
    candidate — it scores [infinity], is never selected, and the loop
    continues. Both paths go through {!Delay.Robust}, so every failure
    has already survived retry-with-refinement and model degradation
    before reaching these guards. *)

val net_of_points :
  Geom.Point.t list -> (Geom.Net.t, Nontree_error.t) result
(** Safe net construction: coincident pins, too few pins and similar
    degeneracies come back as [Invalid_net] instead of
    [Invalid_argument]. *)

val guard : (Routing.t -> float) -> Routing.t -> float
(** [guard objective] wraps an objective that may raise
    {!Nontree_error.Error}: the first evaluation re-raises (baseline
    semantics), later evaluations log, count a dropped evaluation and
    return [infinity] (candidate semantics). The guard is stateful —
    build a fresh one per greedy loop — and domain-safe: the
    first-evaluation flag is claimed with an atomic exchange, so under
    [--jobs > 1] exactly one evaluation gets baseline semantics. *)

(** Memo layer over the fault-tolerant oracle.

    Its structural job is the measurement replays: [Experiment.sample],
    [iteration_samples] and the figures measure routings the greedy
    search already scored. The cache keys on everything the oracle
    result depends on — delay model (including its SPICE configuration),
    technology constants, vertex geometry, and the edge set with widths
    — rendered exactly (floats as [%h] hex) and digested. A hit returns
    the sink delays of whichever path first computed the routing, bit
    for bit. That may be an incremental (Woodbury) evaluation, whose
    last bits can differ from a fresh plain one: cached and uncached
    runs agree at printed precision, not in [%h].

    Disabled by default (library semantics unchanged). Of the binaries
    only [bin/tables] enables it, unless [--no-cache] is given;
    [bin/compare] and [bin/route] run uncached. Failed evaluations are
    never cached, so retry behaviour under fault injection is unaffected. At
    most 200_000 entries are held; beyond that results are computed but
    not stored. All state is domain-safe: the table is mutex-protected
    and the counters are atomics. *)
module Cache : sig
  type stats = { hits : int; misses : int; entries : int }
  (** [entries] depends on scheduling: with several worker domains,
      which candidates lower their round's running minimum, and so are
      stored by {!store_delays}, depends on the order the domains
      finish in. [hits] and [misses] do not. *)

  val set_enabled : bool -> unit
  val enabled : unit -> bool

  val reset : unit -> unit
  (** Drop all entries and zero the hit/miss counters. *)

  val stats : unit -> stats

  val summary : unit -> string option
  (** One human-readable line ("oracle cache: H hits, M misses (R hit
      rate)") — printed by [bin/tables] next to the robustness summary.
      It leaves out [entries], so it reads the same at any [--jobs].
      The hit rate reads "n/a" (never NaN) when the cache saw no
      traffic; [None] only when the cache is disabled and idle. *)

  val store_delays :
    model:Delay.Model.t ->
    tech:Circuit.Technology.t ->
    Routing.t ->
    (int * float) list ->
    unit
  (** Publish sink delays computed outside {!sink_delays} (the
      incremental scorer's round winners) under the same key, counting
      neither a hit nor a miss. A key already present keeps its first
      value; a no-op when the cache is disabled. *)

  val sink_delays :
    model:Delay.Model.t ->
    tech:Circuit.Technology.t ->
    Routing.t ->
    (int * float) list
  (** Memoised {!Delay.Robust.sink_delays_exn} (identity when the cache
      is disabled).
      @raise Nontree_error.Error as the underlying oracle does. *)

  val max_delay :
    model:Delay.Model.t -> tech:Circuit.Technology.t -> Routing.t -> float
  (** Maximum sink delay via {!sink_delays} — the objective of the
      greedy loops.
      @raise Nontree_error.Error as the underlying oracle does. *)
end

val objective :
  model:Delay.Model.t -> tech:Circuit.Technology.t -> Routing.t -> float
(** [objective ~model ~tech] is a fresh guarded max-delay objective
    running on the fault-tolerant {!Delay.Robust} path, through
    {!Cache} when it is enabled. *)
