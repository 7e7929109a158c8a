(** High-level simulation driver.

    This is the "SPICE" the rest of the repository calls: given a
    netlist it computes operating points, transient traces, and the 50 %
    threshold delays that define the paper's delay metric t(n_i).

    Every analysis comes in two flavours: a [_result] variant that
    reports operational failures (singular MNA matrices, non-finite
    waveforms, probes that never settle) as [Nontree_error.t] — the
    fault-tolerant oracle route — and a legacy variant that raises
    {!Nontree_error.Error} instead. Argument-shape mistakes (unknown
    probe names, non-positive horizons) raise [Invalid_argument] in
    both. When fault injection ({!Fault}) is enabled, threshold-delay
    queries occasionally fail on purpose. *)

type options = {
  method_ : Transient.method_;  (** integration method (default trapezoidal) *)
  steps_per_chunk : int;
      (** timesteps per simulation chunk; also sets the step size of a
          fixed-horizon transient *)
  max_extensions : int;
      (** how many times a threshold search may double its horizon
          before giving up *)
}

val default_options : options
(** Trapezoidal, 600 steps per chunk, 12 extensions. *)

val fast_options : options
(** Coarser (160 steps) — used inside greedy routing loops where
    thousands of simulations are run per net. *)

val accurate_options : options
(** Finer (2500 steps) — for final reported numbers. *)

val dc : Circuit.Netlist.t -> (string * float) list
(** DC operating point at t = 0: node name → voltage, excluding
    ground.

    @raise Nontree_error.Error on a singular or non-finite system. *)

val dc_result :
  Circuit.Netlist.t -> ((string * float) list, Nontree_error.t) result

val transient :
  ?options:options ->
  Circuit.Netlist.t ->
  tstop:float ->
  probes:string list ->
  Trace.t
(** Fixed-horizon transient from the t=0 operating point, recording the
    named nodes.

    @raise Invalid_argument for an unknown probe name or a
    non-positive [tstop].
    @raise Nontree_error.Error on a singular system or a waveform that
    leaves the finite range. *)

val transient_result :
  ?options:options ->
  Circuit.Netlist.t ->
  tstop:float ->
  probes:string list ->
  (Trace.t, Nontree_error.t) result

val settled_time : horizon:float -> float
(** The time at which the threshold targets' DC endpoint is evaluated:
    [infinity], where every source takes its settled level
    ({!Circuit.Waveform.value}), a PULSE its first-edge level. The
    same for every [horizon]. *)

val threshold_scan_result :
  ?options:options ->
  Mna.t ->
  idx:int array ->
  x0:float array ->
  xf:float array ->
  horizon:float ->
  (float option array, Nontree_error.t) result
(** The chunked threshold search on an already-built system: starting
    from state [x0], integrate and extend (doubling the window up to
    [max_extensions] times) until every probed unknown in [idx] crosses
    50% of the way from its initial to its settled value [xf]; probes
    that never cross report [None]. A probe that settles above its
    start crosses upward ([v ≥ target]), one that settles below it
    downward ([v ≤ target]); one whose start equals its target reports
    0. The crossing is interpolated linearly between the two samples
    around it. This is the core of {!threshold_delays_result}, exposed
    so the incremental oracle can run the identical scan on a
    rank-1-extended system without rebuilding the netlist. No fault is
    injected here — the callers own that draw.

    The crossing test runs inside {!Transient.integrate}'s step loop,
    and the transient stops at the step where the last probe crosses:
    the waveform after it is never computed. Finiteness is checked
    there too. Every step checks the probed unknowns, and the full
    state is checked wherever a chunk stops or ends; either failing
    gives [Non_finite]. A state that would turn non-finite only after
    the last crossing is therefore not detected. Each call counts one
    [spice.scans] and adds its chunks' steps to [spice.scan_steps].

    @raise Invalid_argument on a non-positive [horizon]. *)

val threshold_delays_result :
  ?options:options ->
  Circuit.Netlist.t ->
  probes:string list ->
  horizon:float ->
  ((string * float option) list, Nontree_error.t) result
(** [threshold_delays_result nl ~probes ~horizon] runs the transient
    from the t=0 operating point, extending (doubling) the simulated
    window until every probe has crossed 50% of the way to its final
    DC value or [max_extensions] is exhausted; unreached probes report
    [None]. [horizon] is the initial window estimate — a few times the
    slowest expected time constant. The scan is
    {!threshold_scan_result}'s, so falling probes are measured too.

    Waveforms are guarded as there: a non-finite probe value, or a
    non-finite state where the transient stops, aborts the analysis
    with [Non_finite] rather than scanning garbage for threshold
    crossings; singular factorisations surface as [Singular_matrix]. *)

val threshold_delays :
  ?options:options ->
  Circuit.Netlist.t ->
  probes:string list ->
  horizon:float ->
  (string * float option) list
(** Legacy variant of {!threshold_delays_result}.

    @raise Nontree_error.Error on operational failure. *)

val max_delay_result :
  ?options:options ->
  Circuit.Netlist.t ->
  probes:string list ->
  horizon:float ->
  (float, Nontree_error.t) result
(** Maximum threshold delay across [probes] — the paper's objective
    t(G) = max_i t(n_i). A probe that never settles is an error
    ([Probe_never_settled]), not a silent [None]. *)

val max_delay :
  ?options:options ->
  Circuit.Netlist.t ->
  probes:string list ->
  horizon:float ->
  float
(** Legacy variant of {!max_delay_result}.

    @raise Nontree_error.Error when some probe never settles (the
    simulation window was exhausted) or the system is singular. *)
