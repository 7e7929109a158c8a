(** Fixed-step transient integration of MNA systems.

    Both methods assemble the iteration and explicit-side matrices
    from the system's CSC G and C in O(nnz), factor the former once
    through {!Numeric.Backend} and back-substitute per step after an
    O(nnz) explicit-side product. Under the default sparse backend the
    factorisation is near-O(nnz) (near-tree MNA patterns produce little
    fill) and each solve O(nnz); under the dense backend they are the
    classic O(n³) and O(n²):

    - backward Euler:  (G + C/h)·x' = (C/h)·x + b(t')
    - trapezoidal:     (G + 2C/h)·x' = (2C/h − G)·x + b(t) + b(t')

    Trapezoidal is second-order accurate and is the default everywhere;
    backward Euler is kept for its robustness to discontinuities and
    for convergence tests.

    {!integrate} is the one step loop. It hands each step's state to a
    callback, which may end the run early; per step it allocates no
    vector (b(t) goes through {!Mna.t.rhs_into} into two swapped
    buffers). {!run} is that loop with a callback that records every
    step. *)

type method_ = Backward_euler | Trapezoidal

type chunk = {
  times : float array;  (** step times, starting after [t0] *)
  states : float array array;  (** recorded unknowns per step, probe-major *)
  final : float array;  (** full state at the last step *)
}

val dc_operating_point : Mna.t -> float array
(** Solves G·x = b(0): capacitors open, inductors shorted.

    @raise Numeric.Lu.Singular for a structurally defective circuit
    (e.g. a node with no DC path to ground). *)

val integrate :
  Mna.t ->
  method_:method_ ->
  x0:float array ->
  t0:float ->
  dt:float ->
  steps:int ->
  on_step:(int -> float -> float array -> bool) ->
  float array * int
(** [integrate sys ~method_ ~x0 ~t0 ~dt ~steps ~on_step] integrates up
    to [steps] steps of size [dt] from state [x0] at time [t0]. After
    step [s] (from 0) it calls [on_step s t x] with the step's time
    [t = t0 + (s+1)·dt] and the full state [x], and stops when that
    returns [false]. [x] is the loop's state buffer, which the next
    step overwrites: a callback copies what it keeps. Returns that
    buffer, now the caller's, holding the state after the last step
    taken, and the number of steps taken.

    @raise Invalid_argument on non-positive [dt] or [steps], or a
    state-size mismatch.
    @raise Numeric.Lu.Singular when the companion matrix does not
    factor. *)

val run :
  Mna.t ->
  method_:method_ ->
  x0:float array ->
  t0:float ->
  dt:float ->
  steps:int ->
  probes:int array ->
  chunk
(** Integrates [steps] steps of size [dt] from state [x0] at time [t0],
    recording the unknowns listed in [probes] ([chunk.states.(i).(s)]
    is probe [i] at step [s]): {!integrate} with a recording callback
    that never stops early. Continuation is exact: pass [final] and
    the last time back in to extend a simulation.

    @raise Invalid_argument on non-positive [dt] or [steps], or a
    state-size mismatch. *)
