(** Matrix-backend dispatch: one factorisation type over the sparse
    ({!Sparse}) and dense ({!Lu}) kernels.

    The process-wide backend kind (set from [--matrix-backend], sparse
    by default) decides how full MNA systems are factored. The sparse
    path additionally keeps the dense robustness semantics from the
    fault-tolerant oracle stack: when threshold partial pivoting gives
    up on a borderline matrix, {!try_factor} silently retries with the
    dense kernel — dense full partial pivoting is the authority on
    singularity, so a system is reported singular under the sparse
    backend exactly when the dense backend would report it singular.
    Fallbacks are tallied under [sparse.dense_fallbacks].

    Factorisations are domain-safe to share read-only; per-domain
    solves should thread private workspaces via {!solve_with}. *)

type kind = Dense | Sparse

val set_kind : kind -> unit
(** Select the process-wide backend (sparse at start-up). *)

val kind : unit -> kind
val kind_to_string : kind -> string

type t
(** A factorisation by whichever backend was active when it was made. *)

val try_factor : Matrix.t -> (t, int) result
(** Factor a dense-assembled matrix under the active backend; the
    sparse path orders it with {!Sparse.analyze}. Error codes are those
    of {!Lu.try_factor}.

    @raise Invalid_argument when the matrix is not square. *)

val try_factor_csc :
  ?symbolic:Sparse.Symbolic.t -> Sparse.Csc.t -> (t, int) result
(** Factor a sparse-assembled matrix. [symbolic] (used only by the
    sparse path) supplies a precomputed fill-reducing ordering. The
    dense backend, and the dense retry after a sparse pivot failure,
    factor the {!Sparse.Csc.to_matrix} expansion. Error codes are as in
    {!try_factor}.

    @raise Invalid_argument when the matrix is not square or [symbolic]
    has the wrong size. *)

val factor : Matrix.t -> t
(** @raise Lu.Singular when no usable pivot exists (either kernel). *)

val size : t -> int
val solve : t -> float array -> float array
val solve_in_place : t -> float array -> unit

val solve_with : work:float array -> t -> float array -> unit
(** In-place solve with a caller-supplied intermediate buffer (length
    n), keeping a shared factorisation read-only. *)

val update :
  ?pad:int ->
  t ->
  (float * float array * float array) list ->
  Lu.Update.t option
(** Sherman–Morrison–Woodbury extension of a factorisation with rank-1
    terms — {!Lu.Update.make_with} over this backend's solve, so the
    incremental scorer's update algebra is backend-independent. *)
