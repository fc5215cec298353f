(** Dense matrices and LU decomposition.

    The conservative back-ends need exactly one linear-algebra
    primitive: solving [A x = b] for the modest matrix sizes of
    electrical linear networks. Partial pivoting keeps the
    high-gain op-amp stamps well conditioned. *)

type t
(** A dense square matrix. *)

val create : int -> t
(** [create n] is the [n x n] zero matrix. [n >= 0]. *)

val dim : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j v] accumulates [v] into [m.(i).(j)] — the stamping
    primitive. *)

val copy : t -> t
val fill_zero : t -> unit

val storage : t -> float array
(** The matrix's own row-major backing array: entry [(i, j)] is at
    [i * dim + j]. Writes through it are writes to the matrix; it lets
    a stamping loop accumulate without a function call per entry. *)

type lu
(** An LU factorisation with partial pivoting: the packed [L\U] factors
    and the row permutation, in arrays the factorisation owns. *)

exception Singular of int
(** Raised (with the offending pivot column) when the matrix is
    numerically singular — e.g. a floating subcircuit or a loop of
    ideal voltage sources. *)

val lu_create : int -> lu
(** [lu_create n] is a workspace for factoring [n x n] matrices with
    {!lu_factor_into}. It holds no valid factorisation until one is
    written into it. *)

val lu_factor_into : t -> lu -> unit
(** [lu_factor_into m f] factors [m] into the workspace [f], replacing
    whatever [f] held; [m] is not modified. Nothing is allocated, so a
    solver that re-factors every pass reuses one workspace. The caller
    owns [f]: solves against the previous factorisation are invalid
    once it is overwritten, and after [Singular] [f] holds a partial
    elimination.
    @raise Singular as {!lu_factor}
    @raise Invalid_argument if [f] was created for another dimension. *)

val lu_factor : t -> lu
(** Factor a copy of the matrix into a fresh workspace ({!lu_create}
    then {!lu_factor_into}); the argument is not modified. *)

type pivot_range = { mutable pivot_min : float; mutable pivot_max : float }
(** Running extremes of pivot magnitudes. All its fields are floats, so
    OCaml stores them unboxed and widening the range allocates
    nothing. *)

val empty_pivot_range : unit -> pivot_range
(** [{pivot_min = infinity; pivot_max = 0}]: the range of no pivots. *)

val widen_pivot_range : pivot_range -> lu -> unit
(** Widen the range by the pivot magnitudes (the U diagonal) of a
    factorisation. The max/min ratio is a cheap conditioning proxy used
    by the solver telemetry: a ratio approaching [1/epsilon] means the
    solve has little precision left. *)

val lu_solve : lu -> float array -> float array
(** [lu_solve lu b] solves [A x = b]; [b] is not modified. *)

val lu_solve_into : lu -> b:float array -> x:float array -> unit
(** Allocation-free variant used in simulation inner loops; [b] and [x]
    may not alias. *)

val solve : t -> float array -> float array
(** One-shot [factor + solve]. *)

val mat_vec : t -> float array -> float array
(** Matrix-vector product, for tests. *)
