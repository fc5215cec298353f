(** Modified nodal analysis (MNA) assembly of a circuit.

    Unknown vector layout: node voltages for every non-ground node
    first, then one branch current per device that needs it (voltage
    sources, inductors, controlled voltage sources). Companion models
    use backward Euler with step [h]: a capacitor becomes a conductance
    [C/h] with a history current, an inductor a resistive branch with a
    history voltage. *)

type t

val build : Amsvp_netlist.Circuit.t -> t
(** Number the unknowns and resolve every device's nodes, branch
    current, controlling nodes and input signal to integer indices, once:
    the stamping functions below then run without any name lookup.
    @raise Invalid_argument if the circuit fails validation. *)

val size : t -> int
(** Dimension of the MNA system. *)

val node_voltage_count : t -> int

val stamp_matrix_into :
  t -> h:float -> state:float array -> Matrix.t -> unit
(** [stamp_matrix_into s ~h ~state m] zeroes [m] and stamps the MNA
    matrix for timestep [h] into it; constant for a linear network.
    Piecewise-linear devices stamp the conductance of the region
    selected by [state] (the current solution estimate) — re-stamping
    per solver pass is how the SPICE-like engine linearises them. [m]
    belongs to the caller, who may reuse it for every pass; nothing
    else is allocated. [state] is only read, so it may be any vector
    the caller keeps, but not [m]'s storage.
    @raise Invalid_argument if [m] is not {!size} square. *)

val stamp_matrix : ?state:float array -> t -> h:float -> Matrix.t
(** A fresh matrix holding what {!stamp_matrix_into} stamps, with
    [state] defaulting to the zero vector. *)

val has_pwl : t -> bool

val pwl_count : t -> int
(** Number of piecewise-linear devices in stamp order. *)

val pwl_regions_into : t -> float array -> regions:bool array -> unit
(** Write each piecewise-linear device's region selection under the
    given solution estimate ([true] when on) into [regions], in stamp
    order. The matrix stamp is fully determined by [(h, regions)], which
    is what lets the fast engine reuse an LU across Newton passes. *)

val stamp_triplets :
  ?state:float array -> t -> h:float -> (int * int * float) list
(** The same stamps as {!stamp_matrix}, as sparse triplets for
    {!Sparse.lu_factor}. *)

val inputs : t -> string array
(** The external input signals the circuit's sources read, each once, in
    order of first use: index [i] is input slot [i] of
    {!stamp_rhs_values}. *)

val stamp_rhs_values :
  t ->
  h:float ->
  state:float array ->
  inputs:float array ->
  rhs:float array ->
  unit
(** Fill [rhs] for one step: [state] is the previous solution vector
    (history terms), [inputs.(i)] the value of input signal
    [(inputs s).(i)] at the new time point. Allocates nothing; [rhs]
    may not alias [state]. *)

val stamp_rhs :
  t ->
  h:float ->
  state:float array ->
  input:(string -> float) ->
  rhs:float array ->
  unit
(** {!stamp_rhs_values} with the input values read through [input],
    which maps an external signal name to its value at the new time
    point (called once per name). *)

type output
(** An output quantity resolved to indices of the solution vector. *)

val output : t -> Expr.var -> output
(** Resolve an output quantity once: a [Potential(a,b)] is [e_a - e_b];
    a [Flow(dev)] is supported for devices carrying a current unknown
    and for resistors.
    @raise Invalid_argument for unsupported or unknown quantities. *)

val read_output : output -> float array -> float
(** Read a resolved output quantity from a solution vector. *)

val output_value : t -> Expr.var -> float array -> float
(** [read_output (output s v) state].
    @raise Invalid_argument as {!output}. *)
