(** Conservative transient simulation back-ends.

    Two engines over the same MNA system, mirroring the cost structure
    of the tools the paper measures:

    - {!spice_like} — the Verilog-AMS/ELDO stand-in and accuracy
      reference. It refines every reporting step into [substeps]
      internal steps and, at each, re-evaluates all devices
      (re-assembly) and re-factors the matrix for each of
      [iterations] solver passes, like a SPICE engine re-linearising
      at every Newton iteration. The sparse solve + device evaluation
      are "the two most serious bottlenecks" (§III-B [5]).
    - {!eln_like} — the SystemC-AMS/ELN stand-in: the network equations
      are set up and factored {e once} (linear network, fixed step);
      each step costs one RHS build plus one triangular solve.

    Each engine (and each {!spice_like} fidelity) has exactly one
    reporting-step function. Its stepper ({!Spice_stepper},
    {!Eln_stepper}) calls it once per [step]; the whole-run entry
    point ({!spice_like}, {!eln_like}) is a loop that calls the same
    function once per reporting step and adds the trace, the [observe]
    probes, the convergence journal and the run summary. The two
    differ only in where the inputs come from: the whole run samples
    each stimulus at every internal substep, while a stepper holds the
    [input_values] of one [step] for the whole tick. With a constant
    stimulus the two are therefore bit-identical, and they count the
    same solver work in the [amsvp_mna_*] counters — a stepper flushes
    them after every [step], a whole run once at its end.

    The bookkeeping around that cost model is resolved before the first
    step: {!System.build} turns every device's nodes, branch current and
    input into indices, a stepper maps its inputs to the system's input
    slots and its output to an index at creation, and the paper
    fidelity stamps, factors and solves into a matrix, an LU workspace
    and solution buffers its stepper owns. A reporting step therefore
    looks nothing up by name and allocates only a few boxed floats. The
    [`Paper] cost model itself is unchanged: the same passes, each
    re-stamping and re-factoring the whole system, and the same
    floating-point operations in the same order. *)

type stats = {
  steps : int;  (** reporting steps taken *)
  device_evals : int;  (** full device-evaluation (assembly) passes *)
  factorizations : int;
  solves : int;
}

type newton = {
  total_iters : int;  (** Newton passes taken (fixed budget) *)
  wasted_iters : int;
      (** passes taken {e after} the update norm already met tolerance
          — the budget an adaptive early-exit scheme would save *)
  max_residual : float;  (** worst final update norm over all substeps *)
  pivot_min : float;  (** smallest LU pivot magnitude seen *)
  pivot_max : float;  (** largest LU pivot magnitude seen *)
  dt_stress : float;
      (** largest relative state change within one substep; values near
          or above 1 mean the internal step is not small against the
          local time constant *)
  stressed_substeps : int;  (** substeps whose relative change > 0.5 *)
}
(** Solver-convergence telemetry for one {!spice_like} run. At
    [`Paper] fidelity it is only computed while the
    {!Amsvp_obs.Journal} is enabled — the residual norms have no other
    consumer, so with the journal off the step runs the solver's float
    operations and nothing else. At [`Fast] it is always computed: the
    controller needs the same quantities. *)

type result = {
  trace : Amsvp_util.Trace.t;
  stats : stats;
  matrix_dim : int;
  newton : newton option;
      (** [Some] for every [`Fast] run, and for a [`Paper] run iff the
          journal was enabled during it (always [None] for
          {!eln_like}, which has no Newton loop). *)
}

val spice_like :
  ?substeps:int ->
  ?iterations:int ->
  ?fidelity:[ `Paper | `Fast ] ->
  ?observe:(float -> (Expr.var -> float) -> unit) ->
  Amsvp_netlist.Circuit.t ->
  inputs:(string * Amsvp_util.Stimulus.t) list ->
  output:Expr.var ->
  dt:float ->
  t_stop:float ->
  result
(** [spice_like ckt ~inputs ~output ~dt ~t_stop] simulates from 0 to
    [t_stop], recording [output] every [dt]. Default [substeps = 8],
    [iterations = 3]. [observe] is called at every reporting instant
    (including t = 0) with a reader over the solved MNA state — the
    waveform-probe attachment point; absent, it costs one branch per
    reporting step.

    [fidelity] selects the cost model (default [`Paper]):
    - [`Paper] reproduces the SPICE cost structure bit-identically to
      previous releases: every Newton pass of every substep re-stamps
      the dense matrix and re-factors it, with a fixed
      [substeps * iterations] budget.
    - [`Fast] keeps the same circuit equations but solves them the way
      a production simulator would: sparse LU with the symbolic
      factorisation reused across steps, numeric factors reused until
      the timestep or a piecewise-linear region changes, Newton
      early-exit on the update norm, one factorisation total for a
      linear network, and adaptive substepping (1..[substeps],
      refined by a local-truncation-error estimate). For reporting
      steps that resolve the circuit's time constants (the bench and
      sweep operating points) traces agree with [`Paper] within the
      health-watchdog NRMSE budget, but they are not bit-identical —
      and at [dt] comparable to the fastest time constant the adaptive
      controller trades accuracy for the remaining speed; [stats]
      counts the work actually done. With
      [`Fast] the [newton] telemetry in the result is always populated
      ([wasted_iters] is 0 by construction).
    @raise Invalid_argument on a missing input signal or bad step. *)

val eln_like :
  ?observe:(float -> (Expr.var -> float) -> unit) ->
  Amsvp_netlist.Circuit.t ->
  inputs:(string * Amsvp_util.Stimulus.t) list ->
  output:Expr.var ->
  dt:float ->
  t_stop:float ->
  result
(** Fixed-step linear-network engine, sampling each stimulus at the end
    of every step. [observe] is the probe attachment point, as in
    {!spice_like}. *)

(** Step-wise interface to the ELN engine, for embedding the linear
    network inside a discrete-event kernel (the SystemC-AMS use case):
    the matrix is factored at creation, each [step] runs the ELN
    reporting step — one RHS build and one triangular solve — on the
    given input samples. The one assembly and factorisation is counted
    in [amsvp_mna_device_evals_total] / [amsvp_mna_factorizations_total]
    with the first [step], as {!eln_like} counts it once per run. *)
module Eln_stepper : sig
  type t

  val create :
    ?solver:[ `Dense | `Sparse ] ->
    Amsvp_netlist.Circuit.t ->
    inputs:string list ->
    output:Expr.var ->
    dt:float ->
    t
  (** [inputs] declares the input signal order used by [step]; [solver]
      selects the linear-algebra back-end (default [`Dense]; [`Sparse]
      factors with {!Sparse} — the right choice for large networks, see
      the dense-vs-sparse ablation).
      @raise Invalid_argument if a source reads an input missing from
      [inputs], or [output] is not a quantity {!System.output} can
      read. *)

  val step : t -> input_values:float array -> float
  (** Advance one timestep with the given input samples (ordered as the
      [inputs] list) and return the output quantity.
      @raise Invalid_argument on an arity mismatch, naming the expected
      and actual input counts. *)

  val output : t -> float
  (** Output value after the last [step] (0 before the first). *)

  val read : t -> Expr.var -> float
  (** Evaluate any circuit quantity (node potential or branch flow)
      from the current state — used by waveform probes. *)

  val reset : t -> unit
end

(** Step-wise interface to the SPICE-like engine, for lock-step
    co-simulation with a digital simulator (the Questa-ADMS use case of
    Table III): every [step] runs the reporting step of the chosen
    fidelity — the same function {!spice_like} drives — holding the
    given input samples across all of its internal substeps. Steppers
    record no convergence journal (the host owns observability). *)
module Spice_stepper : sig
  type t

  val create :
    ?substeps:int ->
    ?iterations:int ->
    ?fidelity:[ `Paper | `Fast ] ->
    Amsvp_netlist.Circuit.t ->
    inputs:string list ->
    output:Expr.var ->
    dt:float ->
    t
  (** [fidelity] as in {!spice_like} (default [`Paper]). With [`Fast]
      the factor cache and the adaptive substep count persist across
      [step] calls — symbolic-factorisation reuse is what makes
      lock-step co-simulation cheap.
      @raise Invalid_argument as {!Eln_stepper.create}. *)

  val step : t -> input_values:float array -> float
  (** Advance one reporting step with [input_values] (ordered as the
      [inputs] list) held constant over the whole tick, and return the
      output quantity.
      @raise Invalid_argument on an arity mismatch, naming the expected
      and actual input counts. *)

  val output : t -> float

  val read : t -> Expr.var -> float
  (** Evaluate any circuit quantity from the current state. *)

  val reset : t -> unit
end

val run_testcase_spice :
  ?substeps:int ->
  ?iterations:int ->
  ?fidelity:[ `Paper | `Fast ] ->
  Amsvp_netlist.Circuits.testcase ->
  dt:float ->
  t_stop:float ->
  result
(** Convenience wrapper running a paper test case. *)

val run_testcase_eln :
  Amsvp_netlist.Circuits.testcase -> dt:float -> t_stop:float -> result
