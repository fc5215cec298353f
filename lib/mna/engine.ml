module Trace = Amsvp_util.Trace
module Circuits = Amsvp_netlist.Circuits
module Obs = Amsvp_obs.Obs
module Journal = Amsvp_obs.Journal

(* Registry-backed solver counters: the per-run [stats] record is still
   returned (tests and callers depend on the per-run values); the global
   counters accumulate across runs and feed the metrics sinks. *)
let c_steps = Obs.Counter.make ~help:"MNA reporting steps" "amsvp_mna_steps_total"

let c_device_evals =
  Obs.Counter.make ~help:"full device-evaluation (re-stamp) passes"
    "amsvp_mna_device_evals_total"

let c_factorizations =
  Obs.Counter.make ~help:"LU factorisations" "amsvp_mna_factorizations_total"

let c_solves =
  Obs.Counter.make ~help:"triangular solves" "amsvp_mna_solves_total"

let c_rhs_builds =
  Obs.Counter.make ~help:"RHS vector builds" "amsvp_mna_rhs_builds_total"

let h_solver_passes =
  Obs.Histogram.make
    ~help:"solver passes (substeps x Newton iterations) per reporting step"
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 24.; 32.; 48.; 64.; 128. |]
    "amsvp_mna_solver_passes_per_step"

let g_matrix_dim =
  Obs.Gauge.make ~help:"dimension of the last MNA system built"
    "amsvp_mna_matrix_dim"

(* Convergence telemetry — only advanced while the journal is enabled,
   because the residual norms that feed them are not computed
   otherwise (the fixed-budget inner loop has no other use for them). *)
let c_newton_wasted =
  Obs.Counter.make
    ~help:"Newton passes taken after the update norm already met tolerance"
    "amsvp_mna_wasted_newton_iters_total"

let h_newton_residual =
  Obs.Histogram.make
    ~help:"final Newton update norm (inf-norm) per solver substep"
    ~buckets:[| 1e-15; 1e-12; 1e-9; 1e-6; 1e-3; 1.0; 1e3 |]
    "amsvp_mna_newton_residual"

type stats = {
  steps : int;
  device_evals : int;
  factorizations : int;
  solves : int;
}

type newton = {
  total_iters : int;
  wasted_iters : int;
  max_residual : float;
  pivot_min : float;
  pivot_max : float;
  dt_stress : float;
  stressed_substeps : int;
}

type result = {
  trace : Trace.t;
  stats : stats;
  matrix_dim : int;
  newton : newton option;
}

(* Newton convergence test on the update norm: converged once
   ||x_k - x_{k-1}||_inf <= rtol * ||x_k||_inf + atol. *)
let newton_rtol = 1e-6
let newton_atol = 1e-12

(* A substep is dt-stressed when the state moves by more than half its
   own magnitude within that single substep — for first-order dynamics
   that means the internal step h is no longer small against the local
   time constant. *)
let stress_threshold = 0.5

(* Substep controller thresholds for the fast path: refine (double the
   substep count and redo the reporting step) when the second-difference
   LTE proxy crosses [lte_refine] or a substep is dt-stressed; relax
   (halve) when the whole step stayed comfortably below the band. *)
let lte_refine = 0.05
let lte_relax = lte_refine /. 8.0

(* What the per-pass scans measured. All its fields are floats, so OCaml
   stores them unboxed and the scans write them without allocating. *)
type scan = {
  mutable delta : float;  (* update norm ||xn - prev||_inf *)
  mutable scale : float;  (* iterate scale ||xn||_inf *)
  mutable stress : float;  (* largest relative state motion *)
  mutable lte : float;  (* local-truncation-error proxy *)
}

let new_scan () = { delta = 0.0; scale = 0.0; stress = 0.0; lte = 0.0 }

(* The scans below run on every Newton pass or substep while telemetry
   is on, so they check the vector lengths once and then read without
   bounds checks. *)
let same_length who a b =
  if Array.length a <> Array.length b then
    invalid_arg ("Engine." ^ who ^ ": dimension mismatch")

(* Update norm and iterate scale of the Newton iterate [xn]. *)
let update_norm sc prev xn =
  same_length "update_norm" prev xn;
  let delta = ref 0.0 and scale = ref 0.0 in
  for i = 0 to Array.length xn - 1 do
    let v = Array.unsafe_get xn i in
    let d = abs_float (v -. Array.unsafe_get prev i) in
    if d > !delta then delta := d;
    let m = abs_float v in
    if m > !scale then scale := m
  done;
  sc.delta <- !delta;
  sc.scale <- !scale

let converged sc = sc.delta <= (newton_rtol *. sc.scale) +. newton_atol

(* Stress (largest relative state motion over the substep x0 -> x1)
   and, given the state one substep earlier [xm], the LTE proxy (scaled
   second difference, ~ h^2/2 * |x''|; 0 without [xm]). The larger
   magnitude is picked with a plain comparison, not [Float.max]: with a
   NaN on either side both skip the entry, and the comparison costs no
   C call per entry. *)
let motion ?xm sc x0 x1 =
  same_length "motion" x0 x1;
  (match xm with Some xm -> same_length "motion" x0 xm | None -> ());
  let stress = ref 0.0 and lte = ref 0.0 in
  for i = 0 to Array.length x0 - 1 do
    let u = Array.unsafe_get x0 i and v = Array.unsafe_get x1 i in
    let a = abs_float u and b = abs_float v in
    let m = if a >= b then a else b in
    if m > newton_atol then begin
      let r = abs_float (v -. u) /. m in
      if r > !stress then stress := r;
      match xm with
      | None -> ()
      | Some xm ->
          let l =
            abs_float (v -. (2.0 *. u) +. Array.unsafe_get xm i) /. (2.0 *. m)
          in
          if l > !lte then lte := l
    end
  done;
  sc.stress <- !stress;
  sc.lte <- !lte

(* Solver work done since the last flush into the registry counters:
   a stepper flushes after every tick, a whole run once. *)
type work = {
  mutable w_device_evals : int;
  mutable w_factorizations : int;
  mutable w_solves : int;
  mutable w_rhs_builds : int;
}

let new_work () =
  { w_device_evals = 0; w_factorizations = 0; w_solves = 0; w_rhs_builds = 0 }

let flush_work w ~steps =
  let add c n = if n > 0 then Obs.Counter.add c n in
  add c_steps steps;
  add c_device_evals w.w_device_evals;
  add c_factorizations w.w_factorizations;
  add c_solves w.w_solves;
  add c_rhs_builds w.w_rhs_builds;
  w.w_device_evals <- 0;
  w.w_factorizations <- 0;
  w.w_solves <- 0;
  w.w_rhs_builds <- 0

(* The float fields of [telemetry], in a record of their own: an
   all-float record is stored unboxed, so updating it allocates
   nothing. *)
type extremes = {
  mutable max_residual : float;
  mutable dt_stress : float;
  mutable step_residual : float;
  mutable step_stress : float;
}

(* Convergence telemetry of a whole run, passed to the step function by
   the whole-run loop only (steppers run inside a DE kernel; the host
   owns observability). [journal] gates the per-event records; the
   [step_*] fields describe the last reporting step. *)
type telemetry = {
  journal : bool;
  mutable total_iters : int;
  mutable wasted_iters : int;
  mutable stressed_substeps : int;
  mutable step_converged_at : int;
  mutable step_wasted : int;
  mutable step_nsub : int;
  pivots : Matrix.pivot_range;
  ext : extremes;
}

let new_telemetry ~journal =
  { journal; total_iters = 0; wasted_iters = 0; stressed_substeps = 0;
    step_converged_at = 0; step_wasted = 0; step_nsub = 0;
    pivots = Matrix.empty_pivot_range ();
    ext = { max_residual = 0.0; dt_stress = 0.0; step_residual = 0.0;
            step_stress = 0.0 } }

(* End of a Newton substep: its final update norm and converging pass.
   Inlined, like [note_stress], so that the float is not boxed. *)
let[@inline] note_substep tl ~last_delta ~converged_at =
  if tl.journal then Obs.Histogram.observe h_newton_residual last_delta;
  if last_delta > tl.ext.max_residual then tl.ext.max_residual <- last_delta;
  tl.ext.step_residual <- last_delta;
  tl.step_converged_at <- converged_at

(* An accepted substep's relative state motion. *)
let[@inline] note_stress tl stress =
  if stress > tl.ext.dt_stress then tl.ext.dt_stress <- stress;
  if stress > stress_threshold then
    tl.stressed_substeps <- tl.stressed_substeps + 1

(* Journal a singular pivot (whole-run journal only) and re-raise. *)
let singular tel ~step ~time ~n k =
  (match tel with
  | Some tl when tl.journal ->
      Journal.emit ~severity:Journal.Error ~step ~time ~cat:"mna"
        "singular_pivot"
        [ ("column", Journal.I k); ("dim", Journal.I n) ]
  | _ -> ());
  raise (Matrix.Singular k)

(* Run summary: the [conditioning] and [dt_stress] warnings and the
   [newton.run] record, plus the telemetry as returned to the caller. *)
let summarize tl ~nsteps ~dt ~substeps ~n =
  Obs.Counter.add c_newton_wasted tl.wasted_iters;
  let { Matrix.pivot_min; pivot_max } = tl.pivots
  and { max_residual; dt_stress; _ } = tl.ext in
  if tl.journal then begin
    let pivot_ratio =
      if pivot_min > 0.0 && pivot_min < infinity then
        pivot_max /. pivot_min
      else infinity
    in
    let f v = Journal.F v and i v = Journal.I v in
    if pivot_ratio > 1e12 then
      Journal.emit ~severity:Journal.Warn ~cat:"mna" "conditioning"
        [ ("pivot_min", f pivot_min); ("pivot_max", f pivot_max);
          ("pivot_ratio", f pivot_ratio) ];
    if tl.stressed_substeps > 0 then
      Journal.emit ~severity:Journal.Warn ~cat:"mna" "dt_stress"
        [ ("max_rel_change", f dt_stress);
          ("stressed_substeps", i tl.stressed_substeps); ("dt", f dt);
          ("substeps", i substeps) ];
    Journal.emit ~cat:"mna" "newton.run"
      [ ("steps", i nsteps); ("total_iters", i tl.total_iters);
        ("wasted_iters", i tl.wasted_iters);
        ("max_residual", f max_residual); ("pivot_min", f pivot_min);
        ("pivot_max", f pivot_max); ("dt_stress", f dt_stress);
        ("dim", i n) ]
  end;
  { total_iters = tl.total_iters; wasted_iters = tl.wasted_iters;
    max_residual; pivot_min; pivot_max; dt_stress;
    stressed_substeps = tl.stressed_substeps }

let check_args ~dt ~t_stop =
  if dt <= 0.0 then invalid_arg "Engine: dt must be positive";
  if t_stop < dt then invalid_arg "Engine: t_stop shorter than one step"

(* Shared factor cache of the fast fidelity path: the sparse symbolic
   factorisation is computed once per topology, and the numeric factors
   are reused across Newton passes and substeps until the timestep or
   the piecewise-linear region selection changes. A numerically stale
   pivot (Sparse.Singular out of [refactor]) triggers one re-analysis
   with fresh pivoting before the failure is surfaced with the same
   [Matrix.Singular] diagnostics as the paper path. *)
module Fast_cache = struct
  type t = {
    sys : System.t;
    npwl : int;
    mutable symbolic : Sparse.symbolic option;
    mutable lu : Sparse.lu option;
    mutable h : float;
    regions : bool array;  (* region selection the cached LU was stamped with *)
    scratch : bool array;
  }

  let create sys =
    let npwl = System.pwl_count sys in
    { sys; npwl; symbolic = None; lu = None; h = nan;
      regions = Array.make npwl false; scratch = Array.make npwl false }

  let refactor_with c triplets =
    let analyze () =
      let sym = Sparse.analyze ~n:(System.size c.sys) triplets in
      c.symbolic <- Some sym;
      Sparse.refactor sym triplets
    in
    match c.symbolic with
    | None -> analyze ()
    | Some sym -> (
        (* Reused pivots that went numerically stale: re-analyze with
           fresh pivoting and retry once. *)
        try Sparse.refactor sym triplets with Sparse.Singular _ -> analyze ())

  (* Factors for the system stamped at [state] with timestep [h],
     reusing the cached LU when neither changed anything the stamp
     depends on; a re-stamp and a factorisation are counted in [w].
     @raise Matrix.Singular on a singular system. *)
  let factor c w ~state ~h =
    System.pwl_regions_into c.sys state ~regions:c.scratch;
    match c.lu with
    | Some lu when c.h = h && Array.for_all2 Bool.equal c.scratch c.regions ->
        lu
    | _ ->
        let triplets = System.stamp_triplets ~state c.sys ~h in
        w.w_device_evals <- w.w_device_evals + 1;
        let lu =
          try refactor_with c triplets
          with Sparse.Singular k -> raise (Matrix.Singular k)
        in
        w.w_factorizations <- w.w_factorizations + 1;
        c.h <- h;
        Array.blit c.scratch 0 c.regions 0 c.npwl;
        c.lu <- Some lu;
        lu

  (* Does [state] select the same regions as the cached LU was stamped
     with? Vacuously true for a linear network. *)
  let regions_stable c state =
    c.npwl = 0
    || (System.pwl_regions_into c.sys state ~regions:c.scratch;
        Array.for_all2 Bool.equal c.scratch c.regions)
end

(* Persistent fast-fidelity state: the factor cache survives across
   ticks (the whole point of symbolic reuse in lock-step co-simulation)
   and so does the adaptive substep count. *)
type fast = {
  cache : Fast_cache.t;
  mutable nsub : int;
  mutable xm1 : float array;  (* state one substep back, for the LTE *)
}

type factors = Dense of Matrix.lu | Sparse_lu of Sparse.lu

(* The paper fidelity's per-pass buffers, owned by the stepper: every
   pass re-stamps [m] and re-factors it into [lu] in place, and the
   Newton iterates rotate through the state vector and the two spares,
   so that the previous iterate, the new one and the state never
   alias. *)
type paper = {
  m : Matrix.t;
  lu : Matrix.lu;
  mutable spare_a : float array;
  mutable spare_b : float array;
}

(* Which reporting step a stepper runs. *)
type kind = Eln of factors | Paper of paper | Fast of fast

(* One engine's state between reporting steps: what a stepper holds and
   what a whole run steps. Inputs and the output are resolved to
   indices at creation, so a step looks nothing up by name. *)
type stepper = {
  kind : kind;
  sys : System.t;
  dt : float;
  substeps : int;
  iterations : int;
  h : float;  (* the paper fidelity's fixed substep *)
  arity : int;  (* length of [step]'s [input_values] *)
  slots : int array;  (* System input slot -> index in [input_values] *)
  u : float array;  (* input values by System input slot *)
  probe : System.output;
  mutable x : float array;
  x_next : float array;  (* the ELN solve's target *)
  rhs : float array;
  scan : scan;
  mutable out : float;
  mutable k : int;  (* reporting steps taken *)
  work : work;
}

let make_stepper who kind sys ~substeps ~iterations ~inputs ~output ~dt =
  let n = System.size sys in
  let names = Array.of_list inputs in
  let slot name =
    match Array.find_index (String.equal name) names with
    | Some i -> i
    | None -> invalid_arg (who ^ ": unknown input " ^ name)
  in
  let slots = Array.map slot (System.inputs sys) in
  { kind; sys; dt; substeps; iterations; h = dt /. float_of_int substeps;
    arity = Array.length names; slots; u = Array.make (Array.length slots) 0.0;
    probe = System.output sys output; x = Array.make n 0.0;
    x_next = Array.make n 0.0; rhs = Array.make n 0.0; scan = new_scan ();
    out = 0.0; k = 0; work = new_work () }

(* Set the input values for time [t]. The whole run passes its stimuli
   (by input slot) and samples them at every substep; a stepper passes
   [None], its [step] having stored the tick's held values already. *)
let sample st stimuli t =
  match stimuli with
  | None -> ()
  | Some stimuli ->
      for i = 0 to Array.length stimuli - 1 do
        st.u.(i) <- stimuli.(i) t
      done

(* The ELN reporting step: one RHS build and one triangular solve, with
   the inputs sampled at the step's end. *)
let step_eln st lu ~stimuli =
  sample st stimuli (float_of_int st.k *. st.dt);
  System.stamp_rhs_values st.sys ~h:st.dt ~state:st.x ~inputs:st.u ~rhs:st.rhs;
  (match lu with
  | Dense lu -> Matrix.lu_solve_into lu ~b:st.rhs ~x:st.x_next
  | Sparse_lu lu -> Sparse.lu_solve_into lu ~b:st.rhs ~x:st.x_next);
  let w = st.work in
  w.w_solves <- w.w_solves + 1;
  w.w_rhs_builds <- w.w_rhs_builds + 1;
  Array.blit st.x_next 0 st.x 0 (Array.length st.x)

(* Substep [sub] of reporting step [step] lands on this instant; the
   last one exactly on the reporting instant, so that stimulus edges
   are sampled at the same points as the fixed-step engines (no
   knife-edge drift on square waves). *)
let substep_time st ~step ~sub ~ns ~h =
  if sub = ns then float_of_int step *. st.dt
  else (float_of_int (step - 1) *. st.dt) +. (float_of_int sub *. h)

(* One paper-fidelity reporting step: every Newton pass of every
   substep re-stamps the dense matrix and re-factors it, in the
   buffers of [p]. With [tel] absent the loop does the solver's work
   and nothing else; it allocates nothing per pass either way. *)
let step_paper st p ~stimuli tel =
  let step = st.k and w = st.work and n = Array.length st.x in
  let sc = st.scan in
  (match tel with
  | Some tl -> tl.step_wasted <- 0; tl.ext.step_stress <- 0.0
  | None -> ());
  for sub = 1 to st.substeps do
    let t = substep_time st ~step ~sub ~ns:st.substeps ~h:st.h in
    sample st stimuli t;
    let x_next = ref st.x in
    let converged_at = ref 0 and last_delta = ref infinity in
    for iter = 1 to st.iterations do
      (* Device evaluation: the full system is re-stamped (with
         piecewise-linear regions selected by the latest estimate),
         then re-factored, at every solver pass — the SPICE cost
         model. *)
      System.stamp_matrix_into st.sys ~h:st.h ~state:!x_next p.m;
      w.w_device_evals <- w.w_device_evals + 1;
      System.stamp_rhs_values st.sys ~h:st.h ~state:st.x ~inputs:st.u
        ~rhs:st.rhs;
      w.w_rhs_builds <- w.w_rhs_builds + 1;
      (try Matrix.lu_factor_into p.m p.lu
       with Matrix.Singular k -> singular tel ~step ~time:t ~n k);
      w.w_factorizations <- w.w_factorizations + 1;
      let prev = !x_next in
      let next = if prev == p.spare_a then p.spare_b else p.spare_a in
      Matrix.lu_solve_into p.lu ~b:st.rhs ~x:next;
      x_next := next;
      w.w_solves <- w.w_solves + 1;
      match tel with
      | None -> ()
      | Some tl ->
          tl.total_iters <- tl.total_iters + 1;
          (* Conditioning proxy sampled on the final pass only: the
             re-stamped matrix drifts little between passes, and the
             diagonal scan is a third of the telemetry's cost. *)
          if iter = st.iterations then Matrix.widen_pivot_range tl.pivots p.lu;
          update_norm sc prev next;
          last_delta := sc.delta;
          if !converged_at > 0 then begin
            tl.wasted_iters <- tl.wasted_iters + 1;
            tl.step_wasted <- tl.step_wasted + 1
          end
          else if converged sc then converged_at := iter
    done;
    (match tel with
    | None -> ()
    | Some tl ->
        note_substep tl ~last_delta:!last_delta ~converged_at:!converged_at;
        motion sc st.x !x_next;
        if sc.stress > tl.ext.step_stress then tl.ext.step_stress <- sc.stress;
        note_stress tl sc.stress);
    (* The last iterate becomes the state; the old state a spare. *)
    let x_old = st.x in
    st.x <- !x_next;
    if !x_next == p.spare_a then p.spare_a <- x_old else p.spare_b <- x_old
  done;
  Obs.Histogram.observe h_solver_passes
    (float_of_int (st.substeps * st.iterations))

(* One fast-fidelity reporting step: early-exit Newton over reused
   sparse factors, adaptive substep count with refine-and-retry. The
   update norm, stress and LTE drive the controller, so [tel] only
   changes what is recorded, never the numerics. *)
let step_fast st fs ~stimuli tel =
  let step = st.k and w = st.work and n = Array.length st.x in
  let sc = st.scan in
  let x_save = st.x and xm1_save = fs.xm1 in
  let solves0 = w.w_solves and retry = ref true in
  while !retry do
    retry := false;
    let ns = fs.nsub in
    let h = st.dt /. float_of_int ns in
    let step_stress = ref 0.0 and step_lte = ref 0.0 in
    let aborted = ref false and sub = ref 1 in
    while (not !aborted) && !sub <= ns do
      let t = substep_time st ~step ~sub:!sub ~ns ~h in
      (* The RHS depends only on the substep-start state and the
         input, so one build serves every Newton pass. *)
      sample st stimuli t;
      System.stamp_rhs_values st.sys ~h ~state:st.x ~inputs:st.u ~rhs:st.rhs;
      w.w_rhs_builds <- w.w_rhs_builds + 1;
      let x_next = ref st.x in
      let converged_at = ref 0 and last_delta = ref infinity in
      (* A linear network needs exactly one pass: the matrix does not
         depend on the state, so the first solve is the solution. *)
      let max_iters = if fs.cache.npwl > 0 then st.iterations else 1 in
      let iter = ref 0 and stop = ref false in
      while (not !stop) && !iter < max_iters do
        incr iter;
        let lu =
          try Fast_cache.factor fs.cache w ~state:!x_next ~h
          with Matrix.Singular k -> singular tel ~step ~time:t ~n k
        in
        let prev = !x_next in
        x_next := Sparse.lu_solve lu st.rhs;
        w.w_solves <- w.w_solves + 1;
        (match tel with
        | None -> ()
        | Some tl ->
            tl.total_iters <- tl.total_iters + 1;
            Sparse.widen_pivot_range tl.pivots lu);
        update_norm sc prev !x_next;
        last_delta := sc.delta;
        (* Early exit: update norm inside tolerance AND the region
           selection the LU was stamped with still matches the new
           iterate — otherwise another pass re-stamps. *)
        if converged sc && Fast_cache.regions_stable fs.cache !x_next
        then begin
          converged_at := !iter;
          stop := true
        end
      done;
      (match tel with
      | None -> ()
      | Some tl ->
          note_substep tl ~last_delta:!last_delta ~converged_at:!converged_at);
      motion ~xm:fs.xm1 sc st.x !x_next;
      let stress = sc.stress and lte = sc.lte in
      if stress > !step_stress then step_stress := stress;
      if lte > !step_lte then step_lte := lte;
      if (lte > lte_refine || stress > stress_threshold) && ns < st.substeps
      then
        (* Over the error band and refinement headroom remains: abort
           and redo the whole reporting step with more substeps. *)
        aborted := true
      else begin
        (match tel with None -> () | Some tl -> note_stress tl stress);
        fs.xm1 <- st.x;
        st.x <- !x_next;
        incr sub
      end
    done;
    if !aborted then begin
      st.x <- x_save;
      fs.xm1 <- xm1_save;
      fs.nsub <- min st.substeps (ns * 2);
      retry := true
    end
    else begin
      (match tel with
      | Some tl -> tl.ext.step_stress <- !step_stress; tl.step_nsub <- ns
      | None -> ());
      if !step_lte < lte_relax && !step_stress < stress_threshold /. 2.0 && ns > 1
      then fs.nsub <- ns / 2
    end
  done;
  Obs.Histogram.observe h_solver_passes (float_of_int (w.w_solves - solves0))

(* The reporting step of any engine, shared by the steppers' [step] and
   the whole-run loop. *)
let advance st ~stimuli tel =
  st.k <- st.k + 1;
  (match st.kind with
  | Eln lu -> step_eln st lu ~stimuli
  | Paper p -> step_paper st p ~stimuli tel
  | Fast fs -> step_fast st fs ~stimuli tel);
  st.out <- System.read_output st.probe st.x;
  st.out

(* A stepper's tick: [input_values] (ordered as the stepper's inputs)
   are held for the whole tick, whatever time the step samples at. *)
let step who st ~input_values =
  if Array.length input_values <> st.arity then
    invalid_arg
      (Printf.sprintf "%s.step: expected %d input(s), got %d" who st.arity
         (Array.length input_values));
  for i = 0 to Array.length st.slots - 1 do
    st.u.(i) <- input_values.(st.slots.(i))
  done;
  let v = advance st ~stimuli:None None in
  flush_work st.work ~steps:1;
  v

let read st v = System.output_value st.sys v st.x

let reset st =
  Array.fill st.x 0 (Array.length st.x) 0.0;
  (match st.kind with
  | Fast fs ->
      fs.nsub <- st.substeps;
      fs.xm1 <- Array.make (Array.length st.x) 0.0
  | Eln _ | Paper _ -> ());
  st.out <- 0.0;
  st.k <- 0

(* [who] names the caller in the error messages: the stepper module, or
   the whole-run engine that creates its stepper through the same
   function. *)
let create_eln who ?(solver = `Dense) circuit ~inputs ~output ~dt =
  if dt <= 0.0 then invalid_arg (who ^ ": dt must be positive");
  if Amsvp_netlist.Circuit.has_pwl circuit then
    invalid_arg (who ^ ": the linear-network engine cannot simulate \
                       piecewise-linear devices");
  let sys = System.build circuit in
  let n = System.size sys in
  (* Linear fixed-step network: assemble and factor exactly once. *)
  let lu =
    match solver with
    | `Dense -> Dense (Matrix.lu_factor (System.stamp_matrix sys ~h:dt))
    | `Sparse -> Sparse_lu (Sparse.lu_factor ~n (System.stamp_triplets sys ~h:dt))
  in
  let st =
    make_stepper who (Eln lu) sys ~substeps:1 ~iterations:1 ~inputs ~output ~dt
  in
  st.work.w_device_evals <- 1;
  st.work.w_factorizations <- 1;
  st

let create_spice who ?(substeps = 8) ?(iterations = 3) ?(fidelity = `Paper)
    circuit ~inputs ~output ~dt =
  if dt <= 0.0 then invalid_arg (who ^ ": dt must be positive");
  if substeps < 1 || iterations < 1 then
    invalid_arg (who ^ ": substeps and iterations must be >= 1");
  let sys = System.build circuit in
  let n = System.size sys in
  let kind =
    match fidelity with
    | `Paper ->
        Paper
          { m = Matrix.create n; lu = Matrix.lu_create n;
            spare_a = Array.make n 0.0; spare_b = Array.make n 0.0 }
    | `Fast ->
        Fast
          { cache = Fast_cache.create sys; nsub = substeps;
            xm1 = Array.make n 0.0 }
  in
  make_stepper who kind sys ~substeps ~iterations ~inputs ~output ~dt

module Eln_stepper = struct
  type t = stepper

  let create = create_eln "Eln_stepper"
  let step = step "Eln_stepper"
  let output st = st.out
  let read = read
  let reset = reset
end

module Spice_stepper = struct
  type t = stepper

  let create = create_spice "Spice_stepper"
  let step = step "Spice_stepper"
  let output st = st.out
  let read = read
  let reset = reset
end

(* The whole-run loop: runs [st]'s reporting step once per [dt] up to
   [t_stop], sampling the stimuli at every substep. It builds the trace,
   calls the probes, journals each step's [tel] record and flushes the
   solver work into the counters once; returns the trace and stats.
   [st] was created with the stimuli's names as its inputs, so every
   input slot has a stimulus. *)
let drive ?observe ~inputs ~output ~t_stop tel st =
  let by_name = Hashtbl.of_seq (List.to_seq inputs) in
  let stimuli = Some (Array.map (Hashtbl.find by_name) (System.inputs st.sys)) in
  let dt = st.dt in
  let nsteps = int_of_float (Float.round (t_stop /. dt)) in
  let trace = Trace.create ~capacity:(nsteps + 1) () in
  let read = read st in
  Trace.add trace ~time:0.0 ~value:(read output);
  (match observe with None -> () | Some f -> f 0.0 read);
  for step = 1 to nsteps do
    let value = advance st ~stimuli tel in
    let t = float_of_int step *. dt in
    (match tel with
    | Some tl when tl.journal ->
        let nsub =
          match st.kind with
          | Fast _ -> [ ("nsub", Journal.I tl.step_nsub) ]
          | Eln _ | Paper _ -> []
        in
        Journal.emit ~step ~time:t ~cat:"mna" "newton.step"
          (("residual", Journal.F tl.ext.step_residual)
          :: ("converged_at", Journal.I tl.step_converged_at)
          :: ("wasted", Journal.I tl.step_wasted)
          :: ("stress", Journal.F tl.ext.step_stress)
          :: nsub)
    | _ -> ());
    Trace.add trace ~time:t ~value;
    match observe with None -> () | Some f -> f t read
  done;
  let w = st.work in
  let stats =
    {
      steps = nsteps;
      device_evals = w.w_device_evals;
      factorizations = w.w_factorizations;
      solves = w.w_solves;
    }
  in
  flush_work w ~steps:nsteps;
  Obs.Gauge.set g_matrix_dim (float_of_int (Array.length st.x));
  (trace, stats)

let spice_like ?(substeps = 8) ?(iterations = 3) ?(fidelity = `Paper) ?observe
    circuit ~inputs ~output ~dt ~t_stop =
  check_args ~dt ~t_stop;
  if substeps < 1 || iterations < 1 then
    invalid_arg "Engine.spice_like: substeps and iterations must be >= 1";
  Obs.with_span ~cat:"mna" "mna.spice_like" @@ fun () ->
  let st =
    create_spice "Engine" ~substeps ~iterations ~fidelity circuit
      ~inputs:(List.map fst inputs) ~output ~dt
  in
  (* The paper path records convergence telemetry only while the
     journal is on; the fast path always does (its controller computes
     the same quantities anyway), the journal gating only the events. *)
  let jn = Journal.enabled () in
  let tel =
    if jn || fidelity = `Fast then Some (new_telemetry ~journal:jn) else None
  in
  let trace, stats = drive ?observe ~inputs ~output ~t_stop tel st in
  let n = Array.length st.x in
  let newton = Option.map (summarize ~nsteps:stats.steps ~dt ~substeps ~n) tel in
  { trace; stats; matrix_dim = n; newton }

let eln_like ?observe circuit ~inputs ~output ~dt ~t_stop =
  check_args ~dt ~t_stop;
  if Amsvp_netlist.Circuit.has_pwl circuit then
    invalid_arg "Engine.eln_like: the linear-network engine cannot simulate \
                 piecewise-linear devices";
  Obs.with_span ~cat:"mna" "mna.eln_like" @@ fun () ->
  let st = create_eln "Engine" circuit ~inputs:(List.map fst inputs) ~output ~dt in
  let trace, stats = drive ?observe ~inputs ~output ~t_stop None st in
  let n = Array.length st.x in
  (match st.kind with
  | Eln lu when Journal.enabled () ->
      let r = Matrix.empty_pivot_range () in
      (match lu with
      | Dense lu -> Matrix.widen_pivot_range r lu
      | Sparse_lu lu -> Sparse.widen_pivot_range r lu);
      Journal.emit ~cat:"mna" "eln.run"
        [
          ("steps", Journal.I stats.steps);
          ("solves", Journal.I stats.solves);
          ("pivot_min", Journal.F r.pivot_min);
          ("pivot_max", Journal.F r.pivot_max);
          ("dim", Journal.I n);
        ]
  | _ -> ());
  { trace; stats; matrix_dim = n; newton = None }

let run_testcase_spice ?substeps ?iterations ?fidelity
    (tc : Circuits.testcase) ~dt ~t_stop =
  spice_like ?substeps ?iterations ?fidelity tc.circuit ~inputs:tc.stimuli
    ~output:tc.output ~dt ~t_stop

let run_testcase_eln (tc : Circuits.testcase) ~dt ~t_stop =
  eln_like tc.circuit ~inputs:tc.stimuli ~output:tc.output ~dt ~t_stop
