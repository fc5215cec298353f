(* Differential tests for the fast-fidelity MNA engine.

   [`Fast] trades the paper's fixed re-stamp/re-factor budget for
   sparse symbolic reuse, Newton early-exit and adaptive substepping;
   these tests pin down the contract that buys the speedup:

   - [`Paper] (the default) stays bit-identical to the seed engine,
     sample for sample and counter for counter, and its journal
     telemetry is pinned by golden runs;
   - each stepper runs the same step function as its whole-run
     engine: with a constant stimulus they agree bit for bit and count
     the same solver work;
   - [`Fast] traces agree with [`Paper] within the health-watchdog
     NRMSE budget on the paper circuits and on randomly generated
     RC / RLC / rectifier networks;
   - the sparse back-end (direct, and symbolic analyze + numeric
     refactor) agrees with the dense solver to rounding, and the
     stale-pivot escape hatch raises and recovers as documented;
   - singular and near-singular networks fail with the same
     [Matrix.Singular] diagnostics under either fidelity;
   - telemetry: a [`Fast] run never reports wasted Newton passes, and
     enabling the journal does not change a single sample. *)

module Matrix = Amsvp_mna.Matrix
module Sparse = Amsvp_mna.Sparse
module Dc = Amsvp_mna.Dc
module Engine = Amsvp_mna.Engine
module Circuit = Amsvp_netlist.Circuit
module Component = Amsvp_netlist.Component
module Circuits = Amsvp_netlist.Circuits
module Trace = Amsvp_util.Trace
module Stimulus = Amsvp_util.Stimulus
module Metrics = Amsvp_util.Metrics
module Journal = Amsvp_obs.Journal
module Obs = Amsvp_obs.Obs

let checkf tol = Alcotest.(check (float tol))
let ulp_ok a b = Int64.compare (Metrics.ulp_distance a b) 1L <= 0

let check_traces label a b =
  Alcotest.(check int)
    (label ^ ": sample count") (Trace.length a) (Trace.length b);
  for i = 0 to Trace.length a - 1 do
    let va = Trace.value a i and vb = Trace.value b i in
    if not (ulp_ok va vb) then
      Alcotest.failf "%s: sample %d differs: %h vs %h (t=%.9g)" label i va vb
        (Trace.time a i)
  done

(* The engine-agreement budget of the sweep health watchdog
   (test_spice_matches_eln uses the same 5e-3 figure). *)
let nrmse_budget = 5e-3

let nrmse_fast_vs_paper ?substeps ?iterations (tc : Circuits.testcase) ~dt
    ~t_stop =
  let run fidelity =
    Engine.run_testcase_spice ?substeps ?iterations ~fidelity tc ~dt ~t_stop
  in
  let paper = run `Paper and fast = run `Fast in
  ( Metrics.nrmse_traces ~reference:paper.Engine.trace fast.Engine.trace
      ~t0:0.0 ~dt:(t_stop /. 500.0) ~n:499,
    paper,
    fast )

(* ---- `Paper bit-identity with the seed engine ---- *)

let test_paper_bit_identity () =
  let tc = Circuits.rc_ladder 1 in
  let dflt =
    Engine.run_testcase_spice ~substeps:4 ~iterations:2 tc ~dt:1e-5
      ~t_stop:1e-3
  in
  let paper =
    Engine.run_testcase_spice ~substeps:4 ~iterations:2 ~fidelity:`Paper tc
      ~dt:1e-5 ~t_stop:1e-3
  in
  check_traces "default vs explicit `Paper" dflt.trace paper.trace;
  (* The exact seed cost model: every Newton pass of every substep
     re-stamps and re-factors. *)
  Alcotest.(check int) "steps" 100 paper.stats.steps;
  Alcotest.(check int) "solves" 800 paper.stats.solves;
  Alcotest.(check int) "factorizations" 800 paper.stats.factorizations;
  Alcotest.(check int) "device evals" 800 paper.stats.device_evals

(* ---- `Fast differential accuracy on the paper circuits ---- *)

(* The accuracy contract holds where the engine is operated: reporting
   steps that resolve the circuit's time constants (the bench rows use
   dt = 50 ns; the sweeps µs-scale steps). At dt comparable to the
   fastest time constant the adaptive controller correctly trades
   accuracy for the remaining speed — covered separately below. *)
let test_fast_accuracy_paper_circuits () =
  List.iter
    (fun tc ->
      let e, _, _ = nrmse_fast_vs_paper tc ~dt:5e-7 ~t_stop:1e-3 in
      if not (e < nrmse_budget) then
        Alcotest.failf "%s: fast NRMSE %.3e exceeds budget %.0e"
          tc.Circuits.label e nrmse_budget)
    (Circuits.all_paper_cases ()
    @ [
        Circuits.rc_ladder 20;
        Circuits.rlc_series ();
        Circuits.rectifier ();
      ])

let test_fast_coarse_dt_degrades_gracefully () =
  (* Reporting steps comparable to the stage time constant: the
     controller gives up some agreement with the fixed-budget paper
     discretisation, but the error stays bounded and shrinks again
     with the step. *)
  let tc = Circuits.rc_ladder 20 in
  let e_coarse, _, _ = nrmse_fast_vs_paper tc ~dt:4e-6 ~t_stop:1e-3 in
  let e_fine, _, _ = nrmse_fast_vs_paper tc ~dt:5e-7 ~t_stop:1e-3 in
  Alcotest.(check bool)
    (Printf.sprintf "bounded at coarse dt (%.3e)" e_coarse)
    true (e_coarse < 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "improves with resolution (%.3e < %.3e)" e_fine e_coarse)
    true (e_fine < e_coarse)

(* ---- `Fast does radically less factorisation work ---- *)

let test_fast_linear_workload () =
  let tc = Circuits.rc_ladder 20 in
  let _, paper, fast = nrmse_fast_vs_paper tc ~dt:2e-6 ~t_stop:1e-3 in
  (* A linear network with a fixed step: the LU is computed a handful
     of times (once per adaptive substep count in use), not once per
     Newton pass. *)
  Alcotest.(check bool)
    (Printf.sprintf "few factorizations (%d vs %d)" fast.Engine.stats.factorizations
       paper.Engine.stats.factorizations)
    true
    (fast.Engine.stats.factorizations * 100 < paper.Engine.stats.factorizations);
  Alcotest.(check bool) "fewer solves" true
    (fast.Engine.stats.solves < paper.Engine.stats.solves);
  (* Early-exit telemetry is always populated under `Fast, and by
     construction nothing is wasted. *)
  match fast.Engine.newton with
  | None -> Alcotest.fail "`Fast must populate newton telemetry"
  | Some nw ->
      Alcotest.(check int) "no wasted passes" 0 nw.Engine.wasted_iters;
      Alcotest.(check bool) "pivot range sane" true
        (nw.Engine.pivot_min > 0.0 && nw.Engine.pivot_max >= nw.Engine.pivot_min)

let test_fast_pwl_restamps () =
  (* The rectifier flips its diode region as the sine crosses 0: the
     factor cache must re-stamp on each region change — more than one
     factorisation, still far below the paper budget. *)
  let tc = Circuits.rectifier () in
  let _, paper, fast = nrmse_fast_vs_paper tc ~dt:2e-6 ~t_stop:2e-3 in
  Alcotest.(check bool) "re-stamps on region changes" true
    (fast.Engine.stats.factorizations > 1);
  Alcotest.(check bool) "still far below paper budget" true
    (fast.Engine.stats.factorizations * 20 < paper.Engine.stats.factorizations)

(* ---- Random circuits: QCheck differential harness ---- *)

let prop_fast_matches_paper_rc =
  QCheck.Test.make ~name:"fast matches paper on random RC ladders" ~count:10
    QCheck.(pair (int_range 1 6) (float_range 0.5 4.0))
    (fun (order, rscale) ->
      let tc = Circuits.rc_ladder ~r:(5e3 *. rscale) order in
      let e, _, _ =
        nrmse_fast_vs_paper ~substeps:4 tc ~dt:2.5e-7 ~t_stop:2.5e-4
      in
      e < nrmse_budget)

let prop_fast_matches_paper_rlc =
  QCheck.Test.make ~name:"fast matches paper on random RLC networks" ~count:8
    QCheck.(pair (float_range 0.5 3.0) (float_range 0.5 3.0))
    (fun (rs, ls) ->
      let tc = Circuits.rlc_series ~r:(100.0 *. rs) ~l:(10e-3 *. ls) () in
      let e, _, _ =
        nrmse_fast_vs_paper ~substeps:8 tc ~dt:1e-6 ~t_stop:2e-3
      in
      e < nrmse_budget)

let prop_fast_matches_paper_pwl =
  QCheck.Test.make ~name:"fast matches paper on random rectifiers" ~count:8
    QCheck.(pair (float_range 0.3 3.0) (float_range 0.5 2.0))
    (fun (rscale, gscale) ->
      let tc =
        Circuits.rectifier ~r:(1e3 *. rscale) ~g_on:(1e-2 *. gscale) ()
      in
      let e, _, _ =
        nrmse_fast_vs_paper ~substeps:8 tc ~dt:5e-6 ~t_stop:2e-3
      in
      e < nrmse_budget)

(* ---- Sparse vs dense linear algebra ---- *)

let dense_solution triplets ~n b =
  let m = Matrix.create n in
  List.iter (fun (i, j, v) -> Matrix.add_to m i j v) triplets;
  Matrix.lu_solve (Matrix.lu_factor m) b

let rel_close a b =
  Array.for_all2
    (fun u w -> abs_float (u -. w) <= 1e-12 *. (1.0 +. max (abs_float u) (abs_float w)))
    a b

(* [entries] plus 25 on the diagonal of a 10 x 10 matrix: the sparse
   direct solve, and analyze + refactor, agree with the dense solver. *)
let sparse_matches_dense entries =
  let n = 10 in
  let triplets = entries @ List.init n (fun i -> (i, i, 25.0)) in
  let b = Array.init n (fun i -> float_of_int (i - 4)) in
  let xd = dense_solution triplets ~n b in
  let xs = Sparse.lu_solve (Sparse.lu_factor ~n triplets) b in
  let sym = Sparse.analyze ~n triplets in
  let xr = Sparse.lu_solve (Sparse.refactor sym triplets) b in
  (* Numeric refactor on the same pattern with different values:
     scale each entry, keeping diagonal dominance. *)
  let triplets' =
    List.mapi
      (fun k (i, j, v) -> (i, j, v *. (1.0 +. (0.04 *. float_of_int (k mod 7)))))
      triplets
  in
  let xd' = dense_solution triplets' ~n b in
  let xr' = Sparse.lu_solve (Sparse.refactor sym triplets') b in
  rel_close xd xs && rel_close xd xr && rel_close xd' xr'

let prop_sparse_matches_dense =
  QCheck.Test.make
    ~name:"sparse direct, and analyze+refactor, match the dense solver"
    ~count:50
    QCheck.(
      list_of_size (Gen.int_range 5 40)
        (triple (int_range 0 9) (int_range 0 9) (float_range (-2.0) 2.0)))
    sparse_matches_dense

(* A case the property once found: with a loose pivot threshold the
   sparse LU took a pivot about 1/200 of its column maximum because its
   row was sparser, and lost five digits on this well-conditioned
   matrix. *)
let test_sparse_pivot_threshold () =
  Alcotest.(check bool) "sparse matches dense" true
    (sparse_matches_dense
       [
         (2, 5, -0.589); (1, 2, 1.917); (5, 0, 1.917); (0, 0, -1.005);
         (0, 1, 1.401); (5, 6, -1.784); (0, 0, -0.411); (7, 1, -0.137);
         (1, 3, -0.043);
       ])

let test_stale_pivot_fallback () =
  (* analyze picks its pivot order from the values it is given; feed
     the same pattern values that zero the chosen pivot. The matrix is
     still nonsingular — only the reused pivot order is stale — so
     refactor must refuse with [Singular], and a fresh analysis of the
     new values must succeed. *)
  let good = [ (0, 0, 4.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 4.0) ] in
  let stale = [ (0, 0, 0.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 0.0) ] in
  let sym = Sparse.analyze ~n:2 good in
  let b = [| 3.0; 4.0 |] in
  let x = Sparse.lu_solve (Sparse.refactor sym good) b in
  checkf 1e-12 "good x0" (8.0 /. 15.0) x.(0);
  checkf 1e-12 "good x1" (13.0 /. 15.0) x.(1);
  Alcotest.check_raises "stale pivot detected" (Sparse.Singular 0) (fun () ->
      ignore (Sparse.refactor sym stale));
  (* The engine's escape hatch: re-analyze with fresh pivoting. *)
  let x' = Sparse.lu_solve (Sparse.refactor (Sparse.analyze ~n:2 stale) stale) b in
  checkf 1e-12 "recovered x0" 4.0 x'.(0);
  checkf 1e-12 "recovered x1" 3.0 x'.(1)

(* ---- `Sparse back-end coverage in DC and the ELN stepper ---- *)

let test_dc_sparse_solver () =
  let check_circuit label c nodes =
    let dense = Dc.operating_point c in
    let sparse = Dc.operating_point ~solver:`Sparse c in
    List.iter
      (fun n ->
        checkf 1e-9
          (Printf.sprintf "%s: V(%s)" label n)
          (Dc.voltage dense n) (Dc.voltage sparse n))
      nodes
  in
  let div = Circuit.create () in
  Circuit.add_vsource div ~name:"vs" ~pos:"a" ~neg:"gnd" (Component.Dc 9.0);
  Circuit.add_resistor div ~name:"r1" ~pos:"a" ~neg:"mid" 1.0e3;
  Circuit.add_resistor div ~name:"r2" ~pos:"mid" ~neg:"gnd" 2.0e3;
  check_circuit "divider" div [ "a"; "mid" ];
  checkf 1e-9 "divider value" 6.0
    (Dc.voltage (Dc.operating_point ~solver:`Sparse div) "mid");
  (* Piecewise-linear region iteration through the sparse back-end. *)
  let rect = (Circuits.rectifier ()).Circuits.circuit in
  check_circuit "rectifier op" rect [ "in"; "out" ]

let test_eln_stepper_sparse () =
  let tc = Circuits.rc_ladder 8 in
  let inputs = List.map fst tc.Circuits.stimuli in
  let stim = List.map snd tc.Circuits.stimuli in
  let mk solver =
    Engine.Eln_stepper.create ~solver tc.Circuits.circuit ~inputs
      ~output:tc.Circuits.output ~dt:1e-5
  in
  let dense = mk `Dense and sparse = mk `Sparse in
  for k = 1 to 200 do
    let t = float_of_int k *. 1e-5 in
    let iv = Array.of_list (List.map (fun s -> s t) stim) in
    let vd = Engine.Eln_stepper.step dense ~input_values:iv in
    let vs = Engine.Eln_stepper.step sparse ~input_values:iv in
    if not (abs_float (vd -. vs) <= 1e-12 *. (1.0 +. abs_float vd)) then
      Alcotest.failf "eln step %d: dense %h vs sparse %h" k vd vs
  done

(* ---- Singular and near-singular parity across fidelities ---- *)

let singular_of fidelity circuit ~output =
  try
    ignore
      (Engine.spice_like ~fidelity circuit ~inputs:[] ~output ~dt:1e-5
         ~t_stop:1e-4);
    None
  with Matrix.Singular k -> Some k

let test_singular_parity () =
  (* Numerically singular (the structural cases — source loops and
     cutsets — are caught earlier, at [System.build] time): a VCCS
     whose transconductance exactly cancels the only conductance, so
     the assembled matrix is 0. *)
  let c = Circuit.create () in
  Circuit.add_resistor c ~name:"r" ~pos:"a" ~neg:"gnd" 1.0e3;
  Circuit.add c
    (Component.make ~name:"g1" ~pos:"a" ~neg:"gnd"
       (Component.Vccs { gm = -1e-3; ctrl_pos = "a"; ctrl_neg = "gnd" }));
  let out = Expr.potential "a" "gnd" in
  let p = singular_of `Paper c ~output:out in
  let f = singular_of `Fast c ~output:out in
  Alcotest.(check bool) "paper raises" true (p <> None);
  Alcotest.(check (option int)) "same Singular k" p f;
  (* Near-singular: a conductance below the 1e-300 pivot floor. *)
  let w = Circuit.create () in
  Circuit.add_resistor w ~name:"r" ~pos:"a" ~neg:"gnd" 1e305;
  let out = Expr.potential "a" "gnd" in
  let p = singular_of `Paper w ~output:out in
  let f = singular_of `Fast w ~output:out in
  Alcotest.(check bool) "paper rejects tiny pivot" true (p <> None);
  Alcotest.(check (option int)) "same near-singular k" p f

(* ---- Telemetry: journal population and journal-off identity ---- *)

let test_fast_journal_telemetry () =
  Journal.reset ();
  Journal.disable ();
  let tc = Circuits.rc_ladder 20 in
  let run () =
    Engine.run_testcase_spice ~fidelity:`Fast tc ~dt:2e-6 ~t_stop:1e-3
  in
  let off = run () in
  Journal.reset ();
  Journal.enable ();
  let on = run () in
  Journal.disable ();
  (* The journal is pure observation: not one sample may move. *)
  check_traces "journal on/off" off.trace on.trace;
  Alcotest.(check int) "same factorizations" off.stats.factorizations
    on.stats.factorizations;
  let events = List.filter (fun e -> e.Journal.cat = "mna") (Journal.events ()) in
  let runs = List.filter (fun e -> e.Journal.name = "newton.run") events in
  (match runs with
  | [ e ] ->
      let field k = List.assoc_opt k e.Journal.payload in
      Alcotest.(check bool) "wasted_iters = 0" true
        (field "wasted_iters" = Some (Journal.I 0));
      (match field "dt_stress" with
      | Some (Journal.F s) ->
          Alcotest.(check bool) "dt_stress finite" true (Float.is_finite s)
      | _ -> Alcotest.fail "newton.run missing dt_stress");
      (match field "total_iters" with
      | Some (Journal.I t) ->
          Alcotest.(check bool) "total_iters positive" true (t > 0)
      | _ -> Alcotest.fail "newton.run missing total_iters")
  | l -> Alcotest.failf "expected one newton.run event, got %d" (List.length l));
  let steps = List.filter (fun e -> e.Journal.name = "newton.step") events in
  Alcotest.(check int) "one newton.step per reporting step" on.stats.steps
    (List.length steps);
  List.iter
    (fun e ->
      match List.assoc_opt "nsub" e.Journal.payload with
      | Some (Journal.I ns) ->
          if ns < 1 || ns > 8 then
            Alcotest.failf "newton.step nsub %d out of range" ns
      | _ -> Alcotest.fail "newton.step missing nsub")
    steps

(* ---- Golden baselines ---- *)

(* Regenerate after an intentional engine change:

     AMSVP_GOLDEN_REGEN=1 dune exec test/test_mna_fast.exe -- test golden
     cp _build/default/test/fixtures/{fast,paper,eln}_*.golden test/fixtures/

   The [paper_*] and [eln_*] goldens pin the [`Paper] and ELN engines
   bit for bit: the trace, and for [`Paper] also the per-run [stats],
   the [newton] record and every [mna] journal event of a journal-on
   run, floats in [%h]. *)
let golden_cases =
  [
    ("fast_rc20", Circuits.rc_ladder 20, 1e-5, 1e-3);
    ("fast_rect", Circuits.rectifier (), 1e-5, 2e-3);
  ]

let paper_golden_cases =
  [
    ("paper_rc20", Circuits.rc_ladder 20, 1e-5, 1e-3);
    ("paper_rect", Circuits.rectifier (), 1e-5, 2e-3);
  ]

let fixture_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "fixtures"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let trace_text t =
  let b = Buffer.create 4096 in
  for i = 0 to Trace.length t - 1 do
    Buffer.add_string b
      (Printf.sprintf "%.9e %h\n" (Trace.time t i) (Trace.value t i))
  done;
  Buffer.contents b

let check_golden base text =
  let golden = Filename.concat fixture_dir (base ^ ".golden") in
  if Sys.getenv_opt "AMSVP_GOLDEN_REGEN" = Some "1" then begin
    (try Sys.remove golden with Sys_error _ -> ());
    let oc = open_out_bin golden in
    output_string oc text;
    close_out oc
  end
  else if not (Sys.file_exists golden) then
    Alcotest.failf "%s missing — run with AMSVP_GOLDEN_REGEN=1" golden
  else
    let expected = read_file golden in
    if not (String.equal expected text) then
      Alcotest.failf "%s drifted from its golden baseline" base

let test_golden_fast_traces () =
  List.iter
    (fun (base, tc, dt, t_stop) ->
      let r = Engine.run_testcase_spice ~fidelity:`Fast tc ~dt ~t_stop in
      check_golden base (trace_text r.trace))
    golden_cases

let journal_value = function
  | Journal.F f -> Printf.sprintf "%h" f
  | Journal.I i -> string_of_int i
  | Journal.S s -> s
  | Journal.B b -> string_of_bool b

let paper_golden_text tc ~dt ~t_stop =
  Journal.reset ();
  Journal.disable ();
  let off = Engine.run_testcase_spice ~fidelity:`Paper tc ~dt ~t_stop in
  Journal.enable ();
  let on =
    Fun.protect ~finally:Journal.disable (fun () ->
        Engine.run_testcase_spice ~fidelity:`Paper tc ~dt ~t_stop)
  in
  check_traces "paper journal on/off" off.trace on.trace;
  let b = Buffer.create 65536 in
  Buffer.add_string b (trace_text off.trace);
  let s = on.stats in
  Printf.bprintf b "stats steps=%d device_evals=%d factorizations=%d solves=%d\n"
    s.steps s.device_evals s.factorizations s.solves;
  (match on.newton with
  | None -> Alcotest.fail "journal-on `Paper run must report newton"
  | Some nw ->
      Printf.bprintf b
        "newton total_iters=%d wasted_iters=%d max_residual=%h pivot_min=%h \
         pivot_max=%h dt_stress=%h stressed_substeps=%d\n"
        nw.total_iters nw.wasted_iters nw.max_residual nw.pivot_min
        nw.pivot_max nw.dt_stress nw.stressed_substeps);
  List.iter
    (fun (e : Journal.event) ->
      if e.cat = "mna" then begin
        Printf.bprintf b "event %s %s step=%d time=%h"
          (Journal.severity_label e.severity)
          e.name e.step e.time;
        List.iter
          (fun (k, v) -> Printf.bprintf b " %s=%s" k (journal_value v))
          e.payload;
        Buffer.add_char b '\n'
      end)
    (Journal.events ());
  Journal.reset ();
  Buffer.contents b

let test_golden_paper () =
  List.iter
    (fun (base, tc, dt, t_stop) ->
      check_golden base (paper_golden_text tc ~dt ~t_stop))
    paper_golden_cases

let test_golden_eln () =
  let r = Engine.run_testcase_eln (Circuits.rc_ladder 20) ~dt:1e-5 ~t_stop:1e-3 in
  check_golden "eln_rc20" (trace_text r.trace)

(* ---- Stepper parity: the VP embedding of the engines ---- *)

(* With a constant stimulus the stepper's hold-within-step input
   contract coincides with the engine's substep sampling, so stepper
   and whole-run engine run the same step function on the same inputs
   and must agree bit for bit — and count the same solver work. *)
let parity_cases =
  [
    ("paper RC4", `Spice `Paper, Circuits.rc_ladder 4);
    ("paper RECT", `Spice `Paper, Circuits.rectifier ());
    ("fast RC4", `Spice `Fast, Circuits.rc_ladder 4);
    ("fast RECT", `Spice `Fast, Circuits.rectifier ());
    ("eln RC4", `Eln, Circuits.rc_ladder 4);
  ]

let mna_counters =
  List.map Obs.Counter.make
    [
      "amsvp_mna_steps_total";
      "amsvp_mna_device_evals_total";
      "amsvp_mna_factorizations_total";
      "amsvp_mna_solves_total";
      "amsvp_mna_rhs_builds_total";
    ]

(* Runs [f] and returns its result with the MNA counter deltas. *)
let counting f =
  let before = List.map Obs.Counter.value mna_counters in
  let r = f () in
  let delta c b = (Obs.Counter.name c, Obs.Counter.value c - b) in
  (r, List.map2 delta mna_counters before)

let run_parity_case kind (tc : Circuits.testcase) =
  let dt = 1e-5 and t_stop = 1e-3 in
  let names = List.map fst tc.stimuli in
  let inputs = List.map (fun n -> (n, Stimulus.constant 1.0)) names in
  let iv = Array.make (List.length names) 1.0 in
  let engine, engine_counts =
    counting (fun () ->
        match kind with
        | `Spice fidelity ->
            Engine.spice_like ~fidelity tc.circuit ~inputs ~output:tc.output
              ~dt ~t_stop
        | `Eln ->
            Engine.eln_like tc.circuit ~inputs ~output:tc.output ~dt ~t_stop)
  in
  let step =
    match kind with
    | `Spice fidelity ->
        let st =
          Engine.Spice_stepper.create ~fidelity tc.circuit ~inputs:names
            ~output:tc.output ~dt
        in
        fun () -> Engine.Spice_stepper.step st ~input_values:iv
    | `Eln ->
        let st =
          Engine.Eln_stepper.create tc.circuit ~inputs:names ~output:tc.output
            ~dt
        in
        fun () -> Engine.Eln_stepper.step st ~input_values:iv
  in
  let nsteps = Trace.length engine.trace - 1 in
  let stepped, stepper_counts =
    counting (fun () -> Array.init nsteps (fun _ -> step ()))
  in
  (engine, engine_counts, stepped, stepper_counts)

let test_stepper_matches_engine () =
  List.iter
    (fun (label, kind, tc) ->
      let engine, _, stepped, _ = run_parity_case kind tc in
      Array.iteri
        (fun i v ->
          let ve = Trace.value engine.Engine.trace (i + 1) in
          if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float ve))
          then
            Alcotest.failf "%s: stepper step %d: %h vs engine %h" label (i + 1)
              v ve)
        stepped)
    parity_cases

let test_stepper_counts_match_engine () =
  List.iter
    (fun (label, kind, tc) ->
      let _, engine_counts, _, stepper_counts = run_parity_case kind tc in
      List.iter2
        (fun (name, e) (_, s) ->
          Alcotest.(check int) (Printf.sprintf "%s: %s" label name) e s)
        engine_counts stepper_counts)
    parity_cases

(* ---- Allocation per reporting step ---- *)

(* Minor-heap words allocated per reporting step on RC20 with the
   journal off. The paper fidelity re-stamps and re-factors its dense
   system in buffers its stepper owns and resolves inputs and output to
   indices at creation, so a step allocates a few boxed floats whatever
   the circuit size (it allocated the matrix, the LU and a solution
   vector on every pass before). The bounds sit above what the engines
   measure: 24, 22, ~198 and 4 words. *)
let alloc_bounds =
  [
    ("paper whole run", 48.0);
    ("paper stepper", 48.0);
    ("fast stepper", 256.0);
    ("eln stepper", 16.0);
  ]

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_alloc_per_step () =
  Journal.disable ();
  let tc = Circuits.rc_ladder 20 and dt = 1e-5 in
  (* The difference of two run lengths leaves out the per-run set-up. *)
  let run nsteps () =
    ignore
      (Engine.run_testcase_spice tc ~dt ~t_stop:(float_of_int nsteps *. dt))
  in
  let whole = (minor_words (run 2000) -. minor_words (run 1000)) /. 1000.0 in
  let names = List.map fst tc.stimuli in
  let iv = Array.make (List.length names) 1.0 in
  let per_step step =
    for _ = 1 to 10 do ignore (step ()) done;
    minor_words (fun () -> for _ = 1 to 1000 do ignore (step ()) done)
    /. 1000.0
  in
  let spice fidelity =
    let st =
      Engine.Spice_stepper.create ~fidelity tc.circuit ~inputs:names
        ~output:tc.output ~dt
    in
    per_step (fun () -> Engine.Spice_stepper.step st ~input_values:iv)
  in
  let eln =
    let st =
      Engine.Eln_stepper.create tc.circuit ~inputs:names ~output:tc.output ~dt
    in
    per_step (fun () -> Engine.Eln_stepper.step st ~input_values:iv)
  in
  let measured =
    [ whole; spice `Paper; spice `Fast; eln ]
  in
  List.iter2
    (fun (label, bound) words ->
      if words > bound then
        Alcotest.failf "%s: %.1f minor words per step, bound %.0f" label words
          bound)
    alloc_bounds measured

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "amsvp-mna-fast"
    [
      ( "fidelity",
        [
          Alcotest.test_case "paper bit-identity" `Quick test_paper_bit_identity;
          Alcotest.test_case "fast accuracy on paper circuits" `Quick
            test_fast_accuracy_paper_circuits;
          Alcotest.test_case "coarse dt degrades gracefully" `Quick
            test_fast_coarse_dt_degrades_gracefully;
          Alcotest.test_case "fast linear workload" `Quick
            test_fast_linear_workload;
          Alcotest.test_case "fast pwl re-stamps" `Quick test_fast_pwl_restamps;
          Alcotest.test_case "stepper matches engine bit-exact" `Quick
            test_stepper_matches_engine;
          Alcotest.test_case "stepper counts match engine" `Quick
            test_stepper_counts_match_engine;
          Alcotest.test_case "allocation per step" `Quick test_alloc_per_step;
        ] );
      ( "random",
        qt
          [
            prop_fast_matches_paper_rc;
            prop_fast_matches_paper_rlc;
            prop_fast_matches_paper_pwl;
            prop_sparse_matches_dense;
          ] );
      ( "sparse",
        [
          Alcotest.test_case "stale pivot fallback" `Quick
            test_stale_pivot_fallback;
          Alcotest.test_case "pivot threshold" `Quick
            test_sparse_pivot_threshold;
          Alcotest.test_case "dc sparse solver" `Quick test_dc_sparse_solver;
          Alcotest.test_case "eln stepper sparse" `Quick test_eln_stepper_sparse;
          Alcotest.test_case "singular parity" `Quick test_singular_parity;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "fast journal telemetry" `Quick
            test_fast_journal_telemetry;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fast golden traces" `Quick test_golden_fast_traces;
          Alcotest.test_case "paper golden runs" `Quick test_golden_paper;
          Alcotest.test_case "eln golden trace" `Quick test_golden_eln;
        ] );
    ]
