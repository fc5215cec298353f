(* sweep_mc: the design-space user. A seeded Monte Carlo tolerance
   sweep run in process by the sweep runner at jobs=2 (a domain Pool
   over Runner.run_point, as Runner.run does), with the MNA reference
   on at the spec default `Paper fidelity. Points mix the rectifier
   (RECT: piecewise-linear, Newton) and the 20-stage ladder (RC20:
   linear, MNA dimension 22) three to one, so the median point is a
   RECT point and the 90th percentile an RC20 point. Every point is a
   plan-replay cache hit, so the abstraction flow stays idle. *)

open Bench_util
module Circuits = Amsvp_netlist.Circuits
module Spec = Amsvp_sweep.Spec
module Runner = Amsvp_sweep.Runner
module Pool = Amsvp_sweep.Pool
module Sampler = Amsvp_sweep.Sampler
module Flow = Amsvp_core.Flow
module Journal = Amsvp_obs.Journal
module Rng = Amsvp_util.Rng

let jobs = 2

let spec_rect seed =
  {
    Spec.default with
    Spec.name = "bench_rect_mc";
    circuit = Some "RECT";
    t_stop = Some 3e-3;
    samples = 2048;
    seed;
    axes =
      [
        { Spec.param = "d1.g_on"; range = Spec.Uniform { lo = 5e-3; hi = 2e-2 } };
        { Spec.param = "r1.r"; range = Spec.Normal { mean = 1e3; sigma = 50.0 } };
      ];
  }

let spec_rc20 seed =
  {
    Spec.default with
    Spec.name = "bench_rc20_mc";
    circuit = Some "RC20";
    t_stop = Some 1e-3;
    samples = 1024;
    seed;
    axes =
      [
        { Spec.param = "r1.r"; range = Spec.Normal { mean = 5e3; sigma = 250.0 } };
        { Spec.param = "c20.c"; range = Spec.Normal { mean = 25e-9; sigma = 1.25e-9 } };
      ];
  }

let prepare spec =
  match Runner.resolve spec with
  | Ok tc -> Runner.prepare ~jobs spec tc
  | Error e -> failwith e

type inputs = { rect : Runner.ctx; rc20 : Runner.ctx }

let setup ~seed () =
  let rng = Rng.derive seed ~stream:3 in
  let s1 = Rng.int rng ~bound:1_000_000 and s2 = Rng.int rng ~bound:1_000_000 in
  { rect = prepare (spec_rect s1); rc20 = prepare (spec_rc20 s2) }

(* The point stream: RECT and RC20 points interleaved R R R C, so each
   claim of the pool's chunked queue carries the same mix, walking the
   expanded point lists in order (and round again). *)
let item inp g =
  let rect = Runner.ctx_points inp.rect and rc20 = Runner.ctx_points inp.rc20 in
  if g land 3 = 3 then (inp.rc20, rc20.((g / 4) mod Array.length rc20))
  else (inp.rect, rect.((g - (g / 4)) mod Array.length rect))

(* The traced run works in batches of 32 stream points. *)
let batch_size = 32
let batch inp k = Array.init batch_size (fun i -> item inp ((k * batch_size) + i))

let key (ctx, (p : Sampler.point)) = (Runner.ctx_label ctx, p.Sampler.index)

let run_points ~jobs items =
  Pool.run ~jobs
    (fun (ctx, p) -> timed (fun () -> Runner.run_point ctx p))
    items

type values = { out_final : float; out_rms : float; nrmse : float option }

let values_of (r : Runner.point_result) =
  { out_final = r.Runner.out_final; out_rms = r.Runner.out_rms; nrmse = r.Runner.nrmse }

let same_values a b =
  same_bits a.out_final b.out_final
  && same_bits a.out_rms b.out_rms
  &&
  match (a.nrmse, b.nrmse) with
  | Some x, Some y -> same_bits x y
  | None, None -> true
  | _ -> false

type results = (string * int, values) Hashtbl.t

(* Check one result; a point seen before must repeat bit for bit. *)
let record_one tally (seen : results) it (r : Runner.point_result) =
  let k = key it in
  let name = Printf.sprintf "%s point %d" (fst k) (snd k) in
  let v = values_of r in
  let repeat =
    match Hashtbl.find_opt seen k with
    | None ->
        Hashtbl.add seen k v;
        true
    | Some v0 -> same_values v v0
  in
  op tally
    [
      (r.Runner.health.Amsvp_probe.Health.v_healthy, lazy (name ^ ": unhealthy"));
      (r.Runner.cached, lazy (name ^ ": not a plan-replay hit"));
      (r.Runner.nrmse <> None, lazy (name ^ ": no NRMSE against the reference"));
      (repeat, lazy (name ^ ": values changed on re-run"));
    ]

let record tally seen items res =
  Array.iteri (fun i (r, _) -> record_one tally seen items.(i) r) res

(* Outside the clock: a seeded sample of executed points re-run at
   jobs=1 must be bit-identical to the jobs=2 results. *)
let verify tally inp (seen : results) ~seed =
  let all = Hashtbl.fold (fun k r acc -> (k, r) :: acc) seen [] |> List.sort compare in
  let all = Array.of_list all in
  let rng = Rng.derive seed ~stream:4 in
  let sample = Array.sub (shuffle rng all) 0 (min 32 (Array.length all)) in
  let ctx_of label = if label = Runner.ctx_label inp.rect then inp.rect else inp.rc20 in
  Array.iter
    (fun ((label, index), v) ->
      let ctx = ctx_of label in
      let r1 = Runner.run_point ctx (Runner.ctx_points ctx).(index) in
      op tally
        [
          ( same_values v (values_of r1),
            lazy (Printf.sprintf "%s point %d: jobs=1 differs from jobs=%d" label index jobs) );
        ])
    sample

(* ---- traced run ---- *)

(* Unit costs on each circuit's MNA system at the reference's step
   (the runner's reference takes one substep per dt), and its bytecode
   step. *)
let units ctx =
  let tc = Option.get (Circuits.by_name (Runner.ctx_label ctx)) in
  let spec = Runner.ctx_spec ctx in
  let dt = Option.value spec.Spec.dt ~default:Runner.default_dt in
  let probed = Flow.insert_probes tc.Circuits.circuit ~outputs:[ tc.Circuits.output ] in
  let program = (Flow.abstract_testcase tc ~dt).Flow.program in
  (Layers.mna_dim probed, Layers.mna_units probed ~h:dt, Layers.sf_step_ns program)

let unit_metrics ((_, _, step_rect) as u_rect) ((_, _, step_rc20) as u_rc20) =
  let dim_metrics (dim, (u : Layers.solver_units), _) =
    let n suffix = Printf.sprintf "mna.%s.dim%d" suffix dim in
    [
      m (n "stamp_ns") "ns" u.Layers.stamp_ns;
      m (n "rhs_ns") "ns" u.Layers.rhs_ns;
      m (n "factor_ns") "ns" u.Layers.factor_ns;
      m (n "solve_ns") "ns" u.Layers.solve_ns;
      m (n "refactor_ns") "ns" u.Layers.refactor_ns;
    ]
  in
  dim_metrics u_rect @ dim_metrics u_rc20
  @ [ m "signalflow.step_ns.RECT" "ns" step_rect; m "signalflow.step_ns.RC20" "ns" step_rc20 ]

let sweep_counters = [ "amsvp_sweep_points_total"; "amsvp_sweep_cache_hits_total" ]

(* Pool scaling on the mixed batch: 2-domain rate over twice the
   1-domain rate; also the plan-replay hit share of those points. *)
let scaling tally seen inp =
  let before = snapshot () in
  let rate ~jobs k =
    let items = batch inp k in
    let res, t = timed (fun () -> run_points ~jobs items) in
    record tally seen items res;
    float_of_int batch_size /. t
  in
  let r1 = Array.init 3 (fun k -> rate ~jobs:1 k) in
  let r2 = Array.init 3 (fun k -> rate ~jobs:2 k) in
  let after = snapshot () in
  let hits, points =
    match List.map (delta before after) sweep_counters with
    | [ p; h ] -> (h, p)
    | _ -> assert false
  in
  ( m "sweep.pool_scaling" "ratio" (median r2 /. (2.0 *. median r1)),
    m "sweep.cache_hit_ratio" "ratio" (float_of_int hits /. float_of_int points) )

(* Wasted Newton passes are only counted while the journal is on (it
   computes the update norms), so one journaled batch of each circuit,
   kept out of the attribution, gives the useful share. *)
let useful_passes tally seen items =
  let before = snapshot () in
  Journal.enable ();
  record tally seen items (run_points ~jobs items);
  Journal.disable ();
  let after = snapshot () in
  m "mna.useful_pass_ratio" "ratio"
    (1.0
    -. float_of_int (delta before after "amsvp_mna_wasted_newton_iters_total")
       /. float_of_int (delta before after "amsvp_mna_device_evals_total"))

let prepare_ms inp =
  let _, t = median_of ~reps:5 (fun () -> prepare (Runner.ctx_spec inp.rc20)) in
  m "sweep.prepare_ms" "ms" (t *. 1e3)

let traced (cli : cli) tally inp =
  let seen = Hashtbl.create 1024 in
  let u_rect = units inp.rect and u_rc20 = units inp.rc20 in
  let pool_scaling, _ = scaling tally seen inp in
  let rect_items = Array.init 24 (fun i -> (inp.rect, (Runner.ctx_points inp.rect).(i)))
  and rc20_items = Array.init 8 (fun i -> (inp.rc20, (Runner.ctx_points inp.rc20).(i))) in
  let totals = Hashtbl.create 16 and sweep_totals = Hashtbl.create 2 in
  let explained = ref 0.0 and point_wall = ref 0.0 and n_points = ref 0 in
  let traced_batch (_, (u : Layers.solver_units), step_ns) items =
    let before = snapshot () in
    let res, t = timed (fun () -> run_points ~jobs items) in
    let after = snapshot () in
    record tally seen items res;
    add_deltas totals before after;
    List.iter
      (fun c ->
        Hashtbl.replace sweep_totals c
          (delta before after c + Option.value (Hashtbl.find_opt sweep_totals c) ~default:0))
      sweep_counters;
    let d name = float_of_int (delta before after name) in
    let ns =
      (d "amsvp_mna_device_evals_total" *. u.Layers.stamp_ns)
      +. (d "amsvp_mna_rhs_builds_total" *. u.Layers.rhs_ns)
      +. (d "amsvp_mna_factorizations_total" *. u.Layers.factor_ns)
      +. (d "amsvp_mna_solves_total" *. u.Layers.solve_ns)
      +. (d "amsvp_sf_ticks_total" *. step_ns)
    in
    explained := !explained +. (ns *. 1e-9);
    n_points := !n_points + Array.length items;
    Array.iter (fun (_, pt) -> point_wall := !point_wall +. pt) res;
    t
  in
  let plain_batch items =
    let res, t = timed (fun () -> run_points ~jobs items) in
    record tally seen items res;
    t
  in
  let plain = ref [] and traced = ref [] in
  ignore
    (until ~seconds:cli.seconds ~min_iters:4 (fun i ->
         if i land 1 = 0 then
           plain := (plain_batch rect_items +. plain_batch rc20_items) :: !plain
         else begin
           Obs.enable ();
           let t = traced_batch u_rect rect_items +. traced_batch u_rc20 rc20_items in
           Obs.disable ();
           traced := t :: !traced
         end));
  let useful = useful_passes tally seen (Array.append rect_items rc20_items) in
  verify tally inp seen ~seed:cli.seed;
  outcome tally
    (unit_metrics u_rect u_rc20
    @ count_metrics totals ~ops:!n_points
    @ [
        useful;
        m "sweep.cache_hit_ratio" "ratio"
          (total sweep_totals "amsvp_sweep_cache_hits_total"
          /. total sweep_totals "amsvp_sweep_points_total");
        prepare_ms inp;
        pool_scaling;
        m "residual_pct" "%" (residual_pct ~wall:!point_wall ~explained:!explained);
        m "obs.tracing_overhead_pct" "%"
          (100.0 *. ((median (Array.of_list !traced) /. median (Array.of_list !plain)) -. 1.0));
      ])

(* This workload's layer figures for another workload's traced run:
   the solver and bytecode unit costs, pool scaling and cache hits on
   three mixed batches, the useful Newton share on one, and the
   preparation time. *)
let probe (cli : cli) tally =
  let inp = setup ~seed:cli.seed () in
  let seen = Hashtbl.create 256 in
  let pool_scaling, hit_ratio = scaling tally seen inp in
  unit_metrics (units inp.rect) (units inp.rc20)
  @ [ useful_passes tally seen (batch inp 0); hit_ratio; prepare_ms inp; pool_scaling ]

(* The timed run is one sweep, as Runner.run makes it: a single Pool.run
   over a stream longer than the run can finish, each point skipped once
   the deadline has passed. One pool per run keeps domain start-up out
   of the figures and the memory footprint independent of run length. *)
let stream_points = 8192

let timed_sweep tally inp ~seconds =
  let items = Array.init stream_points (item inp) in
  let deadline = now () +. seconds in
  let res =
    Pool.run ~jobs
      (fun (ctx, p) ->
        if now () > deadline then None
        else
          let r, t = timed (fun () -> Runner.run_point ctx p) in
          Some (r, t, now ()))
      items
  in
  let seen = Hashtbl.create 4096 in
  let done_ = ref [] in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some (r, t, t_end) ->
          record_one tally seen items.(i) r;
          done_ := (t_end, t) :: !done_)
    res;
  (seen, Array.of_list (List.sort compare !done_))

(* Points completed per second, between the first and the last
   completion. *)
let throughput (done_ : (float * float) array) =
  let n = Array.length done_ in
  float_of_int (n - 1) /. (fst done_.(n - 1) -. fst done_.(0))

let run (cli : cli) =
  let tally = tally () in
  if cli.trace then traced cli tally (setup ~seed:cli.seed ())
  else begin
    let done_, setup_s, rss =
      with_setup ~reps:101 (setup ~seed:cli.seed) (fun inp ->
          let seen, done_ = timed_sweep tally inp ~seconds:cli.seconds in
          verify tally inp seen ~seed:cli.seed;
          done_)
    in
    let point_ms = Array.map (fun (_, t) -> t *. 1e3) done_ in
    outcome tally
      [
        m "setup_s" "s" setup_s;
        m "ops_per_s" "1/s" (throughput done_);
        m "op_p50_ms" "ms" (median point_ms);
        m "op_p90_ms" "ms" (p90 ~what:"point latency" point_ms);
        m "peak_rss_mb" "MiB" rss;
      ]
  end
