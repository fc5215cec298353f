(* abstract_flow: the abstraction tool itself (the paper's §V-B tool
   time), which every CLI run and every cold service request pays. A
   seeded batch of Verilog-AMS and VHDL-AMS sources goes through parse
   and elaboration, the abstraction flow (or the direct signal-flow
   conversion), bytecode compilation, the value-range analysis and code
   generation for the three targets. Ladder sizes are drawn one per
   stratum of eight (1..8, 9..16, .., 57..64) so batches of different
   seeds carry nearly the same amount of work. This is the only workload
   where the front-ends, core and analysis layers carry the load. *)

open Bench_util
module Circuit = Amsvp_netlist.Circuit
module Flow = Amsvp_core.Flow
module Acquisition = Amsvp_core.Acquisition
module Enrich = Amsvp_core.Enrich
module Assemble = Amsvp_core.Assemble
module Solve = Amsvp_core.Solve
module Sfprogram = Amsvp_sf.Sfprogram
module Compile = Amsvp_sf.Compile
module Absint = Amsvp_analysis.Absint
module Codegen = Amsvp_codegen.Codegen
module Sources = Amsvp_vams.Sources
module Parser = Amsvp_vams.Parser
module Elaborate = Amsvp_vams.Elaborate
module Vsources = Amsvp_vhdlams.Vsources
module Vparser = Amsvp_vhdlams.Vparser
module Velaborate = Amsvp_vhdlams.Velaborate
module Stimulus = Amsvp_util.Stimulus
module Trace = Amsvp_util.Trace
module Metrics = Amsvp_util.Metrics
module Rng = Amsvp_util.Rng

let dt = 50e-9

type model = {
  name : string;
  lang : [ `Vams | `Vhdl ];
  src : string;
  top : string;
  inputs : string list;  (** driven ports (VHDL-AMS terminals carry no direction) *)
  outputs : Expr.var list;
}

let vams name src top =
  { name; lang = `Vams; src; top; inputs = []; outputs = [ Expr.potential "out" "gnd" ] }

let vhdl name src top =
  {
    name;
    lang = `Vhdl;
    src;
    top;
    inputs = [ "tin" ];
    outputs = [ Expr.potential "tout" "gnd" ];
  }

(* One ladder per stratum and language; the VHDL-AMS ladder takes the
   mirrored offset of the Verilog-AMS one, so the total ladder size of
   a batch is the same for every seed. *)
let batch ~seed =
  let rng = Rng.derive seed ~stream:6 in
  let offsets = Array.init 8 (fun _ -> Rng.int rng ~bound:8) in
  let ladders mk off = List.init 8 (fun s -> mk ((8 * s) + 1 + off offsets.(s))) in
  let models =
    ladders
      (fun n -> vams (Printf.sprintf "vams RC%d" n) (Sources.rc_ladder n) (Printf.sprintf "rc%d" n))
      Fun.id
    @ ladders
        (fun n ->
          vhdl (Printf.sprintf "vhdl RC%d" n) (Vsources.rc_ladder n) (Printf.sprintf "rc%d" n))
        (fun o -> 7 - o)
    @ [
        vams "vams 2IN" Sources.two_input "two_in";
        vams "vams OA" Sources.opamp "oa";
        vams "vams active filter" Sources.active_filter "active_filter";
        vams "vams signal-flow filter" Sources.signal_flow_filter "sf_lowpass";
        vhdl "vhdl OA" Vsources.opamp "oa";
        vhdl "vhdl signal-flow filter" Vsources.signal_flow_filter "sf_lowpass";
      ]
  in
  shuffle rng (Array.of_list models)

let targets = [ Codegen.Cpp; Codegen.Systemc_de; Codegen.Systemc_ams_tdf ]

type product = {
  report : Flow.report;
  compiled : Compile.t;
  analysis : Absint.analysis;
  code_digest : string;
}

(* The whole tool run on one source, through the public front doors. *)
let process md =
  let report =
    match md.lang with
    | `Vams -> Elaborate.parse_and_abstract md.src ~top:md.top ~outputs:md.outputs ~dt
    | `Vhdl ->
        Velaborate.parse_and_abstract md.src ~top:md.top ~inputs:md.inputs
          ~outputs:md.outputs ~dt
  in
  let p = report.Flow.program in
  let compiled = Sfprogram.compile p in
  let analysis = Absint.analyze p in
  let code = List.map (fun t -> Codegen.emit t p) targets in
  { report; compiled; analysis; code_digest = Digest.to_hex (Digest.string (String.concat "\x00" code)) }

(* Set-up: build the seeded batch and take it once through the tool,
   so lazily built tables and caches are warm before timing. *)
let setup ~seed () =
  let models = batch ~seed in
  (models, Array.map process models)

(* Outside the clock, once per model: the tree interpreter and the
   bytecode agree within 1 ulp on every step, and every output value
   lies in the range the value-range analysis claims for inputs in its
   default box (the square-wave stimuli stay inside it). *)
let verify tally models (first : product array) =
  Array.iteri
    (fun i md ->
      let pr = first.(i) in
      let p = pr.report.Flow.program in
      let stimuli =
        Array.of_list
          (List.mapi
             (fun k _ ->
               Stimulus.square ~period:(2e-5 *. float_of_int (k + 1)) ~low:0.0 ~high:1.0)
             p.Sfprogram.inputs)
      in
      let t_stop = 2000.0 *. dt in
      let run r = Sfprogram.Runner.run r ~stimuli ~t_stop () in
      let tree = run (Sfprogram.Runner.create ~engine:`Tree p) in
      let byte = run (Sfprogram.Runner.create ~compiled:pr.compiled p) in
      let ulp = ref 0L in
      for j = 0 to Trace.length tree - 1 do
        let d = Metrics.ulp_distance (Trace.value tree j) (Trace.value byte j) in
        if Int64.compare d !ulp > 0 then ulp := d
      done;
      let range = List.assoc (List.hd p.Sfprogram.outputs) pr.analysis.Absint.a_outputs in
      let inside = ref true in
      for j = 0 to Trace.length byte - 1 do
        if not (Absint.mem (Trace.value byte j) range) then inside := false
      done;
      op tally
        [
          (Int64.compare !ulp 1L <= 0, lazy (Printf.sprintf "%s: engines differ by %Ld ulp" md.name !ulp));
          (!inside, lazy (md.name ^ ": output leaves the value range absint claims"));
        ])
    models

(* Every pass must produce the same program and the same code. *)
let check_repeat tally (first : product array) i md pr =
  op tally
    [
      ( pr.code_digest = first.(i).code_digest
        && Compile.n_instrs pr.compiled = Compile.n_instrs first.(i).compiled,
        lazy (md.name ^ ": output changed between passes") );
    ]

(* ---- traced run: stage unit costs by direct calls ---- *)

type stage_totals = {
  mutable parse_vams_s : float;
  mutable n_vams : int;
  mutable parse_vhdl_s : float;
  mutable n_vhdl : int;
  mutable acq_s : float;
  mutable n_dipoles : int;
  mutable enrich_s : float;
  mutable n_classes : int;
  mutable assemble_s : float;
  mutable solve_s : float;
  mutable n_defs : int;
  mutable compile_s : float;
  mutable n_instrs : int;
  mutable absint_s : float;
  mutable n_absint : int;
  mutable emit_s : float;
  mutable n_emit : int;
}

let stages md (st : stage_totals) =
  let flat, t =
    timed (fun () ->
        match md.lang with
        | `Vams -> Elaborate.flatten (Parser.parse md.src) ~top:md.top
        | `Vhdl -> Velaborate.flatten (Vparser.parse md.src) ~top:md.top ~inputs:md.inputs)
  in
  (match md.lang with
  | `Vams ->
      st.parse_vams_s <- st.parse_vams_s +. t;
      st.n_vams <- st.n_vams + 1
  | `Vhdl ->
      st.parse_vhdl_s <- st.parse_vhdl_s +. t;
      st.n_vhdl <- st.n_vhdl + 1);
  let program =
    match Elaborate.classify flat with
    | `Signal_flow ->
        Flow.convert_signal_flow ~name:md.top ~inputs:flat.Elaborate.input_ports
          ~outputs:md.outputs ~contributions:(Elaborate.signal_flow_assignments flat) ~dt
    | `Conservative ->
        let circuit = Flow.insert_probes (Elaborate.to_circuit flat) ~outputs:md.outputs in
        let acq, t = timed (fun () -> Acquisition.of_circuit circuit) in
        st.acq_s <- st.acq_s +. t;
        st.n_dipoles <- st.n_dipoles + List.length acq.Acquisition.dipoles;
        let (map, es), t = timed (fun () -> Enrich.enrich acq) in
        st.enrich_s <- st.enrich_s +. t;
        st.n_classes <-
          st.n_classes + es.Enrich.dipole_classes + es.Enrich.kcl_classes + es.Enrich.kvl_classes;
        let asm, t =
          timed (fun () ->
              Assemble.assemble map ~inputs:(Circuit.input_signals circuit) ~outputs:md.outputs)
        in
        st.assemble_s <- st.assemble_s +. t;
        st.n_defs <- st.n_defs + List.length asm.Assemble.defs;
        let p, t = timed (fun () -> Solve.solve ~name:md.top ~dt asm) in
        st.solve_s <- st.solve_s +. t;
        p
  in
  let compiled, t = timed (fun () -> Sfprogram.compile program) in
  st.compile_s <- st.compile_s +. t;
  st.n_instrs <- st.n_instrs + Compile.n_instrs compiled;
  let _, t = timed (fun () -> Absint.analyze program) in
  st.absint_s <- st.absint_s +. t;
  st.n_absint <- st.n_absint + 1;
  List.iter
    (fun tg ->
      let _, t = timed (fun () -> Codegen.emit tg program) in
      st.emit_s <- st.emit_s +. t;
      st.n_emit <- st.n_emit + 1)
    targets

let per a n = a /. float_of_int (max 1 n)

type stage_units = {
  u_vams : float;
  u_vhdl : float;
  u_acq : float;
  u_enrich : float;
  u_asm : float;
  u_solve : float;
  u_compile : float;
  u_absint : float;
  u_emit : float;
}

(* Stage unit costs (s per unit) over whole batches run stage by stage
   for [seconds]. *)
let stage_units models ~seconds =
  let st =
    {
      parse_vams_s = 0.0; n_vams = 0; parse_vhdl_s = 0.0; n_vhdl = 0; acq_s = 0.0;
      n_dipoles = 0; enrich_s = 0.0; n_classes = 0; assemble_s = 0.0; solve_s = 0.0;
      n_defs = 0; compile_s = 0.0; n_instrs = 0; absint_s = 0.0; n_absint = 0;
      emit_s = 0.0; n_emit = 0;
    }
  in
  ignore (until ~seconds (fun _ -> Array.iter (fun md -> stages md st) models));
  {
    u_vams = per st.parse_vams_s st.n_vams;
    u_vhdl = per st.parse_vhdl_s st.n_vhdl;
    u_acq = per st.acq_s st.n_dipoles;
    u_enrich = per st.enrich_s st.n_classes;
    u_asm = per st.assemble_s st.n_defs;
    u_solve = per st.solve_s st.n_defs;
    u_compile = per st.compile_s st.n_instrs;
    u_absint = per st.absint_s st.n_absint;
    u_emit = per st.emit_s st.n_emit;
  }

let unit_metrics u =
  [
    m "vams.parse_elab_us" "us" (u.u_vams *. 1e6);
    m "vhdlams.parse_elab_us" "us" (u.u_vhdl *. 1e6);
    m "core.acquisition_us_per_eq" "us" (u.u_acq *. 1e6);
    m "core.enrich_us_per_eq" "us" (u.u_enrich *. 1e6);
    m "core.assemble_us_per_eq" "us" (u.u_asm *. 1e6);
    m "core.solve_us_per_eq" "us" (u.u_solve *. 1e6);
    m "signalflow.compile_us_per_instr" "us" (u.u_compile *. 1e6);
    m "analysis.absint_ms" "ms" (u.u_absint *. 1e3);
    m "codegen.emit_us" "us" (u.u_emit *. 1e6);
  ]

let traced (cli : cli) tally models first =
  let u = stage_units models ~seconds:(cli.seconds /. 3.0) in
  (* Attribution over public-path passes: per model, the stage unit
     costs times its equation counts (from the flow report) and its
     emitted instructions (the compile counter's delta). *)
  let totals = Hashtbl.create 16 in
  let explained = ref 0.0 and wall = ref 0.0 and n_models = ref 0 in
  let pass ~traced_pass =
    Array.fold_left
      (fun acc (i, md) ->
        let before = if traced_pass then Some (snapshot ()) else None in
        let pr, t = timed (fun () -> process md) in
        check_repeat tally first i md pr;
        (match before with
        | None -> ()
        | Some b ->
            let after = snapshot () in
            add_deltas totals b after;
            let instrs = delta b after "amsvp_sf_compiled_instrs_total" in
            let r = pr.report in
            let core =
              if r.Flow.classes = 0 then 0.0
              else
                (float_of_int r.Flow.branches *. u.u_acq)
                +. (float_of_int r.Flow.classes *. u.u_enrich)
                +. (float_of_int r.Flow.definitions *. (u.u_asm +. u.u_solve))
            in
            explained :=
              !explained
              +. (match md.lang with `Vams -> u.u_vams | `Vhdl -> u.u_vhdl)
              +. core
              +. (float_of_int instrs *. u.u_compile)
              +. u.u_absint
              +. (float_of_int (List.length targets) *. u.u_emit);
            wall := !wall +. t;
            incr n_models);
        acc +. t)
      0.0
      (Array.mapi (fun i md -> (i, md)) models)
  in
  let plain = ref [] and traced = ref [] in
  ignore
    (until ~seconds:(cli.seconds *. 2.0 /. 3.0) ~min_iters:4 (fun k ->
         if k land 1 = 0 then plain := pass ~traced_pass:false :: !plain
         else begin
           Obs.enable ();
           traced := pass ~traced_pass:true :: !traced;
           Obs.disable ()
         end));
  verify tally models first;
  outcome tally
    (unit_metrics u
    @ count_metrics totals ~ops:!n_models
    @ [
        m "residual_pct" "%" (residual_pct ~wall:!wall ~explained:!explained);
        m "obs.tracing_overhead_pct" "%"
          (100.0 *. ((median (Array.of_list !traced) /. median (Array.of_list !plain)) -. 1.0));
      ])

(* This workload's layer figures for another workload's traced run:
   the stage unit costs over two seconds of the seeded batch. *)
let probe (cli : cli) (_ : tally) =
  unit_metrics (stage_units (batch ~seed:cli.seed) ~seconds:2.0)

(* Passes over the batch for [seconds], then the checks; every model's
   host time. *)
let timed_passes (cli : cli) tally (models, first) =
  let passes = ref [] in
  ignore
    (until ~seconds:cli.seconds (fun _ ->
         passes :=
           Array.mapi
             (fun i md ->
               let pr, t = timed (fun () -> process md) in
               check_repeat tally first i md pr;
               t)
             models
           :: !passes));
  verify tally models first;
  Array.concat !passes

let run (cli : cli) =
  let tally = tally () in
  if cli.trace then
    let models, first = setup ~seed:cli.seed () in
    traced cli tally models first
  else begin
    let model_s, setup_s, rss = with_setup ~reps:9 (setup ~seed:cli.seed) (timed_passes cli tally) in
    let model_ms = Array.map (fun t -> t *. 1e3) model_s in
    outcome tally
      [
        m "setup_s" "s" setup_s;
        m "ops_per_s" "1/s"
          (float_of_int (Array.length model_s) /. Array.fold_left ( +. ) 0.0 model_s);
        m "op_p50_ms" "ms" (median model_ms);
        m "op_p90_ms" "ms" (p90 ~what:"model latency" model_ms);
        m "peak_rss_mb" "MiB" rss;
      ]
  end
