(* Per-layer unit costs, measured by calling each layer's public
   functions in a loop from the benchmark's own code. Nothing here
   reaches inside the library: the traced run multiplies these costs by
   the deltas of the program's amsvp_* counters to attribute a
   workload's wall time (see README.md). *)

open Bench_util
module Circuits = Amsvp_netlist.Circuits
module Sfprogram = Amsvp_sf.Sfprogram
module De = Amsvp_sysc.De
module Tdf = Amsvp_sysc.Tdf
module Iss = Amsvp_vp.Iss
module Bus = Amsvp_vp.Bus
module Asm = Amsvp_vp.Asm
module Engine = Amsvp_mna.Engine
module System = Amsvp_mna.System
module Matrix = Amsvp_mna.Matrix
module Sparse = Amsvp_mna.Sparse

(* ---- vp ---- *)

(* One retired instruction of an ALU-only loop (no data transfer), so
   the cost does not overlap vp.bus.transfer_ns. *)
let iss_instr_ns () =
  let bus = Bus.create () in
  Bus.Ram.attach bus ~base:0 ~size_words:1024;
  let image =
    Asm.assemble
      {|
loop:   addu $t2, $t2, $t1
        addiu $t1, $t1, 3
        srl  $t3, $t2, 3
        andi $t4, $t3, 255
        j    loop
|}
  in
  Bus.Ram.load bus ~base:0 image;
  let cpu = Iss.create ~pc:0 (Bus.iss_bus bus) in
  unit_ns ~iters:400_000 (fun () -> Iss.step cpu)

(* One bus read of the ADC sequence register, the firmware's polling
   access. *)
let bus_transfer_ns () =
  let bus = Bus.create () in
  let adc = Bus.Adc.attach bus ~base:0x1000_1000 in
  Bus.Adc.set_sample adc ~volts:0.5;
  let b = Bus.iss_bus bus in
  let sink = ref 0 in
  unit_ns ~iters:400_000 (fun () -> sink := !sink + b.Iss.read32 0x1000_1004)

(* One co-simulation channel exchange: the (time, values) packet is
   serialised and decoded, as over the lock-step co-simulation link. *)
let cosim_sync_ns () =
  let values = [| 0.25 |] in
  let sink = ref 0.0 in
  unit_ns ~iters:200_000 (fun () ->
      let packet = Marshal.to_string (1e-6, values) [] in
      let (t, v : float * float array) = Marshal.from_string packet 0 in
      sink := !sink +. t +. v.(0))

(* ---- sysc ---- *)

(* One timed wake-up of a self-rescheduling method process (its event
   pop, delta cycle and activation included). *)
let de_timed_notify_ns () =
  let n = 200_000 in
  let sample () =
    let k = De.create () in
    let ev = De.Event.create k "tick" in
    let p =
      De.spawn k ~name:"p" (fun () -> De.Event.notify_delayed ev ~delay_ps:1000)
    in
    De.Event.sensitize p ev;
    De.Event.notify_delayed ev ~delay_ps:1000;
    let (), t = timed (fun () -> De.run_until k ~ps:(n * 1000)) in
    t *. 1e9 /. float_of_int n
  in
  ignore (sample ());
  median (Array.init 5 (fun _ -> sample ()))

(* One extra delta cycle (with its activation) within a time step. *)
let de_delta_ns () =
  let n = 200_000 in
  let sample () =
    let k = De.create () in
    let ev = De.Event.create k "delta" in
    let left = ref n in
    let p =
      De.spawn k ~name:"p" (fun () ->
          decr left;
          if !left > 0 then De.Event.notify_delta ev)
    in
    De.Event.sensitize p ev;
    De.Event.notify_delayed ev ~delay_ps:1;
    let (), t = timed (fun () -> De.run k) in
    t *. 1e9 /. float_of_int n
  in
  ignore (sample ());
  median (Array.init 5 (fun _ -> sample ()))

(* One TDF cluster activation beyond the DE timed wake-up that
   triggers it: a one-module cluster's per-activation cost minus
   [timed_ns], so the two unit costs do not overlap. *)
let tdf_activation_ns ~timed_ns =
  let n = 100_000 in
  let sample () =
    let k = De.create () in
    let c = Tdf.create_cluster k ~name:"c" ~timestep_ps:1000 in
    let y = Tdf.port c "y" ~rate:1 in
    let x = ref 0.0 in
    ignore
      (Tdf.add_module c ~name:"src" ~reads:[] ~writes:[ y ] (fun () ->
           x := !x +. 1.0;
           Tdf.write y 0 !x));
    ignore
      (Tdf.add_module c ~name:"sink" ~reads:[ y ] ~writes:[] (fun () ->
           x := !x -. (0.5 *. Tdf.read y 0)));
    Tdf.start c ~until_ps:(n * 1000);
    let (), t = timed (fun () -> De.run_until k ~ps:(n * 1000)) in
    t *. 1e9 /. float_of_int n
  in
  ignore (sample ());
  median (Array.init 5 (fun _ -> sample ())) -. timed_ns

(* ---- signalflow ---- *)

(* Bytecode [Runner.step] of a compiled program, measured exactly as
   the bench harness's "engines" section does (same loop, same input
   toggling, best of five passes) so the two numbers are comparable. *)
let sf_step_ns (p : Sfprogram.t) =
  let compiled = Sfprogram.compile p in
  let runner = Sfprogram.Runner.create ~compiled p in
  let steps = 20_000 in
  let inputs = Array.make (max 1 (List.length p.Sfprogram.inputs)) 0.0 in
  let pass () =
    Sfprogram.Runner.reset runner;
    for i = 1 to steps do
      Array.fill inputs 0 (Array.length inputs)
        (if i land 31 < 16 then 0.0 else 1.0);
      Sfprogram.Runner.step runner ~inputs
    done
  in
  let best = ref infinity in
  for _ = 1 to 5 do
    let (), d = timed pass in
    if d < !best then best := d
  done;
  !best *. 1e9 /. float_of_int steps

(* ---- mna ---- *)

let stimulus_values (tc : Circuits.testcase) =
  let stims = Array.of_list (List.map snd tc.Circuits.stimuli) in
  fun step dst ->
    let t = float_of_int step *. 50e-9 in
    Array.iteri (fun i s -> dst.(i) <- s t) stims

(* One reporting step of the lock-step co-simulation stepper at
   [`Fast] fidelity, or of the in-kernel ELN stepper. *)
let stepper_ns kind (tc : Circuits.testcase) =
  let inputs = List.map fst tc.Circuits.stimuli in
  let ckt = tc.Circuits.circuit and output = tc.Circuits.output in
  let step =
    match kind with
    | `Cosim ->
        let s =
          Engine.Spice_stepper.create ~fidelity:`Fast ckt ~inputs ~output
            ~dt:50e-9
        in
        fun input_values -> ignore (Engine.Spice_stepper.step s ~input_values)
    | `Eln ->
        let s = Engine.Eln_stepper.create ckt ~inputs ~output ~dt:50e-9 in
        fun input_values -> ignore (Engine.Eln_stepper.step s ~input_values)
  in
  let values = Array.make (List.length inputs) 0.0 in
  let fill = stimulus_values tc in
  let i = ref 0 in
  unit_ns ~iters:20_000 (fun () ->
      incr i;
      fill !i values;
      step values)

type solver_units = {
  stamp_ns : float;  (** one device-evaluation pass (matrix stamp) *)
  rhs_ns : float;  (** one RHS build *)
  factor_ns : float;  (** dense LU with partial pivoting *)
  solve_ns : float;  (** dense triangular solve *)
  refactor_ns : float;  (** sparse numeric refactorisation, fixed pattern *)
}

(* The unit operations of one solver pass on the MNA system of a
   (probed) circuit at step [h]. *)
let mna_units circuit ~h =
  let sys = System.build circuit in
  let n = System.size sys in
  let iters = max 200 (400_000 / (n * n)) in
  let state = Array.make n 0.0 in
  let rhs = Array.make n 0.0 in
  let m = System.stamp_matrix ~state sys ~h in
  let lu = Matrix.lu_factor m in
  let triplets = System.stamp_triplets ~state sys ~h in
  let sym = Sparse.analyze ~n triplets in
  let input _ = 0.5 in
  {
    stamp_ns = unit_ns ~iters (fun () -> ignore (System.stamp_matrix ~state sys ~h));
    rhs_ns = unit_ns ~iters (fun () -> System.stamp_rhs sys ~h ~state ~input ~rhs);
    factor_ns = unit_ns ~iters (fun () -> ignore (Matrix.lu_factor m));
    solve_ns = unit_ns ~iters (fun () -> ignore (Matrix.lu_solve lu rhs));
    refactor_ns = unit_ns ~iters (fun () -> ignore (Sparse.refactor sym triplets));
  }

let mna_dim circuit = System.size (System.build circuit)
