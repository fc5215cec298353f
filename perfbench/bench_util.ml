(* Shared plumbing of the benchmark: command line, clocks, order
   statistics, counter snapshots, peak memory and the one-line JSON
   result printed last. *)

module Obs = Amsvp_obs.Obs

type cli = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  amsvp : string;  (** path of the built [amsvp] binary (serve_mix) *)
  bench_main : string;  (** path of the built [bench/main.exe] (self-check) *)
  work_dir : string;  (** scratch directory for sockets and result files *)
}

let usage =
  "amsvpbench --workload NAME --seed N --seconds S --trace 0|1 [--amsvp PATH] \
   [--bench-main PATH] [--work-dir DIR]"

let parse_cli argv =
  let rec go acc = function
    | [] -> acc
    | "--workload" :: v :: rest -> go { acc with workload = v } rest
    | "--seed" :: v :: rest -> go { acc with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { acc with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { acc with trace = v = "1" } rest
    | "--amsvp" :: v :: rest -> go { acc with amsvp = v } rest
    | "--bench-main" :: v :: rest -> go { acc with bench_main = v } rest
    | "--work-dir" :: v :: rest -> go { acc with work_dir = v } rest
    | a :: _ -> failwith (Printf.sprintf "unknown argument %S\n%s" a usage)
  in
  let cli =
    go
      {
        workload = "";
        seed = 0;
        seconds = 10.0;
        trace = false;
        amsvp = "";
        bench_main = "";
        work_dir = ".";
      }
      (List.tl (Array.to_list argv))
  in
  if cli.workload = "" || cli.seconds <= 0.0 then failwith usage;
  cli

(* ---- clock ---- *)

let now () = float_of_int (Obs.now_ns ()) *. 1e-9

let timed f =
  let t0 = Obs.now_ns () in
  let y = f () in
  (y, float_of_int (Obs.now_ns () - t0) *. 1e-9)

(* Run [f] until [seconds] have elapsed, at least [min_iters] times;
   every call completes (the deadline is checked between calls). *)
let until ~seconds ?(min_iters = 1) f =
  let deadline = now () +. seconds in
  let i = ref 0 in
  while !i < min_iters || now () < deadline do
    f !i;
    incr i
  done;
  !i

(* ---- order statistics ---- *)

(* Linear interpolation between closest ranks over a sorted copy. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* The highest reported percentile must leave at least ten samples
   beyond it; a run that collected too few fails loudly instead of
   printing an unsupported number. *)
let p90 ~what xs =
  if Array.length xs < 100 then
    failwith
      (Printf.sprintf "%s: %d samples, p90 needs at least 100" what
         (Array.length xs));
  quantile xs 0.9

(* [reps] timed repetitions of a body: the result of the last one and
   every repetition's time. *)
let repeat_timed ~reps f =
  let last = ref None in
  let times =
    Array.init reps (fun _ ->
        let y, t = timed f in
        last := Some y;
        t)
  in
  (Option.get !last, times)

let median_of ~reps f =
  let y, times = repeat_timed ~reps f in
  (y, median times)

(* Per-call cost of [f] in ns: [iters] calls per sample, median of
   seven samples after one warm-up sample. *)
let unit_ns ~iters f =
  let sample () =
    let (), t =
      timed (fun () ->
          for _ = 1 to iters do
            f ()
          done)
    in
    t *. 1e9 /. float_of_int iters
  in
  ignore (sample ());
  median (Array.init 7 (fun _ -> sample ()))

(* ---- metrics and program counters ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type counters = (string, int) Hashtbl.t

let snapshot () : counters =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (name, labels, v) ->
      if labels = [] then Hashtbl.replace h name v)
    (Obs.counter_values ());
  h

let delta (before : counters) (after : counters) name =
  let get h = Option.value (Hashtbl.find_opt h name) ~default:0 in
  get after - get before

(* Running totals of counter deltas over the traced operations. *)
let total (totals : counters) name =
  float_of_int (Option.value (Hashtbl.find_opt totals name) ~default:0)

(* The program counters every traced run reports, per operation of its
   workload (0 on a workload that leaves the layer idle). *)
let counted =
  [
    ("vp.instructions", "amsvp_vp_instructions_retired_total");
    ("vp.bus_transfers", "amsvp_vp_bus_transfers_total");
    ("vp.cosim_syncs", "amsvp_vp_cosim_syncs_total");
    ("sysc.de.delta_cycles", "amsvp_de_delta_cycles_total");
    ("sysc.de.timed_notifications", "amsvp_de_timed_notifications_total");
    ("sysc.tdf.activations", "amsvp_tdf_cluster_activations_total");
    ("signalflow.ticks", "amsvp_sf_ticks_total");
    ("signalflow.compiled_instrs", "amsvp_sf_compiled_instrs_total");
    ("mna.steps", "amsvp_mna_steps_total");
    ("mna.factorizations", "amsvp_mna_factorizations_total");
    ("mna.newton_passes", "amsvp_mna_device_evals_total");
  ]

(* Add the deltas of every counted counter between two snapshots to
   [totals]. *)
let add_deltas (totals : counters) before after =
  List.iter
    (fun (_, name) ->
      let v = delta before after name in
      Hashtbl.replace totals name (v + Option.value (Hashtbl.find_opt totals name) ~default:0))
    counted

(* Counter deltas accumulated in [totals], per operation. *)
let count_metrics (totals : counters) ~ops =
  List.map
    (fun (name, counter) -> m name "count" (total totals counter /. float_of_int (max 1 ops)))
    counted

(* Unlabelled counter samples of a Prometheus textfile (the one
   [amsvp serve --metrics-out] rewrites after each request). *)
let read_prometheus path : counters =
  let h = Hashtbl.create 64 in
  In_channel.with_open_text path In_channel.input_lines
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' && not (String.contains line '{') then
           match String.split_on_char ' ' line with
           | [ name; v ] -> (
               match int_of_string_opt v with
               | Some v -> Hashtbl.replace h name v
               | None -> ())
           | _ -> ());
  h

(* ---- memory ---- *)

let status_kb path key =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            let k = String.length key in
            if String.length line > k && String.sub line 0 k = key then
              Scanf.sscanf
                (String.sub line k (String.length line - k))
                " %d" Option.some
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  match status_kb (Printf.sprintf "/proc/%s/status" pid) "VmHWM:" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "peak_rss_mb: /proc status unavailable"

(* Set-up time of a timed run: half of [reps] set-ups before the
   measured part ([measure] gets the inputs of the last), half after
   it, and the median of them all. The host's speed drifts over tens of
   seconds, so set-ups sampled at both ends of the run move less from
   run to run than a burst at its start. Peak memory is read before the
   later set-ups. *)
let with_setup ~reps setup measure =
  let inp, before = repeat_timed ~reps:((reps + 1) / 2) setup in
  let result = measure inp in
  let rss = peak_rss_mb () in
  let _, after = repeat_timed ~reps:(reps / 2) setup in
  (result, median (Array.append before after), rss)

(* ---- result ---- *)

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;  (** first few reasons, echoed on stderr *)
  metrics : metric list;
}

(* A tally of checked operations. *)
type tally = {
  mutable t_attempted : int;
  mutable t_failed : int;
  mutable t_reasons : string list;
}

let tally () = { t_attempted = 0; t_failed = 0; t_reasons = [] }

(* One checked operation: counted once as attempted and at most once
   as failed, with the first failing check's reason. *)
let op t checks =
  t.t_attempted <- t.t_attempted + 1;
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | Some (_, reason) ->
      t.t_failed <- t.t_failed + 1;
      if List.length t.t_reasons < 8 then t.t_reasons <- Lazy.force reason :: t.t_reasons
  | None -> ()

let outcome t metrics =
  {
    attempted = t.t_attempted;
    failed = t.t_failed;
    failures = List.rev t.t_reasons;
    metrics;
  }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line o =
  List.iter
    (fun mt ->
      if not (Float.is_finite mt.value) then
        failwith (Printf.sprintf "metric %s is not finite" mt.name))
    o.metrics;
  let metrics =
    List.map
      (fun mt ->
        (* names and units are plain identifiers: no escaping needed *)
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mt.name
          (json_number mt.value) mt.unit_)
      o.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", " metrics)

(* Bit-exact float equality (NaN-safe, distinguishes signed zeros). *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let digest_floats (xs : float array) =
  let b = Bytes.create (8 * Array.length xs) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x)) xs;
  Digest.to_hex (Digest.bytes b)

(* Residual of an attribution: the share of [wall] the unit-cost model
   leaves unexplained, in percent (negative when over-explained). *)
let residual_pct ~wall ~explained = 100.0 *. (wall -. explained) /. wall

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Amsvp_util.Rng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
