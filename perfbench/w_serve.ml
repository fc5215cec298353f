(* serve_mix: the sweep service. `amsvp serve` with 2 forked point
   workers, driven over its Unix socket by one closed-loop client (the
   daemon serves one client at a time, so an open loop would only
   measure its own queue). The seeded stream alternates two request
   kinds:
   - warm resubmits of three small specs that stay in the daemon's
     prepared-sweep cache (8 entries): two short points each, reference
     off, so request overhead dominates;
   - cold submits of RCn ladders (n in 8..48, a seeded permutation
     walked in order) with a fresh seed, which pay Runner.prepare: the
     abstraction flow, compile, screen and expansion.
   The pattern W1 W2 C W3 W1 C W2 W3 C keeps at most four other specs
   between two uses of a warm spec, which a least-recently-used cache of
   8 entries would all keep. Each request is checked for a complete
   Done and point values equal to in-process Runner.run_point; a cold
   request must miss the cache. Whether a warm request hit the cache is
   read from the daemon's Stats after it and reported, not failed: the
   outputs are right either way (see README.md, known finding). *)

open Bench_util
module Circuits = Amsvp_netlist.Circuits
module Circuit = Amsvp_netlist.Circuit
module Spec = Amsvp_sweep.Spec
module Runner = Amsvp_sweep.Runner
module Client = Amsvp_serve.Client
module Protocol = Amsvp_serve.Protocol
module Rng = Amsvp_util.Rng

let points_per_request = 2
let t_stop = 2e-4

let spec ~circuit ~seed =
  let tc = Option.get (Circuits.by_name circuit) in
  let r1 = List.assoc "r1.r" (Circuit.params tc.Circuits.circuit) in
  {
    Spec.default with
    Spec.name = "bench_serve";
    circuit = Some circuit;
    t_stop = Some t_stop;
    samples = points_per_request;
    seed;
    reference = false;
    axes = [ { Spec.param = "r1.r"; range = Spec.Normal { mean = r1; sigma = 0.02 *. r1 } } ];
  }

(* ---- daemon lifecycle ---- *)

type daemon = { pid : int; client : Client.t }

let socket_path (cli : cli) = Filename.concat cli.work_dir "serve.sock"

let metrics_path (cli : cli) = Filename.concat cli.work_dir "serve.prom"

let start (cli : cli) ~obs =
  let sock = socket_path cli in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat cli.work_dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let args =
    [ cli.amsvp; "serve"; "--socket"; sock; "--workers"; "2" ]
    @
    if obs then [ "--obs"; "--metrics-out"; metrics_path cli; "--metrics-every"; "0" ]
    else []
  in
  let pid = Unix.create_process cli.amsvp (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  let deadline = now () +. 10.0 in
  let rec connect () =
    match Client.connect sock with
    | c -> c
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "amsvp serve exited during start-up");
        if now () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "amsvp serve did not come up"
        end;
        Unix.sleepf 0.002;
        connect ()
  in
  { pid; client = connect () }

let rec recv_until d pred =
  match Client.recv d.client with
  | Ok r when pred r -> r
  | Ok _ -> recv_until d pred
  | Error e -> failwith ("serve protocol: " ^ e)

let stop d =
  (try
     Client.send d.client Protocol.Shutdown;
     ignore (recv_until d (function Protocol.Bye -> true | _ -> false))
   with _ -> Unix.kill d.pid Sys.sigterm);
  Client.close d.client;
  ignore (Unix.waitpid [] d.pid)

let with_daemon cli ~obs f =
  let d = start cli ~obs in
  Fun.protect ~finally:(fun () -> stop d) (fun () -> f d)

let stats d =
  Client.send d.client Protocol.Stats;
  match recv_until d (function Protocol.Stats_reply _ -> true | _ -> false) with
  | Protocol.Stats_reply s -> s
  | _ -> assert false

let ping_us d =
  let (), t =
    timed (fun () ->
        Client.send d.client Protocol.Ping;
        ignore (recv_until d (function Protocol.Pong -> true | _ -> false)))
  in
  t *. 1e6

(* ---- the request stream ---- *)

type request = { kind : [ `Warm | `Cold ]; spec : Spec.t; text : string }

type inputs = {
  warm : request array;
  warm_expected : (float * float) array array;  (** per warm spec, per point *)
  cold_sizes : int array;
  rng : Rng.t;
}

let warm_circuits = [| "RC4"; "OA"; "RECT" |]

let request kind spec = { kind; spec; text = Spec.to_string spec }

(* In-process reference values of a spec's points. *)
let expected_values spec =
  let tc = Result.get_ok (Runner.resolve spec) in
  let ctx = Runner.prepare spec tc in
  Array.map
    (fun p ->
      let r = Runner.run_point ctx p in
      (r.Runner.out_final, r.Runner.out_rms))
    (Runner.ctx_points ctx)

let make_inputs ~seed =
  let rng = Rng.derive seed ~stream:5 in
  let warm =
    Array.map
      (fun circuit -> request `Warm (spec ~circuit ~seed:(Rng.int rng ~bound:1_000_000)))
      warm_circuits
  in
  {
    warm;
    warm_expected = Array.map (fun r -> expected_values r.spec) warm;
    cold_sizes = shuffle rng (Array.init 41 (fun i -> 8 + i));
    rng;
  }

(* Requests come in cycles of W W C: two warm resubmits (walking the
   three warm specs in turn), then one cold submit. *)
let cycle = 3

let nth_request inp i =
  if i mod cycle < 2 then inp.warm.((i - (i / cycle)) mod Array.length inp.warm)
  else
    let n = inp.cold_sizes.((i / cycle) mod Array.length inp.cold_sizes) in
    request `Cold
      (spec ~circuit:(Printf.sprintf "RC%d" n) ~seed:(Rng.int inp.rng ~bound:1_000_000))

type reply = {
  req : request;
  latency_s : float;
  points : Runner.point_result list;
  ok : bool;  (** ended in a complete Done with the expected point count *)
  ctx_hit : bool;  (** served from the daemon's prepared-sweep cache *)
}

(* One request, timed from send to its Done; a Stats round trip after
   it (outside the clock) tells whether the daemon's cache served it. *)
let submit d req =
  let points = ref [] in
  let on_event = function
    | Protocol.Point { result; _ } -> points := result :: !points
    | _ -> ()
  in
  let hits0 = (stats d).Protocol.st_ctx_hits in
  let res, latency_s = timed (fun () -> Client.submit d.client ~spec_text:req.text ~on_event ()) in
  let ctx_hit = (stats d).Protocol.st_ctx_hits > hits0 in
  let ok =
    match res with
    | Ok (Protocol.Done { points = n; complete; _ }) ->
        complete && n = points_per_request && List.length !points = n
    | _ -> false
  in
  { req; latency_s; points = !points; ok; ctx_hit }

let values_match expected (points : Runner.point_result list) =
  List.for_all
    (fun (r : Runner.point_result) ->
      let f, rms = expected.(r.Runner.point.Amsvp_sweep.Sampler.index) in
      same_bits f r.Runner.out_final && same_bits rms r.Runner.out_rms)
    points

(* Every request ends in Done with its points; warm points equal the
   in-process values at once, a seeded sample of cold requests is
   re-run in process afterwards, outside the clock. *)
let check_reply tally inp (cold_sample : reply list ref) rp =
  let common = (rp.ok, lazy ("request did not complete: " ^ rp.req.spec.Spec.name)) in
  match rp.req.kind with
  | `Warm ->
      let i = ref 0 in
      Array.iteri (fun j w -> if w.text = rp.req.text then i := j) inp.warm;
      op tally
        [
          common;
          ( values_match inp.warm_expected.(!i) rp.points,
            lazy "warm request: point values differ from in-process run_point" );
        ]
  | `Cold ->
      op tally [ common; (not rp.ctx_hit, lazy "cold request hit the cache") ];
      if List.length !cold_sample < 12 then cold_sample := rp :: !cold_sample

let verify_cold tally cold_sample =
  List.iter
    (fun rp ->
      op tally
        [
          ( values_match (expected_values rp.req.spec) rp.points,
            lazy "cold request: point values differ from in-process run_point" );
        ])
    cold_sample

(* Closed loop for [seconds], in whole blocks of three cycles. *)
let drive tally inp d ~seconds =
  let cold_sample = ref [] in
  let replies = ref [] in
  let i = ref 0 in
  ignore
    (until ~seconds (fun _ ->
         for _ = 1 to 3 * cycle do
           replies := submit d (nth_request inp !i) :: !replies;
           incr i
         done));
  List.iter (check_reply tally inp cold_sample) !replies;
  verify_cold tally !cold_sample;
  Array.of_list !replies

(* Requests per second of request time (the Stats probes between
   requests are outside it). *)
let rate replies =
  float_of_int (Array.length replies)
  /. Array.fold_left (fun a rp -> a +. rp.latency_s) 0.0 replies

(* Warm the daemon's cache with the three warm specs. *)
let prime d inp = Array.iter (fun r -> ignore (submit d r)) inp.warm

let timed_run (cli : cli) tally =
  let inp = make_inputs ~seed:cli.seed in
  (* Set-up: daemon start-up to a primed cache, as with_setup samples
     it (the stop is outside the clock): 11 before the measured
     requests and 10 after them. *)
  let setups n =
    Array.init n (fun _ ->
        let d, t = timed (fun () -> let d = start cli ~obs:false in prime d inp; d) in
        stop d;
        t)
  in
  let before = setups 11 in
  let replies, rss =
    with_daemon cli ~obs:false (fun d ->
        prime d inp;
        let replies = drive tally inp d ~seconds:cli.seconds in
        (replies, peak_rss_mb ~pid:(string_of_int d.pid) ()))
  in
  let setup_s = median (Array.append before (setups 10)) in
  let request_ms = Array.map (fun rp -> rp.latency_s *. 1e3) replies in
  outcome tally
    [
      m "setup_s" "s" setup_s;
      m "ops_per_s" "1/s" (rate replies);
      m "op_p50_ms" "ms" (median request_ms);
      m "op_p90_ms" "ms" (p90 ~what:"request latency" request_ms);
      m "peak_rss_mb" "MiB" rss;
    ]

(* The service's layer figures, from [seconds] of the request stream
   against a daemon started with --obs (span recording in the daemon,
   telemetry shipped by the workers): the round trip of a ping, a warm
   request's latency beyond its points' wall times, worker forks per
   request, the cache's hit share, and the program counters' deltas per
   request from the daemon's metrics textfile (the workers' counters
   reach it with their telemetry). Returns them with the request rate
   and the attribution residual. *)
let layer_run (cli : cli) tally inp ~seconds =
  with_daemon cli ~obs:true (fun d ->
      prime d inp;
      let ping = median (Array.init 200 (fun _ -> ping_us d)) in
      let s0 = stats d in
      let c0 = read_prometheus (metrics_path cli) in
      let replies = drive tally inp d ~seconds in
      let s1 = stats d in
      let c1 = read_prometheus (metrics_path cli) in
      let totals = Hashtbl.create 16 in
      add_deltas totals c0 c1;
      (* The daemon's request count includes the Stats probes; divide
         by the submits. *)
      let n_req = Array.length replies in
      let hits = s1.Protocol.st_ctx_hits - s0.Protocol.st_ctx_hits in
      let misses = s1.Protocol.st_ctx_misses - s0.Protocol.st_ctx_misses in
      let point_s rp =
        List.fold_left (fun a (r : Runner.point_result) -> a +. r.Runner.wall_s) 0.0 rp.points
      in
      let overhead_ms =
        median
          (Array.of_list
             (List.filter_map
                (fun rp ->
                  if rp.req.kind = `Warm then Some ((rp.latency_s -. point_s rp) *. 1e3)
                  else None)
                (Array.to_list replies)))
      in
      (* Attribution: a round trip, the points spread over the two
         workers, and for a request the cache missed the in-process
         cost of preparing and screening its spec (measured once per
         circuit). *)
      let prepare_s = Hashtbl.create 41 in
      let prepare_cost (s : Spec.t) =
        let key = Option.get s.Spec.circuit in
        match Hashtbl.find_opt prepare_s key with
        | Some t -> t
        | None ->
            let tc = Result.get_ok (Runner.resolve s) in
            let _, t =
              median_of ~reps:3 (fun () -> ignore (Runner.screen (Runner.prepare s tc)))
            in
            Hashtbl.add prepare_s key t;
            t
      in
      let explained, wall =
        Array.fold_left
          (fun (e, w) rp ->
            let prep = if rp.ctx_hit then 0.0 else prepare_cost rp.req.spec in
            (e +. (ping *. 1e-6) +. (point_s rp /. 2.0) +. prep, w +. rp.latency_s))
          (0.0, 0.0) replies
      in
      ( [
          m "serve.ping_rtt_us" "us" ping;
          m "serve.request_overhead_ms" "ms" overhead_ms;
          m "serve.spawned_per_request" "count"
            (float_of_int (s1.Protocol.st_spawned - s0.Protocol.st_spawned)
            /. float_of_int n_req);
          m "serve.ctx_hit_ratio" "ratio" (float_of_int hits /. float_of_int (hits + misses));
        ]
        @ count_metrics totals ~ops:n_req,
        rate replies,
        residual_pct ~wall ~explained ))

(* Traced run: half the time against a plain daemon, half against one
   started with --obs; the per-layer figures come from the traced
   half. *)
let traced_run (cli : cli) tally =
  let inp = make_inputs ~seed:cli.seed in
  let half = cli.seconds /. 2.0 in
  let plain_rate =
    with_daemon cli ~obs:false (fun d ->
        prime d inp;
        rate (drive tally inp d ~seconds:half))
  in
  let layers, traced_rate, residual = layer_run cli tally inp ~seconds:half in
  outcome tally
    (layers
    @ [
        m "residual_pct" "%" residual;
        m "obs.tracing_overhead_pct" "%" (100.0 *. ((plain_rate /. traced_rate) -. 1.0));
      ])

(* This workload's layer figures for another workload's traced run:
   two seconds of the request stream. *)
let probe (cli : cli) tally =
  let layers, _, _ = layer_run cli tally (make_inputs ~seed:cli.seed) ~seconds:2.0 in
  layers

let run (cli : cli) =
  let tally = tally () in
  if cli.trace then traced_run cli tally else timed_run cli tally
