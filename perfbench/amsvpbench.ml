(* Entry point: run one workload and print its result as the last line
   of standard output (see README.md for the contract). *)

open Bench_util

let workloads =
  [
    ("vp_table3", (W_vp.run, W_vp.probe));
    ("sweep_mc", (W_sweep.run, W_sweep.probe));
    ("serve_mix", (W_serve.run, W_serve.probe));
    ("abstract_flow", (W_abstract.run, W_abstract.probe));
  ]

(* A traced run reports every layer's figures: those its workload does
   not measure in context come from the other workloads' probes. The
   probes' checks count towards the run's operations. *)
let complete (cli : cli) (o : outcome) =
  let tally = tally () in
  let have = Hashtbl.create 128 in
  List.iter (fun mt -> Hashtbl.replace have mt.name ()) o.metrics;
  let extra =
    List.concat_map
      (fun (name, (_, probe)) ->
        if name = cli.workload then []
        else
          List.filter
            (fun mt ->
              let fresh = not (Hashtbl.mem have mt.name) in
              Hashtbl.replace have mt.name ();
              fresh)
            (probe cli tally))
      workloads
  in
  let p = outcome tally [] in
  {
    attempted = o.attempted + p.attempted;
    failed = o.failed + p.failed;
    failures = o.failures @ p.failures;
    metrics = o.metrics @ extra;
  }

let () =
  let cli = parse_cli Sys.argv in
  let run, _ =
    match List.assoc_opt cli.workload workloads with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ cli.workload)
  in
  let o = run cli in
  let o = if cli.trace then complete cli o else o in
  List.iter (fun r -> prerr_endline ("FAILED: " ^ r)) o.failures;
  print_endline (result_line o)
