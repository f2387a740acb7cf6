(* perfbench: run one workload of the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--hrserve PATH] [--out DIR]

   Prints a metadata line (host, parameters, per-phase counts, details)
   and, as its last line, the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when
   an output check failed, 2 when the run could not be completed.
   perfbench/run.py builds the programs and calls this. *)

module T = Hr_core.Telemetry

let read_first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> try Some (String.trim (input_line ic)) with End_of_file -> None)

(* The commit of a git checkout, read from .git without running git. *)
let git_rev () =
  match read_first_line ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_first_line (Filename.concat ".git" r) with
      | Some rev -> rev
      | None -> "unknown (" ^ r ^ ")")
  | Some rev -> rev

(* CPU time stolen by the hypervisor, as a share of all CPU time, from
   the aggregate line of /proc/stat (0 where it is unavailable). *)
let cpu_ticks () =
  match read_first_line "/proc/stat" with
  | Some l when String.starts_with ~prefix:"cpu " l ->
      let xs = List.filter_map int_of_string_opt (String.split_on_char ' ' l) in
      (List.fold_left ( + ) 0 xs, match List.nth_opt xs 7 with Some s -> s | None -> 0)
  | _ -> (0, 0)

let steal_share (t0, s0) (t1, s1) = if t1 > t0 then float (s1 - s0) /. float (t1 - t0) else 0.

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "1e300"

let result_line ~correct ~attempted ~failed metrics =
  let m =
    String.concat ","
      (List.map
         (fun (name, unit, v) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (number v) unit)
         metrics)
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed m

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let hrserve = ref "_build/default/bin/hrserve.exe" and out = ref ".perfbench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--hrserve", Arg.Set_string hrserve, "PATH hrserve executable");
      ("--out", Arg.Set_string out, "DIR traces, server logs and results (default .perfbench_out)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match Pb_workload.find !workload with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.Pb_workload.name) Pb_workload.all));
      exit 2
  | Some w -> (
      if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
        prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
        exit 2
      end;
      (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let traced = !trace = 1 and secs = float !seconds in
      let t0 = Unix.gettimeofday () and ticks0 = cpu_ticks () in
      match Pb_workload.run w ~hrserve:!hrserve ~outdir:!out ~seed:!seed ~seconds:secs ~traced with
      | exception e ->
          Pb_client.kill_all ();
          Printf.eprintf "perfbench: %s: run broken: %s\n" w.Pb_workload.name (Printexc.to_string e);
          exit 2
      | r ->
          let attempted = Pb_result.attempted r and failed = Pb_result.failed r in
          let correct = failed = 0 && attempted > 0 in
          let meta =
            T.Obj
              [
                ("schema", T.String "perfbench.run/1");
                ("workload", T.String w.Pb_workload.name);
                ("why", T.String w.Pb_workload.why);
                ("seed", T.Int !seed);
                ("seconds", T.Int !seconds);
                ("trace", T.Int !trace);
                ( "host",
                  T.Obj
                    [
                      ("nproc", T.Int (Domain.recommended_domain_count ()));
                      ("ocaml", T.String Sys.ocaml_version);
                      ("git_rev", T.String (git_rev ()));
                      ("cpu_steal_share", T.Float (steal_share ticks0 (cpu_ticks ())));
                    ] );
                ("params", T.Obj (Pb_workload.params w ~seconds:secs));
                ("phases", T.List (List.map Pb_result.phase_json r.Pb_result.phases));
                ("wall_s", T.Float (Unix.gettimeofday () -. t0));
                ("info", T.Obj r.Pb_result.info);
                ("failed_checks", T.List (List.map (fun s -> T.String s) r.Pb_result.errors));
              ]
          in
          let meta_line = T.json_to_string meta in
          let result = result_line ~correct ~attempted ~failed r.Pb_result.metrics in
          let file =
            Filename.concat !out
              (Printf.sprintf "%s-seed%d-trace%d.result.json" w.Pb_workload.name !seed !trace)
          in
          let oc = open_out file in
          output_string oc meta_line;
          output_string oc result;
          output_string oc "\n";
          close_out oc;
          List.iter (fun e -> prerr_endline ("perfbench: failed check: " ^ e)) r.Pb_result.errors;
          print_string meta_line;
          print_endline result;
          exit (if correct then 0 else 1))
