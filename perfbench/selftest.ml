(* The benchmark's own tests.  Run from the repository root:

     python3 perfbench/run.py --self-test

   - the same seed gives byte-identical request lines (and another seed
     different ones);
   - a tail percentile is only reported with >= 10 samples beyond it;
   - open-loop latency is timed from each request's due time: a stub
     server that stalls once inflates the requests due during the stall,
     and the generator's lateness is measured;
   - the sequential phase sends one request at a time, and at least
     its minimum count;
   - every metric name and unit is well-formed, and BENCHMARK.json
     lists exactly the metrics and workloads main.exe prints. *)

module T = Hr_core.Telemetry

let failures = ref 0

let test name f =
  match f () with
  | () -> Printf.printf "ok   %s\n%!" name
  | exception e ->
      incr failures;
      Printf.printf "FAIL %s: %s\n%!" name (Printexc.to_string e)

let require what cond = if not cond then failwith what

(* ------------------------------------------------------------------ *)

let all_lines ~seed ~seconds =
  List.concat_map
    (fun w ->
      match w.Pb_workload.kind with
      | Pb_workload.Serve c ->
          Pb_serve.request_lines (Pb_serve.gen c ~seed ~seconds) ~pooled:50
      | Pb_workload.Portfolio c ->
          Array.to_list
            (Array.map (fun i -> Hr_check.Case.to_string i.Pb_inputs.case) (Pb_portfolio.gen c ~seed ~seconds))
      | Pb_workload.Replan c ->
          Array.to_list
            (Array.map
               (fun (init, stream) -> T.json_to_string (Hr_online.Event.stream_to_json ~init stream))
               (Pb_replan.gen c ~seed ~seconds)))
    Pb_workload.all

let determinism () =
  let a = all_lines ~seed:7 ~seconds:2. and b = all_lines ~seed:7 ~seconds:2. in
  require "same number of lines" (List.length a = List.length b);
  require "byte-identical lines" (List.for_all2 String.equal a b);
  let c = all_lines ~seed:8 ~seconds:2. in
  require "another seed changes the inputs" (not (List.equal String.equal a c))

(* ------------------------------------------------------------------ *)

let tail_rule () =
  let samples n = Array.init n (fun i -> float (i + 1)) in
  require "p95 undefined at 199 samples" (Pb_stats.tail ~p:0.95 (samples 199) = None);
  require "p95 at 200 samples is the 190th" (Pb_stats.tail ~p:0.95 (samples 200) = Some 190.);
  require "10 beyond p95 at 200" (Pb_stats.beyond ~p:0.95 200 = 10);
  require "p75 undefined at 39" (Pb_stats.tail ~p:0.75 (samples 39) = None);
  require "p75 defined at 40" (Pb_stats.tail ~p:0.75 (samples 40) = Some 30.);
  require "min_samples p95 = 200" (Pb_stats.min_samples ~p:0.95 = 200);
  require "min_samples p90 = 100" (Pb_stats.min_samples ~p:0.90 = 100);
  require "min_samples p75 = 40" (Pb_stats.min_samples ~p:0.75 = 40);
  require "median of 1..5" (Pb_stats.median (samples 5) = 3.);
  (* Four blocks of 40 whose medians are 20.5 + 100 b: the first
     quartile over the blocks is the first block's. *)
  let blocks = Array.init 160 (fun i -> float ((i / 40 * 100) + (i mod 40) + 1)) in
  require "quiet p50 = first quartile of block medians"
    (Pb_stats.quiet ~block:40 ~p:0.5 blocks = Some 20.);
  require "quiet p75 with 10 beyond per block" (Pb_stats.quiet ~block:40 ~p:0.75 blocks = Some 30.);
  require "quiet p75 undefined on blocks of 39" (Pb_stats.quiet ~block:39 ~p:0.75 blocks = None);
  require "quiet undefined on three blocks" (Pb_stats.quiet ~block:40 ~p:0.5 (Array.sub blocks 0 159) = None);
  List.iter
    (fun w ->
      match w.Pb_workload.kind with
      | Pb_workload.Serve _ ->
          (* The sequential phase sends at least min_samples requests:
             see sequential_min_sent below. *)
          ()
      | Pb_workload.Portfolio c ->
          require "solve-portfolio solves enough instances for its tail"
            (Pb_portfolio.count c ~seconds:1. >= Pb_stats.min_samples ~p:c.Pb_portfolio.tail_p)
      | Pb_workload.Replan c ->
          let e = c.Pb_replan.profile.Hr_online.Events.events + 1 in
          require "replan-extend replans enough for p95"
            (Pb_replan.streams c ~seconds:1. * e >= 200))
    Pb_workload.all

(* ------------------------------------------------------------------ *)

(* A stub server: answers each request line on one connection at once,
   except that it sleeps [stall_ms] before answering request [stall_at]. *)
let stub_server sock ~stall_at ~stall_ms =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 4;
  Thread.create
    (fun () ->
      let fd, _ = Unix.accept lfd in
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      let rec go k =
        match input_line ic with
        | exception End_of_file -> ()
        | line ->
            if k = stall_at then Thread.delay (stall_ms /. 1000.);
            let id = Option.get (Pb_client.response_id line) in
            Printf.fprintf oc "{\"schema\":\"stub\",\"id\":%S,\"ok\":true}\n%!" id;
            go (k + 1)
      in
      go 0;
      Unix.close fd;
      Unix.close lfd)
    ()

let open_loop_due_time () =
  (try Unix.mkdir ".perfbench_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Filename.concat ".perfbench_out" (Printf.sprintf "selftest-%d.sock" (Unix.getpid ())) in
  let period = 20. and stall_at = 5 and stall_ms = 300. and count = 30 in
  let th = stub_server sock ~stall_at ~stall_ms in
  let ids = Array.init count (Printf.sprintf "r%d") in
  let lines = Array.map (fun id -> Printf.sprintf "{\"id\":%S}" id) ids in
  let offsets = Array.init count (fun i -> period *. float i) in
  let recs, _ = Pb_client.open_loop ~sock ~ids ~lines ~offsets ~drain_ms:5000. in
  Thread.join th;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let lat (r : Pb_client.record) = r.Pb_client.recv -. r.Pb_client.due in
  require "every request answered" (Array.for_all (fun r -> not (Float.is_nan r.Pb_client.recv)) recs);
  (* The stalled request and every request due before the stall ends
     (stall start + stall_ms) wait for it: their latency, counted from
     the due time, covers the rest of the stall. *)
  let stall_end = recs.(stall_at).Pb_client.due +. stall_ms in
  Array.iteri
    (fun i r ->
      if i >= stall_at && r.Pb_client.due < stall_end -. 5. then
        require
          (Printf.sprintf "request %d latency %.1f ms covers the stall" i (lat r))
          (lat r >= stall_end -. r.Pb_client.due -. 5.))
    recs;
  require "requests before the stall are fast" (lat recs.(0) < 100.);
  (* The generator kept its schedule during the stall (open loop): each
     request was sent near its due time, and the lateness is measured. *)
  let lateness = Array.map (fun r -> r.Pb_client.sent -. r.Pb_client.due) recs in
  require "lateness measured for every request" (Array.for_all Float.is_finite lateness);
  require "requests are never sent early" (Array.for_all (fun l -> l >= 0.) lateness);
  require
    (Printf.sprintf "sends stay on schedule (max lateness %.1f ms)" (Pb_stats.max_ lateness))
    (Pb_stats.max_ lateness < 50.)

(* The sequential phase (one connection, window 1) keeps sending past
   its duration until [min_sent] requests went out, and releases each
   request only when the previous response has been read. *)
let sequential_min_sent () =
  (try Unix.mkdir ".perfbench_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Filename.concat ".perfbench_out" (Printf.sprintf "selftest-seq-%d.sock" (Unix.getpid ())) in
  let th = stub_server sock ~stall_at:(-1) ~stall_ms:0. in
  let min_sent = Pb_stats.min_samples ~p:0.95 in
  let recs, _, _ =
    Pb_client.closed_loop ~sock ~conns:1 ~window:1 ~duration_ms:0. ~min_sent ~drain_ms:5000.
      ~next_line:(fun k ->
        let id = Printf.sprintf "s%d" k in
        Some (id, Printf.sprintf "{\"id\":%S}" id))
  in
  Thread.join th;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  require (Printf.sprintf "%d requests sent, want %d" (Array.length recs) min_sent)
    (Array.length recs = min_sent);
  require "every request answered" (Array.for_all (fun r -> not (Float.is_nan r.Pb_client.recv)) recs);
  Array.iteri
    (fun i (r : Pb_client.record) ->
      if i > 0 then
        require (Printf.sprintf "request %d released before response %d was read" i (i - 1))
          (r.Pb_client.due >= recs.(i - 1).Pb_client.recv))
    recs

(* ------------------------------------------------------------------ *)

let name_ok s =
  s <> "" && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false) s

let unit_ok u =
  u <> "" && String.length u <= 16
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
       u

let metric_names () =
  let e2e = List.map (fun (n, u, _) -> (n, u)) Pb_result.end_to_end in
  List.iter
    (fun (n, u) ->
      require ("bad metric name " ^ n) (name_ok n);
      require ("bad unit " ^ u) (unit_ok u))
    (e2e @ Pb_layers.catalogue);
  let names = List.map fst (e2e @ Pb_layers.catalogue) in
  require "metric names unique" (List.length (List.sort_uniq compare names) = List.length names);
  require "at most 128 per-layer metrics" (List.length Pb_layers.catalogue <= 128);
  List.iter (fun w -> require ("bad workload name " ^ w.Pb_workload.name) (name_ok w.Pb_workload.name)) Pb_workload.all;
  (* BENCHMARK.json, when run from the repository root, must list what
     main.exe prints. *)
  if Sys.file_exists "BENCHMARK.json" then begin
    let ic = open_in_bin "BENCHMARK.json" in
    let doc = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let j = Result.get_ok (T.json_of_string doc) in
    let names key =
      match j with
      | T.Obj fs -> (
          match List.assoc_opt key fs with
          | Some (T.List l) ->
              List.map (function T.Obj o -> (match List.assoc "name" o with T.String s -> s | _ -> "") | _ -> "") l
          | _ -> [])
      | _ -> []
    in
    require "BENCHMARK.json end_to_end = main.exe's" (names "end_to_end" = List.map fst e2e);
    require "BENCHMARK.json per_layer = main.exe's" (names "per_layer" = List.map fst Pb_layers.catalogue);
    require "BENCHMARK.json workloads = Pb_workload.all"
      (names "workloads" = List.map (fun w -> w.Pb_workload.name) Pb_workload.all)
  end

let () =
  test "same seed, byte-identical request lines" determinism;
  test "tail percentile needs 10 samples beyond it" tail_rule;
  test "open-loop latency runs from the due time" open_loop_due_time;
  test "the sequential phase sends min_sent requests one at a time" sequential_min_sent;
  test "metric names and units are well-formed" metric_names;
  if !failures > 0 then exit 1
