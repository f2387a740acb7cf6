(* The per-layer metric catalogue and the tallies that fill it.

   Every traced run prints every name below (BENCHMARK.json lists the
   same names); a layer a workload does not exercise reports 0.  Names
   follow the modules they measure. *)

open Hr_core

(* Contestants that run on some workload: the applicable portfolio of
   the solve-portfolio instances, which includes the serving pair
   greedy + all-task.  (brute never fits these sizes; online-dp is
   measured through the replan.* rows; place-* need placement cases.) *)
let solvers =
  [
    "st-dp"; "all-task"; "mt-dp"; "mt-beam"; "greedy"; "hill-climb"; "anneal";
    "ga"; "ga-polish"; "async-opt"; "mode-climb";
  ]

let solver_rows =
  [
    ("ms.p50", "ms"); ("ms.max", "ms"); ("wins", "count"); ("unique_wins", "count");
    ("cutoffs", "count"); ("crashed", "count"); ("overrun_ms.max", "ms");
  ]

let catalogue =
  [
    ("case.parse_ms.p50", "ms");
    ("case.parse_ms.p95", "ms");
    ("case.request_bytes", "bytes");
    ("case.malformed", "count");
    ("protocol.key_ms.p50", "ms");
    ("protocol.serialize_ms.p50", "ms");
    ("protocol.response_bytes", "bytes");
    ("server.queue_wait_ms.p50", "ms");
    ("server.queue_wait_ms.p95", "ms");
    ("server.batches", "count");
    ("server.batch_size.mean", "count");
    ("server.shed", "count");
    ("history.prefetch_builds", "count");
    ("history.prefetch_hits", "count");
    ("history.prefetch_useful_ratio", "ratio");
    ("batch.lru_hits", "count");
    ("batch.lru_misses", "count");
    ("batch.lru_hit_rate", "ratio");
    ("batch.lru_evictions", "count");
    ("batch.lru_bytes", "bytes");
    ("oracle.build_ms.p50", "ms");
    ("oracle.build_ms.p95", "ms");
    ("oracle.bytes", "bytes");
    ("oracle.dense", "count");
    ("oracle.sparse", "count");
    ("oracle.queries", "count");
  ]
  @ List.concat_map
      (fun s -> List.map (fun (m, u) -> (Printf.sprintf "solver.%s.%s" s m, u)) solver_rows)
      solvers
  @ [
      ("mt_dp.states", "count");
      ("replan.extend_ms.p50", "ms");
      ("replan.extend_ms.p95", "ms");
      ("replan.cold_ms.p50", "ms");
      ("replan.extended_share", "ratio");
      ("trace.request_ms.p50", "ms");
      ("trace.untraced_request_ms.p50", "ms");
      ("trace.overhead_ms.p50", "ms");
      ("trace.unattributed_ms.mean", "ms");
      ("process.peak_rss_mb", "MiB");
    ]

(* Which way is better for a per-layer figure: more hits, wins and
   batching are better; time, bytes, misses and wasted work are worse. *)
let better name =
  let higher =
    [ ".wins"; ".unique_wins"; "hit_rate"; "useful_ratio"; "prefetch_hits"; "lru_hits";
      "batch_size.mean"; "extended_share"; "oracle.dense" ]
  in
  if List.exists (fun suffix -> String.ends_with ~suffix name) higher then "higher" else "lower"

(* [complete values] is the catalogue in order, each name with its value
   from [values] or 0. *)
let complete values =
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value (List.assoc_opt name values) ~default:0.))
    catalogue

(* ------------------------------------------------------------------ *)
(* Solver contestants.                                                 *)

type tally = {
  mutable ms : float list;
  mutable wins : int;
  mutable unique_wins : int;
  mutable cutoffs : int;
  mutable crashed : int;
  mutable overrun : float;
}

type solvers = { tallies : (string, tally) Hashtbl.t; mutable states : int }

let solvers_create () = { tallies = Hashtbl.create 16; states = 0 }

let tally t name =
  match Hashtbl.find_opt t.tallies name with
  | Some x -> x
  | None ->
      let x = { ms = []; wins = 0; unique_wins = 0; cutoffs = 0; crashed = 0; overrun = 0. } in
      Hashtbl.replace t.tallies name x;
      x

(* Record one race: every contestant's report; [budget_ms] is the
   race's deadline, if any, for the overrun column. *)
let record_race t ?budget_ms (reports : Solver.report list) =
  let costs =
    List.filter_map
      (fun (r : Solver.report) ->
        Option.map (fun s -> (r.Solver.solver, s.Solution.cost)) r.Solver.solution)
      reports
  in
  let best = List.fold_left (fun a (_, c) -> min a c) max_int costs in
  let winners = List.filter (fun (_, c) -> c = best) costs in
  List.iter
    (fun (r : Solver.report) ->
      let x = tally t r.Solver.solver in
      x.ms <- r.Solver.wall_ms :: x.ms;
      (match r.Solver.outcome with
      | Solver.Cut_off -> x.cutoffs <- x.cutoffs + 1
      | Solver.Crashed _ -> x.crashed <- x.crashed + 1
      | Solver.Finished -> ());
      (match budget_ms with
      | Some b -> x.overrun <- Float.max x.overrun (r.Solver.wall_ms -. b)
      | None -> ());
      if List.mem_assoc r.Solver.solver winners then begin
        x.wins <- x.wins + 1;
        if List.length winners = 1 then x.unique_wins <- x.unique_wins + 1
      end;
      match r.Solver.solution with
      | Some s when r.Solver.solver = "mt-dp" -> (
          match List.assoc_opt "states" s.Solution.stats with
          | Some v -> t.states <- t.states + int_of_string v
          | None -> ())
      | _ -> ())
    reports

let solver_values t =
  ("mt_dp.states", float t.states)
  :: Hashtbl.fold
       (fun name x acc ->
         let ms = Array.of_list x.ms in
         let k m = Printf.sprintf "solver.%s.%s" name m in
         (k "ms.p50", Pb_stats.pct_or_zero ~p:0.5 ms)
         :: (k "ms.max", Pb_stats.max_ ms)
         :: (k "wins", float x.wins)
         :: (k "unique_wins", float x.unique_wins)
         :: (k "cutoffs", float x.cutoffs)
         :: (k "crashed", float x.crashed)
         :: (k "overrun_ms.max", x.overrun)
         :: acc)
       t.tallies []

(* Solver.run_all with every contestant timed: the contestants of
   [solvers] that handle [problem] run in parallel as in Solver.run_all
   (same seed, shared [budget]); each becomes a span, on its own lane,
   under [parent] in [tr]. *)
let run_all tr ~parent ~req ?budget solvers problem =
  let timed =
    Hr_util.Par.map_array
      (fun s ->
        let a = Pb_trace.now_ms () in
        let r = Solver.solve_report ~seed:Solver.default_seed ?budget s problem in
        (r, a, Pb_trace.now_ms ()))
      (Array.of_list (List.filter (fun (s : Solver.t) -> s.Solver.handles problem) solvers))
  in
  Array.iteri
    (fun k ((r : Solver.report), t0, t1) ->
      ignore (Pb_trace.add tr ~parent ~lane:(k + 1) ~req ~name:r.Solver.solver ~t0 ~t1 ()))
    timed;
  Array.to_list (Array.map (fun (r, _, _) -> r) timed)

(* ------------------------------------------------------------------ *)
(* Oracles.                                                            *)

type oracles = { mutable built : Interval_cost.t list }

let oracles_create () = { built = [] }
let record_oracle t (p : Problem.t) = t.built <- p.Problem.oracle :: t.built

let oracle_values t ~build_ms =
  let stats = List.map Interval_cost.cache_stats t.built in
  let count kind = List.length (List.filter (fun s -> s.Interval_cost.kind = kind) stats) in
  [
    ("oracle.build_ms.p50", Pb_stats.pct_or_zero ~p:0.5 build_ms);
    ("oracle.build_ms.p95", Pb_stats.pct_or_zero ~p:0.95 build_ms);
    ( "oracle.bytes",
      Pb_stats.mean (Array.of_list (List.map (fun s -> float s.Interval_cost.bytes_resident) stats)) );
    ("oracle.dense", float (count "dense"));
    ("oracle.sparse", float (count "sparse"));
    ( "oracle.queries",
      float (List.fold_left (fun a s -> a + s.Interval_cost.queries) 0 stats) );
  ]

(* ------------------------------------------------------------------ *)
(* Self-time accounting of a traced replay.                            *)

(* [trace_values ~root spans ~untraced_ms] — the request-level rows of a
   paired replay, where request [k] ran once untraced ([untraced_ms.(k)])
   and once as the root span [root] with request id [k]: the medians of
   the traced and untraced request times and of their per-request
   difference (the tracing overhead; a median, so that the few long,
   deadline-bound requests do not swamp it), and the mean root self time
   (time inside a request that no layer span covers). *)
let trace_values ~root spans ~untraced_ms =
  let roots = List.filter (fun s -> s.Pb_trace.name = root) spans in
  let traced = Array.make (Array.length untraced_ms) nan in
  List.iter (fun s -> traced.(s.Pb_trace.req) <- Pb_trace.dur s) roots;
  let selfs =
    Pb_trace.self_times spans
    |> List.filter_map (fun (s, self) -> if s.Pb_trace.name = root then Some self else None)
    |> Array.of_list
  in
  [
    ("trace.request_ms.p50", Pb_stats.median traced);
    ("trace.untraced_request_ms.p50", Pb_stats.median untraced_ms);
    ("trace.overhead_ms.p50", Pb_stats.median (Array.map2 ( -. ) traced untraced_ms));
    ("trace.unattributed_ms.mean", Pb_stats.mean selfs);
  ]

(* Per-layer breakdown of a trace: for each span name, calls, total and
   self time (ms). *)
let self_table spans =
  Hr_core.Telemetry.List
    (List.map
       (fun (name, calls, total, self) ->
         Hr_core.Telemetry.Obj
           [
             ("span", Hr_core.Telemetry.String name);
             ("calls", Hr_core.Telemetry.Int calls);
             ("total_ms", Hr_core.Telemetry.Float total);
             ("self_ms", Hr_core.Telemetry.Float self);
           ])
       (Pb_trace.by_name spans))
