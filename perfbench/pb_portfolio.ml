(* The solver-portfolio workload: what `hropt --method race` does per
   instance, one instance at a time (closed loop) — build the problem
   with Case.problem, then race every applicable registered solver
   under a shared deadline with Solver_registry.race_report. *)

open Hr_core
module Case = Hr_check.Case
module Budget = Hr_util.Budget
module T = Telemetry

type cfg = {
  name : string;
  deadline_ms : int;
  limit_ms : float;  (** latency limit of limit_met_share *)
  large_n : int;  (** length of the looped SHyRA phase traces *)
  per_second : float;  (** instances per second of --seconds *)
  min_instances : int;  (** keeps [tail_p] reportable *)
  tail_p : float;
  setups : int;
  salt : int;
}

let count cfg ~seconds =
  max cfg.min_instances (int_of_float (Float.round (cfg.per_second *. seconds)))

let params cfg ~seconds =
  [
    ("deadline_ms", T.Int cfg.deadline_ms);
    ("limit_ms", T.Float cfg.limit_ms);
    ("instances", T.Int (count cfg ~seconds));
    ( "multi_gen",
      T.String
        "m 1-3, n 40-80, local width 8; per twenty: 11 fully/partial, 2 fully/all-task, 2 each of \
         hypercontext, context, non-synchronized (partial)" );
    ("large_gen", T.String (Printf.sprintf "m=2, n=%d, at position 5 of every 20" cfg.large_n));
    ("tail_percentile", T.Float cfg.tail_p);
    ("setups", T.Int cfg.setups);
  ]

let gen cfg ~seed ~seconds =
  let rng = Pb_inputs.rng ~seed cfg.salt in
  Array.init (count cfg ~seconds) (Pb_inputs.portfolio_instance rng ~large_n:cfg.large_n)

let now_ms = Pb_client.now_ms

let race cfg problem =
  Solver_registry.race_report ~seed:Solver.default_seed
    ~budget:(Budget.of_deadline_ms cfg.deadline_ms) problem

(* The answer's checks: its plan re-evaluated on a problem built here on
   the sparse rung equals its cost, and every contestant that marks its
   plan exact is no worse than the cheapest plan any contestant found. *)
let check chk (inst : Pb_inputs.instance) (best : Solution.t) reports =
  let sparse = Case.problem ~oracle:Interval_cost.Sparse inst.Pb_inputs.case in
  let bad msg =
    Pb_result.fail chk (Printf.sprintf "%s: %s" inst.Pb_inputs.label msg);
    false
  in
  let sols = List.filter_map (fun (r : Solver.report) -> r.Solver.solution) reports in
  let lowest = List.fold_left (fun a s -> min a s.Solution.cost) max_int sols in
  let v = Problem.eval sparse best.Solution.bp in
  if v <> best.Solution.cost then
    bad (Printf.sprintf "reported cost %d, plan evaluates to %d" best.Solution.cost v)
  else
    match List.find_opt (fun s -> s.Solution.exact && s.Solution.cost > lowest) sols with
    | Some s ->
        bad
          (Printf.sprintf "%s marks cost %d exact, but a contestant found %d" s.Solution.solver
             s.Solution.cost lowest)
    | None -> true

(* Setup: generate the instance list and run one warm-up race. *)
let setup cfg ~seed ~seconds =
  let t0 = now_ms () in
  let insts = gen cfg ~seed ~seconds in
  ignore (race cfg (Case.problem insts.(0).Pb_inputs.case));
  (insts, now_ms () -. t0)

let run cfg ~outdir ~seed ~seconds ~traced =
  let setups = List.init cfg.setups (fun _ -> setup cfg ~seed ~seconds) in
  let insts = fst (List.hd setups) in
  let setup_ms = Array.of_list (List.map snd setups) in
  let chk = Pb_result.checker () in
  if not traced then begin
    let t_start = now_ms () in
    let results =
      Array.map
        (fun inst ->
          let t0 = now_ms () in
          let problem = Case.problem inst.Pb_inputs.case in
          let best, reports = race cfg problem in
          (inst, best, reports, now_ms () -. t0))
        insts
    in
    let wall_s = (now_ms () -. t_start) /. 1000. in
    let good = Array.map (fun (inst, best, reports, _) -> check chk inst best reports) results in
    let lat = Array.map (fun (_, _, _, ms) -> ms) results in
    let tail =
      match Pb_stats.tail ~p:cfg.tail_p lat with
      | Some v -> v
      | None -> failwith "too few instances for the tail percentile"
    in
    let n = Array.length results in
    let count f = Array.fold_left (fun a x -> if f x then a + 1 else a) 0 (Array.mapi (fun i r -> (i, r)) results) in
    let correct = count (fun (i, _) -> good.(i)) in
    let e2e =
      [
        ("setup_s", Pb_stats.median setup_ms /. 1000.);
        ("latency_p50_ms", Pb_stats.median lat);
        ("latency_tail_ms", tail);
        ("limit_met_share", float (count (fun (i, (_, _, _, ms)) -> good.(i) && ms <= cfg.limit_ms)) /. float n);
        ("capacity_rps", float correct /. wall_s);
        ("plan_cost_sum", float (Array.fold_left (fun a (_, b, _, _) -> a + b.Solution.cost) 0 results));
        ("exact_share", float (count (fun (_, (_, b, _, _)) -> b.Solution.exact)) /. float n);
      ]
    in
    {
      Pb_result.phases = [ { Pb_result.phase = "closed-loop"; sent = n; succeeded = correct; failed = n - correct } ];
      metrics = Pb_result.e2e e2e;
      info =
        [
          ("latency_samples", T.Int n);
          ("tail_percentile", T.Float cfg.tail_p);
          ("setup_ms", T.List (Array.to_list (Array.map (fun x -> T.Float x) setup_ms)));
          ( "instances",
            T.List
              (Array.to_list
                 (Array.map
                    (fun (inst, b, _, ms) ->
                      T.Obj
                        [
                          ("label", T.String inst.Pb_inputs.label);
                          ("ms", T.Float ms);
                          ("winner", T.String b.Solution.solver);
                          ("cost", T.Int b.Solution.cost);
                          ("exact", T.Bool b.Solution.exact);
                        ])
                    results)) );
          ("peak_rss_mb", T.Float (Pb_client.own_peak_rss_mb ()));
        ];
      errors = Pb_result.messages chk;
    }
  end
  else begin
    (* Paired replay of the first half of the list: each instance once
       untraced (Case.problem, then Solver.run_all over the registry as
       race_report runs it), then once with spans around Case.problem and
       each contestant of the same race. *)
    let tr = Pb_trace.create () in
    let sv = Pb_layers.solvers_create () and oracles = Pb_layers.oracles_create () in
    let r = max 1 (Array.length insts / 2) in
    let good = ref 0 in
    let untraced =
      Array.init r (fun k ->
          let inst = insts.(k) in
          let t0 = now_ms () in
          ignore
            (Solver.run_all ~seed:Solver.default_seed
               ~budget:(Budget.of_deadline_ms cfg.deadline_ms)
               (Solver_registry.all ()) (Case.problem inst.Pb_inputs.case));
          let d = now_ms () -. t0 in
          let problem, reports =
            Pb_trace.span tr ~req:k "request" (fun root ->
                let problem =
                  Pb_trace.span tr ~parent:root ~req:k "Case.problem" (fun _ ->
                      Case.problem inst.Pb_inputs.case)
                in
                ( problem,
                  Pb_trace.span tr ~parent:root ~req:k "Solver.run_all" (fun race ->
                      Pb_layers.run_all tr ~parent:race ~req:k
                        ~budget:(Budget.of_deadline_ms cfg.deadline_ms)
                        (Solver_registry.all ()) problem) ))
          in
          Pb_layers.record_oracle oracles problem;
          Pb_layers.record_race sv ~budget_ms:(float cfg.deadline_ms) reports;
          let best =
            Solution.best (List.filter_map (fun (rep : Solver.report) -> rep.Solver.solution) reports)
          in
          if check chk inst best reports then incr good;
          d)
    in
    let spans = Pb_trace.spans tr in
    let rows =
      Pb_layers.oracle_values oracles ~build_ms:(Pb_trace.durations spans "Case.problem")
      @ Pb_layers.solver_values sv
      @ Pb_layers.trace_values ~root:"request" spans ~untraced_ms:untraced
      @ [ ("process.peak_rss_mb", Pb_client.own_peak_rss_mb ()) ]
    in
    let file = Filename.concat outdir (Printf.sprintf "%s-seed%d.trace.json" cfg.name seed) in
    Pb_trace.write_chrome file spans;
    {
      Pb_result.phases = [ { Pb_result.phase = "traced-replay"; sent = r; succeeded = !good; failed = r - !good } ];
      metrics = Pb_layers.complete rows;
      info =
        [
          ("trace_file", T.String file);
          ("replayed_instances", T.Int r);
          ("layers", Pb_layers.self_table spans);
        ];
      errors = Pb_result.messages chk;
    }
  end
