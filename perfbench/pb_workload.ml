(* The workload table: each workload's definition, its fixed
   parameters and the one-line reason it is in the benchmark.

   Rates and latency limits are constants, fixed once from measurements
   of the seed commit on a 2-core host (see README.md) and then held,
   so that later commits are measured under the same load. *)

module T = Hr_core.Telemetry

type kind =
  | Serve of Pb_serve.cfg
  | Portfolio of Pb_portfolio.cfg
  | Replan of Pb_replan.cfg

type t = { name : string; why : string; kind : kind }

let serve_hot =
  {
    name = "serve-hot";
    why =
      "repeated wide switch cases after a warm-up pass: the hrserve warm path (parse, key, queue, \
       solve, serialize) with the oracle LRU hit";
    kind =
      Serve
        {
          Pb_serve.name = "serve-hot";
          distinct = 16;
          n = 192;
          zipf_s = 1.1;
          rate_rps = 12.;
          limit_ms = 48.;
          tail_p = 0.75;
          open_share = 0.15;
          seq_share = 0.5;
          closed_share = 0.2;
          setups = 5;
          salt = 11;
        };
  }

let solve_portfolio =
  {
    name = "solve-portfolio";
    why =
      "the full applicable solver portfolio raced per instance under a 400 ms deadline: contestants \
       do the work, parsing and serving almost none";
    kind =
      Portfolio
        {
          Pb_portfolio.name = "solve-portfolio";
          deadline_ms = 400;
          limit_ms = 440.;
          large_n = 1000;
          per_second = 2.;
          min_instances = Pb_stats.min_samples ~p:0.75;
          tail_p = 0.75;
          setups = 5;
          salt = 37;
        };
  }

let replan_extend =
  {
    name = "replan-extend";
    why =
      "incremental replanning over append-heavy event streams: Online_dp.extend on 11 of 12 \
       events, a cold re-solve on one demand change";
    kind =
      Replan
        {
          Pb_replan.name = "replan-extend";
          profile =
            {
              Hr_online.Events.append_heavy with
              Hr_online.Events.n0 = 40;
              events = 12;
              extend_k = 7;
            };
          limit_ms = 75.;
          per_second = 2.;
          min_streams = 20;
          cold_at = 6;
          check_every = 16;
          setups = 5;
          salt = 41;
        };
  }

(* Every workload, in the order BENCHMARK.json lists them. *)
let all = [ serve_hot; solve_portfolio; replan_extend ]

let find name = List.find_opt (fun w -> w.name = name) all

let params w ~seconds =
  match w.kind with
  | Serve c -> Pb_serve.params c
  | Portfolio c -> Pb_portfolio.params c ~seconds
  | Replan c -> Pb_replan.params c ~seconds

let run w ~hrserve ~outdir ~seed ~seconds ~traced =
  match w.kind with
  | Serve c -> Pb_serve.run c ~hrserve ~outdir ~seed ~seconds ~traced
  | Portfolio c -> Pb_portfolio.run c ~outdir ~seed ~seconds ~traced
  | Replan c -> Pb_replan.run c ~outdir ~seed ~seconds ~traced
