(* The online replanning workload: what `hrevolve --strategy
   incremental` does — Replan.run over seeded append-heavy event
   streams, each event answered by extending the live Online_dp frontier
   or, when the event is not an extension, by a cold re-solve. *)

open Hr_core
module Online = Hr_online
module T = Telemetry

type cfg = {
  name : string;
  profile : Online.Events.profile;
  limit_ms : float;  (** latency limit of limit_met_share *)
  per_second : float;  (** streams per second of --seconds *)
  min_streams : int;
  cold_at : int;  (** event replaced by a demand change (a cold fallback) *)
  check_every : int;  (** every k-th replan is compared with a cold Full solve *)
  setups : int;
  salt : int;
}

let streams cfg ~seconds =
  max cfg.min_streams (int_of_float (Float.round (cfg.per_second *. seconds)))

let params cfg ~seconds =
  let p = cfg.profile in
  [
    ("strategy", T.String "incremental");
    ("streams", T.Int (streams cfg ~seconds));
    ("tasks", T.Int p.Online.Events.tasks);
    ("max_tasks", T.Int p.Online.Events.max_tasks);
    ("n0", T.Int p.Online.Events.n0);
    ("width", T.Int p.Online.Events.width);
    ("events", T.Int p.Online.Events.events);
    ("extend_k", T.Int p.Online.Events.extend_k);
    ("p_extend", T.Float p.Online.Events.p_extend);
    ("demand_change_at", T.Int cfg.cold_at);
    ("params", T.String "task-sequential reconfiguration uploads");
    ("limit_ms", T.Float cfg.limit_ms);
    ("check_every", T.Int cfg.check_every);
    ("setups", T.Int cfg.setups);
  ]

let config =
  {
    (Online.Replan.default_config Online.Replan.Incremental) with
    Online.Replan.params = Pb_inputs.replan_params;
  }

let gen cfg ~seed ~seconds =
  let rng = Pb_inputs.rng ~seed cfg.salt in
  Array.init (streams cfg ~seconds) (fun _ -> Pb_inputs.replan_stream rng cfg.profile ~cold_at:cfg.cold_at)

let now_ms = Pb_client.now_ms

let replay (init, stream) = Online.Replan.run config ~init stream

(* Checks of one replayed stream: every plan re-evaluated on a problem
   built here (sparse rung) equals its cost; every [check_every]-th
   replan (counted across the run by [tick]) equals a cold Full solve
   of the same instance. *)
let check cfg chk ~tick ~label (init, stream) (run : Online.Replan.run) =
  let snapshots =
    match Online.Event.replay ~init stream with
    | Ok l -> init :: l
    | Error e -> failwith ("Pb_replan: invalid stream: " ^ e)
  in
  List.map2
    (fun ts (r : Online.Replan.record) ->
      let bad msg =
        Pb_result.fail chk (Printf.sprintf "%s record %d: %s" label r.Online.Replan.index msg);
        false
      in
      incr tick;
      let sparse =
        Problem.of_task_set ~params:Pb_inputs.replan_params ~oracle:Interval_cost.Sparse ts
      in
      let v = Problem.eval sparse r.Online.Replan.plan in
      if v <> r.Online.Replan.cost then
        bad (Printf.sprintf "reported cost %d, plan evaluates to %d" r.Online.Replan.cost v)
      else if !tick mod cfg.check_every = 0 then begin
        let full =
          Online.Replan.run
            { config with Online.Replan.strategy = Online.Replan.Full }
            ~init:ts []
        in
        let c = full.Online.Replan.final_cost in
        if c <> r.Online.Replan.cost then
          bad (Printf.sprintf "cost %d, cold Full solve %d" r.Online.Replan.cost c)
        else true
      end
      else true)
    snapshots run.Online.Replan.records

(* Setup: generate the streams and replay the first one (warm-up). *)
let setup cfg ~seed ~seconds =
  let t0 = now_ms () in
  let streams = gen cfg ~seed ~seconds in
  ignore (replay streams.(0));
  (streams, now_ms () -. t0)

let records (run : Online.Replan.run) = Array.of_list run.Online.Replan.records

let run cfg ~outdir ~seed ~seconds ~traced =
  let setups = List.init cfg.setups (fun _ -> setup cfg ~seed ~seconds) in
  let streams = fst (List.hd setups) in
  let setup_ms = Array.of_list (List.map snd setups) in
  let chk = Pb_result.checker () and tick = ref 0 in
  if not traced then begin
    let t_start = now_ms () in
    let runs = Array.map replay streams in
    let wall_s = (now_ms () -. t_start) /. 1000. in
    let goods =
      Array.concat
        (Array.to_list
           (Array.mapi
              (fun i run ->
                Array.of_list (check cfg chk ~tick ~label:(Printf.sprintf "stream %d" i) streams.(i) run))
              runs))
    in
    let recs = Array.concat (Array.to_list (Array.map records runs)) in
    let lat = Array.map (fun (r : Online.Replan.record) -> r.Online.Replan.wall_ms) recs in
    let n = Array.length recs in
    let tail =
      match Pb_stats.tail ~p:0.95 lat with
      | Some v -> v
      | None -> failwith "too few replans for the tail percentile"
    in
    let count f = Array.fold_left (fun a x -> if x then a + 1 else a) 0 (Array.mapi f recs) in
    let correct = count (fun i _ -> goods.(i)) in
    let e2e =
      [
        ("setup_s", Pb_stats.median setup_ms /. 1000.);
        ("latency_p50_ms", Pb_stats.median lat);
        ("latency_tail_ms", tail);
        ( "limit_met_share",
          float (count (fun i r -> goods.(i) && r.Online.Replan.wall_ms <= cfg.limit_ms)) /. float n );
        ("capacity_rps", float correct /. wall_s);
        ( "plan_cost_sum",
          float (Array.fold_left (fun a (r : Online.Replan.run) -> a + r.Online.Replan.total_cost) 0 runs) );
        ("exact_share", float (count (fun _ r -> r.Online.Replan.exact)) /. float n);
      ]
    in
    {
      Pb_result.phases = [ { Pb_result.phase = "closed-loop"; sent = n; succeeded = correct; failed = n - correct } ];
      metrics = Pb_result.e2e e2e;
      info =
        [
          ("latency_samples", T.Int n);
          ("tail_percentile", T.Float 0.95);
          ("setup_ms", T.List (Array.to_list (Array.map (fun x -> T.Float x) setup_ms)));
          ("extended", T.Int (count (fun _ r -> r.Online.Replan.extended)));
          ("cold_checks", T.Int (!tick / cfg.check_every));
          ("peak_rss_mb", T.Float (Pb_client.own_peak_rss_mb ()));
        ];
      errors = Pb_result.messages chk;
    }
  end
  else begin
    (* Paired replay of the first half of the streams: untraced, then
       traced.  Replan.run is one call per stream; the per-event spans
       are laid end to end from the wall times Replan.run measures
       around each event's solve. *)
    let tr = Pb_trace.create () in
    let r = max 1 (Array.length streams / 2) in
    let all = ref [] and good = ref 0 and total = ref 0 in
    let untraced =
      Array.init r (fun k ->
          let t0 = now_ms () in
          ignore (replay streams.(k));
          let d = now_ms () -. t0 in
          let run =
            Pb_trace.span tr ~req:k "request" (fun root ->
                let a = now_ms () in
                let run = replay streams.(k) in
                let at = ref a in
                List.iter
                  (fun (x : Online.Replan.record) ->
                    let name = if x.Online.Replan.extended then "Online_dp.extend" else "Replan.cold" in
                    ignore
                      (Pb_trace.add tr ~parent:root ~req:k ~name ~t0:!at
                         ~t1:(!at +. x.Online.Replan.wall_ms) ());
                    at := !at +. x.Online.Replan.wall_ms)
                  run.Online.Replan.records;
                run)
          in
          List.iter
            (fun ok ->
              incr total;
              if ok then incr good)
            (check cfg chk ~tick ~label:(Printf.sprintf "stream %d" k) streams.(k) run);
          all := run :: !all;
          d)
    in
    let spans = Pb_trace.spans tr in
    let recs = Array.concat (List.map records !all) in
    let ms f =
      Array.of_list
        (List.filter_map
           (fun (x : Online.Replan.record) -> if f x then Some x.Online.Replan.wall_ms else None)
           (Array.to_list recs))
    in
    let ext = ms (fun x -> x.Online.Replan.extended) and cold = ms (fun x -> not x.Online.Replan.extended) in
    let rows =
      [
        ("replan.extend_ms.p50", Pb_stats.pct_or_zero ~p:0.5 ext);
        ("replan.extend_ms.p95", Pb_stats.pct_or_zero ~p:0.95 ext);
        ("replan.cold_ms.p50", Pb_stats.pct_or_zero ~p:0.5 cold);
        ("replan.extended_share", float (Array.length ext) /. float (Array.length recs));
      ]
      @ Pb_layers.trace_values ~root:"request" spans ~untraced_ms:untraced
      @ [ ("process.peak_rss_mb", Pb_client.own_peak_rss_mb ()) ]
    in
    let file = Filename.concat outdir (Printf.sprintf "%s-seed%d.trace.json" cfg.name seed) in
    Pb_trace.write_chrome file spans;
    {
      Pb_result.phases =
        [ { Pb_result.phase = "traced-replay"; sent = !total; succeeded = !good; failed = !total - !good } ];
      metrics = Pb_layers.complete rows;
      info =
        [
          ("trace_file", T.String file);
          ("replayed_streams", T.Int r);
          ("layers", Pb_layers.self_table spans);
        ];
      errors = Pb_result.messages chk;
    }
  end
