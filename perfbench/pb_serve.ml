(* The serving workload: hrserve as a child process on a Unix socket,
   driven by this process over at most two connections.

   A run: generate the request lines from the seed; start the server
   [setups] times (each time until it accepts, plus one warm-up pass
   over the distinct cases) and keep the last one; an open-loop phase
   (Poisson arrivals at a fixed rate, latency timed from each request's
   due time: the generator's lateness and the server's queue wait); a
   sequential phase (one connection, each request sent as soon as the
   previous response is read: the latency figures and the share within
   the latency limit); a closed-loop saturation phase (two connections,
   a fixed window in flight on each: the capacity); then read the peak
   RSS, stop the server and check every response.

   The traced run does the same and then replays the first sequential
   requests in process through the layers hrserve calls, paired: each
   request once without spans, once with. *)

open Hr_core
module Case = Hr_check.Case
module Protocol = Hr_serve.Protocol
module T = Telemetry
module C = Pb_client

type cfg = {
  name : string;
  distinct : int;  (** distinct cases *)
  n : int;  (** trace length of every case *)
  zipf_s : float;  (** popularity skew over the distinct cases *)
  rate_rps : float;  (** open-loop arrival rate *)
  limit_ms : float;  (** latency limit of limit_met_share *)
  tail_p : float;  (** percentile of latency_tail_ms *)
  open_share : float;  (** share of --seconds spent in the open loop *)
  seq_share : float;  (** share of --seconds spent in the sequential phase *)
  closed_share : float;  (** share of --seconds spent in the closed loop *)
  setups : int;  (** server starts per run; setup_s is their median *)
  salt : int;
}

(* Wide sparse switch cases: cheap to parse, costly to build an oracle
   for, quick to solve — the regime where the oracle cache matters. *)
let switch = { Pb_inputs.width = 2048; density = 0.02 }

(* The latency figures come from the sequential phase, cut into blocks
   of [seq_block] consecutive requests: each is the first quartile over
   the blocks of the block's percentile (Pb_stats.quiet).  The phase
   runs until at least [Pb_stats.min_blocks] blocks are complete. *)
let seq_block = 40

(* The closed loop: two connections, four requests in flight on each.
   Completions in its first [closed_warm_ms] (at most half the phase)
   are not counted: the rate climbs there while the server's queue
   fills. *)
let closed_conns = 2
let closed_window = 4
let closed_warm_ms = 1000.

(* Sequential and closed-loop requests drawn per run, each (more than
   any run sends). *)
let pool = 100_000

(* At least this many open-loop requests, so the queue-wait figures
   rest on that many samples. *)
let min_open = 50

(* Sequential requests the traced run replays in process. *)
let replay = 100

(* Both deterministic and free of deadlines, so costs repeat exactly. *)
let solvers = [ "greedy"; "all-task" ]
let server_solver_args = List.concat_map (fun s -> [ "--solver"; s ]) solvers

let params cfg =
  [
    ("distinct", T.Int cfg.distinct);
    ("m", T.Int 2);
    ("n", T.Int cfg.n);
    ("width", T.Int switch.Pb_inputs.width);
    ("density", T.Float switch.Pb_inputs.density);
    ("all_task_class_every", T.Int 4);
    ("zipf_s", T.Float cfg.zipf_s);
    ("open_loop_rate_rps", T.Float cfg.rate_rps);
    ("limit_ms", T.Float cfg.limit_ms);
    ("tail_percentile", T.Float cfg.tail_p);
    ("open_share", T.Float cfg.open_share);
    ("seq_share", T.Float cfg.seq_share);
    ("closed_share", T.Float cfg.closed_share);
    ("closed_conns", T.Int closed_conns);
    ("closed_window", T.Int closed_window);
    ("server_args", T.List (List.map (fun a -> T.String a) server_solver_args));
    ("setups", T.Int cfg.setups);
    ("solvers", T.List (List.map (fun s -> T.String s) solvers));
  ]

(* ------------------------------------------------------------------ *)
(* Inputs.                                                             *)

type inputs = {
  cases : Case.t array;
  bodies : string array;  (** canonical case JSON, one line *)
  open_cases : int array;  (** case index of each open-loop request *)
  offsets : float array;  (** due offsets of the open-loop requests, ms *)
  seq_cases : int array;  (** case index of each sequential request *)
  closed_cases : int array;  (** case index of each closed-loop request *)
}

let open_count cfg ~seconds =
  max min_open (int_of_float (Float.round (cfg.rate_rps *. cfg.open_share *. seconds)))

let gen cfg ~seed ~seconds =
  let count = open_count cfg ~seconds in
  let rng_cases = Pb_inputs.rng ~seed cfg.salt
  and rng_pick = Pb_inputs.rng ~seed (cfg.salt + 1)
  and rng_arrival = Pb_inputs.rng ~seed (cfg.salt + 2) in
  let offsets = Pb_inputs.poisson_offsets rng_arrival ~rate:cfg.rate_rps ~count in
  let cases =
    (* Per-case generators are drawn in order, the cases built in parallel. *)
    Hr_util.Par.map_array
      (fun (i, r) -> Pb_inputs.switch_case r switch ~n:cfg.n ~machine_class:(Pb_inputs.serve_class i))
      (Array.init cfg.distinct (fun i -> (i, Pb_inputs.sub rng_cases)))
  in
  let cdf = Pb_inputs.zipf_cdf ~k:cfg.distinct ~s:cfg.zipf_s in
  let draws k = Array.init k (fun _ -> Pb_inputs.zipf_draw rng_pick cdf) in
  let open_cases = draws count in
  let seq_cases = draws pool in
  let closed_cases = draws pool in
  let bodies = Hr_util.Par.map_array (fun c -> String.trim (Case.to_string c)) cases in
  { cases; bodies; open_cases; offsets; seq_cases; closed_cases }

let line inputs ~id ci = Printf.sprintf "{\"id\":%S,\"case\":%s}" id inputs.bodies.(ci)

(* The request lines a run sends, in order (warm-up, open loop, the
   first [pooled] sequential and closed-loop requests) — for the
   determinism test. *)
let request_lines inputs ~pooled =
  let first prefix cases =
    List.init (min pooled (Array.length cases)) (fun k ->
        line inputs ~id:(Printf.sprintf "%s%d" prefix k) cases.(k))
  in
  Array.to_list (Array.mapi (fun i _ -> line inputs ~id:(Printf.sprintf "w%d" i) i) inputs.cases)
  @ Array.to_list (Array.mapi (fun k ci -> line inputs ~id:(Printf.sprintf "o%d" k) ci) inputs.open_cases)
  @ first "s" inputs.seq_cases
  @ first "c" inputs.closed_cases

(* ------------------------------------------------------------------ *)
(* Response parsing.                                                   *)

let field name = function T.Obj fs -> List.assoc_opt name fs | _ -> None

type answer = {
  rid : string;
  ok : bool;
  cost : int;
  exact : bool;
  plan : int list array;
  wall_ms : float;
  error : string;
}

let parse_answer line =
  match T.json_of_string line with
  | Error e -> Error ("unparseable response: " ^ e)
  | Ok j -> (
      let num = function
        | Some (T.Int i) -> float i
        | Some (T.Float f) -> f
        | _ -> nan
      in
      match (field "id" j, field "ok" j) with
      | Some (T.String rid), Some (T.Bool ok) ->
          let plan =
            match field "plan" j with
            | Some (T.List rows) ->
                Array.of_list
                  (List.map
                     (function
                       | T.List xs -> List.filter_map (function T.Int i -> Some i | _ -> None) xs
                       | _ -> [])
                     rows)
            | _ -> [||]
          in
          Ok
            {
              rid;
              ok;
              cost = (match field "cost" j with Some (T.Int c) -> c | _ -> -1);
              exact = field "exact" j = Some (T.Bool true);
              plan;
              wall_ms = num (field "wall_ms" j);
              error = (match field "error" j with Some (T.String e) -> e | _ -> "");
            }
      | _ -> Error "response without id/ok")

(* ------------------------------------------------------------------ *)
(* Checks.                                                             *)

type verdict = { answer : answer option; good : bool }

(* Check every record against its case.  Per distinct case (in
   parallel): the in-process race with the server's solvers and seed,
   and a problem built here on the sparse oracle rung — independent of
   the dense tables the server solved on — on which each returned plan
   is re-evaluated. *)
let check (chk : Pb_result.checker) inputs (recs : (C.record * int) array) =
  let answers =
    Array.map
      (fun ((r : C.record), ci) ->
        if r.C.response = "" then begin
          Pb_result.fail chk (Printf.sprintf "%s: no response" r.C.id);
          (ci, None)
        end
        else
          match parse_answer r.C.response with
          | Error e ->
              Pb_result.fail chk (Printf.sprintf "%s: %s" r.C.id e);
              (ci, None)
          | Ok a -> (ci, Some a))
      recs
  in
  let by_case = Hashtbl.create 64 in
  Array.iter
    (fun (ci, a) ->
      match a with
      | Some a when a.ok ->
          let plans = Option.value (Hashtbl.find_opt by_case ci) ~default:[] in
          if not (List.mem a.plan plans) then Hashtbl.replace by_case ci (a.plan :: plans)
      | _ -> ())
    answers;
  let work = Array.of_seq (Hashtbl.to_seq by_case) in
  let solved =
    Hr_util.Par.map_array
      (fun (ci, plans) ->
        let case = inputs.cases.(ci) in
        let race =
          Solver_registry.race ~seed:Solver.default_seed ~names:solvers (Case.problem case)
        in
        let sparse = Case.problem ~oracle:Hr_core.Interval_cost.Sparse case in
        let m = Problem.m sparse and n = Problem.n sparse in
        let evals =
          List.map
            (fun plan ->
              let v =
                match Breakpoints.of_rows ~m ~n plan with
                | bp ->
                    let uniform =
                      Array.for_all (fun row -> row = plan.(0)) plan
                      || case.Case.machine_class <> Problem.All_task
                    in
                    if uniform then Some (Problem.eval sparse bp) else None
                | exception Invalid_argument _ -> None
              in
              (plan, v))
            plans
        in
        (ci, (race.Solution.cost, evals)))
      work
  in
  let truth = Hashtbl.create 64 in
  Array.iter (fun (ci, x) -> Hashtbl.replace truth ci x) solved;
  Array.mapi
    (fun k (ci, a) ->
      let r, _ = recs.(k) in
      match a with
      | None -> { answer = None; good = false }
      | Some a ->
          let bad msg =
            Pb_result.fail chk (Printf.sprintf "%s: %s" r.C.id msg);
            { answer = Some a; good = false }
          in
          if not a.ok then bad ("not ok: " ^ a.error)
          else if a.rid <> r.C.id then bad ("id echoed as " ^ a.rid)
          else
            let race_cost, evals = Hashtbl.find truth ci in
            match List.assoc a.plan evals with
            | None -> bad "plan malformed or inadmissible for its class"
            | Some v when v <> a.cost ->
                bad (Printf.sprintf "reported cost %d, plan evaluates to %d" a.cost v)
            | Some _ when a.cost <> race_cost ->
                bad (Printf.sprintf "cost %d, in-process race %d" a.cost race_cost)
            | Some _ -> { answer = Some a; good = true })
    answers

(* ------------------------------------------------------------------ *)
(* The server run.                                                     *)

type server_run = {
  setup_ms : float array;
  warm : (C.record * int) array;
  opened : (C.record * int) array;
  seq : (C.record * int) array;
  closed : (C.record * int) array;
  closed_start : float;
  closed_stop : float;
  rss_mb : float;
  summary : T.json;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_server cfg ~hrserve ~outdir ~seconds inputs =
  let sock = Filename.concat outdir (cfg.name ^ ".sock")
  and summary = Filename.concat outdir (cfg.name ^ ".summary.json")
  and log = Filename.concat outdir (cfg.name ^ ".server.log") in
  let warm_pass () =
    let n = Array.length inputs.cases in
    let recs, _, _ =
      C.closed_loop ~sock ~conns:1 ~window:n ~duration_ms:60_000. ~min_sent:0 ~drain_ms:60_000.
        ~next_line:(fun k ->
          if k < n then
            let id = Printf.sprintf "w%d" k in
            Some (id, line inputs ~id k)
          else None)
    in
    Array.map (fun (r : C.record) -> (r, r.C.line_index)) recs
  in
  let setup_ms = Array.make cfg.setups 0. in
  let rec start k =
    let t0 = C.now_ms () in
    let srv = C.spawn ~exe:hrserve ~args:server_solver_args ~sock ~summary ~log in
    let warm = warm_pass () in
    setup_ms.(k) <- C.now_ms () -. t0;
    if k + 1 < cfg.setups then begin
      C.stop srv;
      start (k + 1)
    end
    else (srv, warm)
  in
  let srv, warm = start 0 in
  let pooled prefix cases k =
    if k < Array.length cases then
      let id = Printf.sprintf "%s%d" prefix k in
      Some (id, line inputs ~id cases.(k))
    else None
  in
  let count = Array.length inputs.open_cases in
  let ids = Array.init count (Printf.sprintf "o%d") in
  let lines = Array.mapi (fun k ci -> line inputs ~id:ids.(k) ci) inputs.open_cases in
  let orecs, _ = C.open_loop ~sock ~ids ~lines ~offsets:inputs.offsets ~drain_ms:30_000. in
  let srecs, _, _ =
    C.closed_loop ~sock ~conns:1 ~window:1 ~duration_ms:(cfg.seq_share *. seconds *. 1000.)
      ~min_sent:(Pb_stats.min_blocks * seq_block) ~drain_ms:30_000.
      ~next_line:(pooled "s" inputs.seq_cases)
  in
  let crecs, closed_start, closed_stop =
    C.closed_loop ~sock ~conns:closed_conns ~window:closed_window
      ~duration_ms:(cfg.closed_share *. seconds *. 1000.) ~min_sent:0 ~drain_ms:30_000.
      ~next_line:(pooled "c" inputs.closed_cases)
  in
  let rss_mb = C.peak_rss_mb srv.C.pid in
  C.stop srv;
  let summary =
    match T.json_of_string (read_file summary) with
    | Ok j -> j
    | Error _ | (exception Sys_error _) -> T.Null
  in
  {
    setup_ms;
    warm;
    opened = Array.mapi (fun k r -> (r, inputs.open_cases.(k))) orecs;
    seq = Array.map (fun (r : C.record) -> (r, inputs.seq_cases.(r.C.line_index))) srecs;
    closed = Array.map (fun (r : C.record) -> (r, inputs.closed_cases.(r.C.line_index))) crecs;
    closed_start;
    closed_stop;
    rss_mb;
    summary;
  }

(* ------------------------------------------------------------------ *)
(* In-process replay (traced run).                                     *)

type replayer = {
  tr : Pb_trace.t;
  memo : (string, Problem.t) Hashtbl.t;  (** stands in for the LRU *)
  sv : Pb_layers.solvers;
  oracles : Pb_layers.oracles;
  mutable malformed : int;
  mutable response_bytes : int list;
}

(* One request through the layers hrserve runs it through: parse, key,
   oracle (or the cache), each contestant, serialization.  With
   [traced = false] no span is recorded and no counter is touched. *)
let replay_one rp ~traced ~req ~id body =
  let sp ?(parent = 0) name f =
    if traced then Pb_trace.span rp.tr ~parent ~req name f else f 0
  in
  let t0 = C.now_ms () in
  sp "request" (fun root ->
      match sp ~parent:root "Case.of_string" (fun _ -> Case.of_string body) with
      | Error _ -> if traced then rp.malformed <- rp.malformed + 1
      | Ok case ->
          let key =
            sp ~parent:root "key" (fun _ ->
                Digest.to_hex (Digest.string (Case.to_string case)))
          in
          let problem =
            match Hashtbl.find_opt rp.memo key with
            | Some p -> p
            | None ->
                let p = sp ~parent:root "Case.problem" (fun _ -> Case.problem case) in
                if traced then Pb_layers.record_oracle rp.oracles p;
                Hashtbl.replace rp.memo key p;
                p
          in
          let contestants = List.map Solver_registry.find_exn solvers in
          let reports =
            if traced then
              sp ~parent:root "Solver.run_all" (fun race ->
                  Pb_layers.run_all rp.tr ~parent:race ~req contestants problem)
            else Solver.run_all ~seed:Solver.default_seed contestants problem
          in
          if traced then Pb_layers.record_race rp.sv reports;
          let sol =
            Solution.best (List.filter_map (fun (r : Solver.report) -> r.Solver.solution) reports)
          in
          let response =
            {
              Batch.id;
              outcome =
                Ok { Batch.solution = sol; reports; m = Problem.m problem; n = Problem.n problem };
              wall_ms = C.now_ms () -. t0;
            }
          in
          let out = sp ~parent:root "Protocol.response_line" (fun _ -> Protocol.response_line response) in
          if traced then rp.response_bytes <- String.length out :: rp.response_bytes)

(* ------------------------------------------------------------------ *)
(* Metrics.                                                            *)

let latency (r : C.record) = if Float.is_nan r.C.recv then infinity else r.C.recv -. r.C.due

let summary_int j path =
  let rec go j = function
    | [] -> ( match j with T.Int i -> float i | T.Float f -> f | _ -> 0.)
    | k :: rest -> ( match field k j with Some v -> go v rest | None -> 0.)
  in
  go j path

let run cfg ~hrserve ~outdir ~seed ~seconds ~traced =
  let t_gen = C.now_ms () in
  let inputs = gen cfg ~seed ~seconds in
  let t_server = C.now_ms () in
  let s = run_server cfg ~hrserve ~outdir ~seconds inputs in
  let t_check = C.now_ms () in
  let chk = Pb_result.checker () in
  let v = check chk inputs (Array.concat [ s.warm; s.opened; s.seq; s.closed ]) in
  let nw = Array.length s.warm and no = Array.length s.opened and ns = Array.length s.seq in
  let vw = Array.sub v 0 nw
  and vo = Array.sub v nw no
  and vs = Array.sub v (nw + no) ns
  and vc = Array.sub v (nw + no + ns) (Array.length s.closed) in
  let t_done = C.now_ms () in
  let phase name recs (v : verdict array) =
    let good = Array.fold_left (fun a x -> if x.good then a + 1 else a) 0 v in
    { Pb_result.phase = name; sent = Array.length recs; succeeded = good; failed = Array.length recs - good }
  in
  let phases =
    [
      phase "warmup" s.warm vw;
      phase "open-loop" s.opened vo;
      phase "sequential" s.seq vs;
      phase "closed-loop" s.closed vc;
    ]
  in
  let lat = Array.map (fun (r, _) -> latency r) s.seq in
  let quiet p =
    match Pb_stats.quiet ~block:seq_block ~p lat with
    | Some v -> v
    | None -> failwith "too few sequential samples for the latency figures"
  in
  let met = ref 0 in
  Array.iteri (fun k (r, _) -> if vs.(k).good && latency r <= cfg.limit_ms then incr met) s.seq;
  let counted_from = s.closed_start +. Float.min closed_warm_ms ((s.closed_stop -. s.closed_start) /. 2.) in
  let in_window = ref 0 in
  Array.iteri
    (fun k ((r : C.record), _) ->
      if vc.(k).good && r.C.recv > counted_from && r.C.recv <= s.closed_stop then incr in_window)
    s.closed;
  let capacity = float !in_window /. ((s.closed_stop -. counted_from) /. 1000.) in
  let first_answer = Hashtbl.create 64 in
  let note recs (v : verdict array) =
    Array.iteri
      (fun k (_, ci) ->
        match v.(k).answer with
        | Some a when v.(k).good && not (Hashtbl.mem first_answer ci) -> Hashtbl.replace first_answer ci a
        | _ -> ())
      recs
  in
  note s.warm vw;
  note s.opened vo;
  note s.seq vs;
  note s.closed vc;
  let distinct = List.init cfg.distinct Fun.id in
  let answered = List.filter_map (Hashtbl.find_opt first_answer) distinct in
  let cost_sum = List.fold_left (fun a x -> a + x.cost) 0 answered in
  let exact = List.length (List.filter (fun x -> x.exact) answered) in
  let lateness = Array.map (fun ((r : C.record), _) -> r.C.sent -. r.C.due) s.opened in
  let e2e =
    [
      ("setup_s", Pb_stats.median s.setup_ms /. 1000.);
      ("latency_p50_ms", quiet 0.5);
      ("latency_tail_ms", quiet cfg.tail_p);
      ("limit_met_share", float !met /. float (Array.length s.seq));
      ("capacity_rps", capacity);
      ("plan_cost_sum", float cost_sum);
      ("exact_share", float exact /. float (List.length distinct));
    ]
  in
  let info =
    [
      ("latency_samples", T.Int (Array.length lat));
      ("tail_percentile", T.Float cfg.tail_p);
      ("latency_blocks", T.Int (Array.length lat / seq_block));
      ( "sequential_latency_ms",
        T.Obj
          (List.map
             (fun (k, p) -> (k, T.Float (Pb_stats.percentile ~p lat)))
             [ ("p50", 0.5); ("p75", 0.75); ("p90", 0.90); ("p95", 0.95) ]) );
      ("generate_s", T.Float ((t_server -. t_gen) /. 1000.));
      ("server_s", T.Float ((t_check -. t_server) /. 1000.));
      ("check_s", T.Float ((t_done -. t_check) /. 1000.));
      ("setup_ms", T.List (Array.to_list (Array.map (fun x -> T.Float x) s.setup_ms)));
      ("open_loop_requests", T.Int (Array.length s.opened));
      ( "open_loop_latency_ms",
        let ol = Array.map (fun (r, _) -> latency r) s.opened in
        T.Obj [ ("p50", T.Float (Pb_stats.median ol)); ("p90", T.Float (Pb_stats.percentile ~p:0.9 ol)) ] );
      ("generator_lateness_ms_p50", T.Float (Pb_stats.median lateness));
      ("generator_lateness_ms_max", T.Float (Pb_stats.max_ lateness));
      ("closed_loop_completed_in_window", T.Int !in_window);
      ("closed_loop_pool_exhausted", T.Bool (Array.length s.closed >= pool));
      ("peak_rss_mb", T.Float s.rss_mb);
      ("server_summary", s.summary);
    ]
  in
  let metrics, info =
    if not traced then (Pb_result.e2e e2e, info)
    else begin
      (* Server-side layers, from the responses and the summary. *)
      let qwait =
        Array.of_list
          (List.filter_map
             (fun k ->
               let r, _ = s.opened.(k) in
               match vo.(k).answer with
               | Some a when not (Float.is_nan r.C.recv) -> Some (r.C.recv -. r.C.sent -. a.wall_ms)
               | _ -> None)
             (List.init (Array.length s.opened) Fun.id))
      in
      let sm = s.summary in
      let completed = summary_int sm [ "completed" ] and batches = summary_int sm [ "batches" ] in
      let builds = summary_int sm [ "lru_cache"; "prefetch_builds" ] in
      let server_rows =
        [
          ("server.queue_wait_ms.p50", Pb_stats.pct_or_zero ~p:0.5 qwait);
          ("server.queue_wait_ms.p95", Pb_stats.pct_or_zero ~p:0.95 qwait);
          ("server.batches", batches);
          ("server.batch_size.mean", if batches > 0. then completed /. batches else 0.);
          ("server.shed", summary_int sm [ "shed" ]);
          ("history.prefetch_builds", builds);
          ("history.prefetch_hits", summary_int sm [ "lru_cache"; "prefetch_hits" ]);
          ( "history.prefetch_useful_ratio",
            if builds > 0. then summary_int sm [ "lru_cache"; "prefetch_hits" ] /. builds else 0. );
          ("batch.lru_hits", summary_int sm [ "lru_cache"; "hits" ]);
          ("batch.lru_misses", summary_int sm [ "lru_cache"; "misses" ]);
          ("batch.lru_hit_rate", summary_int sm [ "lru_cache"; "hit_rate" ]);
          ("batch.lru_evictions", summary_int sm [ "lru_cache"; "evictions" ]);
          ("batch.lru_bytes", summary_int sm [ "lru_cache"; "bytes" ]);
        ]
      in
      (* In-process replay of the first sequential requests. *)
      let rp =
        {
          tr = Pb_trace.create ();
          memo = Hashtbl.create 16;
          sv = Pb_layers.solvers_create ();
          oracles = Pb_layers.oracles_create ();
          malformed = 0;
          response_bytes = [];
        }
      in
      (* Fill the stand-in cache first, as the warm-up pass fills the
         server's LRU. *)
      Array.iteri
        (fun i case ->
          Pb_trace.span rp.tr ~req:(-1 - i) "warmup" (fun root ->
              let p =
                Pb_trace.span rp.tr ~parent:root ~req:(-1 - i) "Case.problem" (fun _ -> Case.problem case)
              in
              Pb_layers.record_oracle rp.oracles p;
              Hashtbl.replace rp.memo (Digest.to_hex (Digest.string (Case.to_string case))) p))
        inputs.cases;
      let r = min replay (Array.length s.seq) in
      let untraced =
        Array.init r (fun k ->
            let ci = inputs.seq_cases.(k) in
            let id = Printf.sprintf "s%d" k in
            let a = C.now_ms () in
            replay_one rp ~traced:false ~req:k ~id inputs.bodies.(ci);
            let d = C.now_ms () -. a in
            replay_one rp ~traced:true ~req:k ~id inputs.bodies.(ci);
            d)
      in
      let spans = Pb_trace.spans rp.tr in
      let dur name = Pb_trace.durations spans name in
      let build_ms = dur "Case.problem" in
      let request_bytes =
        Pb_stats.mean
          (Array.init r (fun k ->
               float (String.length (line inputs ~id:(Printf.sprintf "s%d" k) inputs.seq_cases.(k)))))
      in
      let rows =
        server_rows
        @ [
            ("case.parse_ms.p50", Pb_stats.pct_or_zero ~p:0.5 (dur "Case.of_string"));
            ("case.parse_ms.p95", Pb_stats.pct_or_zero ~p:0.95 (dur "Case.of_string"));
            ("case.request_bytes", request_bytes);
            ("case.malformed", float rp.malformed);
            ("protocol.key_ms.p50", Pb_stats.pct_or_zero ~p:0.5 (dur "key"));
            ("protocol.serialize_ms.p50", Pb_stats.pct_or_zero ~p:0.5 (dur "Protocol.response_line"));
            ( "protocol.response_bytes",
              Pb_stats.mean (Array.of_list (List.map float rp.response_bytes)) );
          ]
        @ Pb_layers.oracle_values rp.oracles ~build_ms
        @ Pb_layers.solver_values rp.sv
        @ Pb_layers.trace_values ~root:"request" spans ~untraced_ms:untraced
        @ [ ("process.peak_rss_mb", s.rss_mb) ]
      in
      let file = Filename.concat outdir (Printf.sprintf "%s-seed%d.trace.json" cfg.name seed) in
      Pb_trace.write_chrome file spans;
      ( Pb_layers.complete rows,
        info
        @ [
            ("trace_file", T.String file);
            ("replayed_requests", T.Int r);
            ("layers", Pb_layers.self_table spans);
          ] )
    end
  in
  { Pb_result.phases; metrics; info; errors = Pb_result.messages chk }
