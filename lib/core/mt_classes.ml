type outcome = { cost : int; bp : Breakpoints.t; breaks : int list; cut_off : bool }

let combined_oracle ?(params = Sync_cost.default_params) (oracle : Interval_cost.t) =
  let m = oracle.Interval_cost.m and n = oracle.Interval_cost.n in
  let v_all = Array.to_list oracle.Interval_cost.v in
  let v =
    match params.Sync_cost.hyper with
    | Sync_cost.Task_parallel -> List.fold_left max 0 v_all
    | Sync_cost.Task_sequential -> List.fold_left ( + ) 0 v_all
  in
  let step_cost _task lo hi =
    let per_task = Array.init m (fun j -> oracle.Interval_cost.step_cost j lo hi) in
    match params.Sync_cost.reconf with
    | Sync_cost.Task_parallel -> Array.fold_left max params.Sync_cost.pub per_task
    | Sync_cost.Task_sequential -> Array.fold_left ( + ) params.Sync_cost.pub per_task
  in
  Interval_cost.make ~m:1 ~n ~v:[| v |] ~step_cost

let solve_all_task ?(params = Sync_cost.default_params) ?budget (oracle : Interval_cost.t) =
  let combined = combined_oracle ~params oracle in
  let r = St_opt.solve_oracle ?budget combined ~task:0 in
  let bp =
    Breakpoints.of_rows ~m:oracle.Interval_cost.m ~n:oracle.Interval_cost.n
      (Array.make oracle.Interval_cost.m r.St_opt.breaks)
  in
  (* The single-task objective counts w once per break; the multi-task
     evaluation adds params.w once on top, so align by re-evaluating. *)
  let cost = Sync_cost.eval ~params oracle bp in
  { cost; bp; breaks = r.St_opt.breaks; cut_off = r.St_opt.cut_off }

let advantage ?params ~rng oracle =
  let all_task = solve_all_task ?params oracle in
  let ga = Mt_ga.solve ?params ~seeds:[ all_task.bp ] ~rng oracle in
  let polished = Mt_local.solve ?params ~init:ga.Mt_ga.bp oracle in
  (all_task.cost, polished.Mt_local.cost)
