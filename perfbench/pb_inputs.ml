(* Seeded input generation for every workload.

   Inputs are a pure function of (workload parameters, --seed): the
   same seed gives byte-identical request lines, instance lists and
   event streams.  The programs under test only ever see the generated
   inputs, never the seed. *)

open Hr_core
module Rng = Hr_util.Rng
module W = Hr_workload
module Case = Hr_check.Case

(* An independent stream per (seed, purpose), so adding a draw to one
   input never shifts another. *)
let rng ~seed salt = Rng.create ((seed * 1_000_003) + salt)
let sub rng = Rng.create (Rng.bits64 rng)

let case_of_task_set ?(params = Sync_cost.default_params)
    ?(mode = Mixed_sync.Fully_synchronized) ?(machine_class = Problem.Partial) ts =
  let m = Task_set.num_tasks ts in
  let task j = Task_set.get ts j in
  let widths =
    Array.init m (fun j -> Switch_space.size (Trace.space (task j).Task_set.trace))
  in
  let vs = Array.init m (fun j -> (task j).Task_set.v) in
  let reqs =
    Array.init m (fun j ->
        Array.to_list
          (Array.map Hr_util.Bitset.to_list (Trace.reqs (task j).Task_set.trace)))
  in
  { Case.spec = Case.Switch { widths; vs; reqs }; params; mode; machine_class; place = None }

(* ------------------------------------------------------------------ *)
(* Serving inputs: wide sparse switch cases.                           *)

type switch_params = { width : int; density : float }

(* Every fourth serving case is of the all-task machine class, where
   the all-task DP is exact; the rest are partial-class cases that
   only the heuristics answer. *)
let serve_class i = if i mod 4 = 3 then Problem.All_task else Problem.Partial

(* A two-task Multi_gen switch case over [width] switches per task. *)
let switch_case rng { width; density } ~n ~machine_class =
  let spec =
    {
      W.Multi_gen.default_spec with
      W.Multi_gen.m = 2;
      n;
      local_sizes = [| width; width |];
      density;
    }
  in
  case_of_task_set ~machine_class (W.Multi_gen.independent rng spec)

(* Zipf(s) over k items: cumulative weights for inverse-CDF draws. *)
let zipf_cdf ~k ~s =
  let w = Array.init k (fun i -> 1. /. (float (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw rng cdf =
  let u = Rng.float rng in
  let rec go i = if i >= Array.length cdf - 1 || u <= cdf.(i) then i else go (i + 1) in
  go 0

(* Poisson arrivals: due offsets (ms from phase start) of [count]
   requests at [rate] per second. *)
let poisson_offsets rng ~rate ~count =
  let t = ref 0. in
  Array.init count (fun _ ->
      let u = Float.max 1e-12 (1. -. Rng.float rng) in
      t := !t +. (-.log u /. rate *. 1000.);
      !t)

(* ------------------------------------------------------------------ *)
(* Solver-portfolio instances.                                         *)

type instance = { label : string; case : Case.t }

let modes =
  [|
    Mixed_sync.Fully_synchronized;
    Mixed_sync.Hypercontext_synchronized;
    Mixed_sync.Context_synchronized;
    Mixed_sync.Non_synchronized;
  |]

(* Instance [i] of the portfolio list.  Position 5 of every twenty is a
   looped SHyRA phase trace; the rest are Multi_gen instances cycling m
   over 1..3 and n over 40..80.  Per ten, the Multi_gen slots are six
   fully synchronized partial-class cases (five where the trace took
   one), one all-task-class case and one of each other synchronization
   mode. *)
let portfolio_instance rng ~large_n i =
  let r = sub rng in
  if i mod 20 = 5 then
    let ts = W.Large_gen.task_set ~seed:(Rng.bits64 r land 0xFFFFFF) ~steps:large_n ~tasks:2 () in
    { label = Printf.sprintf "large m=2 n=%d" large_n; case = case_of_task_set ts }
  else
    let m = 1 + (i mod 3) and n = 40 + (10 * (i / 3 mod 5)) in
    let spec =
      { W.Multi_gen.default_spec with W.Multi_gen.m; n; local_sizes = Array.make m 8 }
    in
    let ts = W.Multi_gen.independent r spec in
    let mode, machine_class =
      match i mod 10 with
      | 6 -> (Mixed_sync.Fully_synchronized, Problem.All_task)
      | 7 -> (modes.(1), Problem.Partial)
      | 8 -> (modes.(2), Problem.Partial)
      | 9 -> (modes.(3), Problem.Partial)
      | _ -> (Mixed_sync.Fully_synchronized, Problem.Partial)
    in
    {
      label =
        Printf.sprintf "multi m=%d n=%d %s %s" m n
          (match mode with
          | Mixed_sync.Fully_synchronized -> "fully"
          | Mixed_sync.Hypercontext_synchronized -> "hypercontext"
          | Mixed_sync.Context_synchronized -> "context"
          | Mixed_sync.Non_synchronized -> "non")
          (match machine_class with Problem.All_task -> "all-task" | _ -> "partial");
      case = case_of_task_set ~mode ~machine_class ts;
    }

(* ------------------------------------------------------------------ *)
(* Online replanning streams.                                          *)

(* Task-sequential reconfiguration uploads: the setting the extendable
   online DP is exact for (as in bench/online_bench.ml). *)
let replan_params =
  { Sync_cost.default_params with Sync_cost.reconf = Sync_cost.Task_sequential }

(* An append-heavy stream with exactly one cold fallback: the extend at
   position [cold_at] is replaced by a demand change (at the same time)
   to the first task's requirement at step n0/2, so every stream forces
   the same number of cold re-solves and only their content varies
   with the seed. *)
let replan_stream rng profile ~cold_at =
  let r = sub rng in
  let init, stream = Hr_online.Events.generate r profile in
  let name = (Task_set.get init 0).Task_set.name in
  let width = profile.Hr_online.Events.width in
  let req = Hr_util.Bitset.of_list width (List.filter (fun _ -> Rng.bool r) (List.init width Fun.id)) in
  let stream =
    List.mapi
      (fun i (e : Hr_online.Event.t) ->
        if i <> cold_at then e
        else
          {
            e with
            Hr_online.Event.payload =
              Hr_online.Event.Demand_change { task = name; step = profile.Hr_online.Events.n0 / 2; req };
          })
      stream
  in
  (init, stream)
