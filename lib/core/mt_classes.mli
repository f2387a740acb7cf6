(** Planning under the paper's three machine classes (§3).

    The all-task planner is registered in {!Solver_registry} as
    ["all-task"]; new call sites should prefer the registry (see
    [docs/solvers.md]).

    On a fully synchronized machine the classes differ in which
    breakpoint matrices are admissible:

    - {b partially reconfigurable}: hyperreconfigurations can only be
      done for {e all} tasks at a time — admissible matrices have
      uniform columns (every column all-true or all-false);
    - {b partially hyperreconfigurable}: any matrix (the unconstrained
      problem solved by {!Mt_dp} / {!Mt_ga});
    - {b restricted partially hyperreconfigurable}: local
      hyperreconfigurations are per-task but reconfigurations are
      all-task — on the fully synchronized cost model of §4.2 every
      task reconfigures at every step anyway, so the admissible set
      (and the optimum) coincides with the unconstrained class; the
      distinction only bites on asynchronous machines.

    The all-task class collapses to a {e single-task} problem over the
    combined oracle (hyper cost = the §4 combination of all [v_j];
    per-step cost = the combination of the per-task block costs), so it
    is solved {e exactly} in O(m·n²) by the single-task DP — giving a
    certified reference point that quantifies how much partial
    hyperreconfiguration buys (the paper's central message). *)

type outcome = {
  cost : int;
  bp : Breakpoints.t;  (** uniform-column matrix *)
  breaks : int list;  (** the shared hyperreconfiguration steps *)
  cut_off : bool;  (** the budget ran out ({!St_opt.solve_oracle}) *)
}

(** [combined_oracle ?params oracle] is the single-task view of the
    all-task machine: [v = ] the §4 combination of all [v_j] and
    [step_cost lo hi = ] the combination of all tasks' block costs. *)
val combined_oracle : ?params:Sync_cost.params -> Interval_cost.t -> Interval_cost.t

(** [solve_all_task ?params ?budget oracle] — the exact optimum over
    uniform-column matrices, or, when [budget] runs out, the cut-off
    plan of {!St_opt.solve_oracle}.  [Sync_cost.eval ?params oracle
    outcome.bp = outcome.cost] holds either way (checked by the
    tests). *)
val solve_all_task :
  ?params:Sync_cost.params -> ?budget:Hr_util.Budget.t -> Interval_cost.t -> outcome

(** [advantage ?params ~rng oracle] returns
    [(all_task_cost, partial_cost)]: the exact all-task optimum versus
    the best plan the unconstrained optimizers find (GA polished by
    hill climbing).  [partial_cost <= all_task_cost] always — partial
    hyperreconfigurability only removes constraints. *)
val advantage :
  ?params:Sync_cost.params -> rng:Hr_util.Rng.t -> Interval_cost.t -> int * int
