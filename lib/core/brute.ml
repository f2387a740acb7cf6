let single ~v ~n ~step_cost =
  if n < 1 then invalid_arg "Brute.single: n must be >= 1";
  if n > 20 then invalid_arg "Brute.single: instance too large to enumerate";
  let best_cost = ref max_int and best_breaks = ref [ 0 ] in
  for mask = 0 to (1 lsl (n - 1)) - 1 do
    let breaks =
      0 :: List.filter_map (fun i -> if mask land (1 lsl (i - 1)) <> 0 then Some i else None)
             (List.init (n - 1) (fun k -> k + 1))
    in
    let cost = St_opt.cost_of_breaks ~v ~n ~step_cost breaks in
    if cost < !best_cost then begin
      best_cost := cost;
      best_breaks := breaks
    end
  done;
  { St_opt.cost = !best_cost; breaks = !best_breaks; cut_off = false }

(* The enumeration-space size in bits, machine-class aware: the
   all-task class admits only uniform-column matrices, so one shared
   row of n-1 free bits covers the whole space however many tasks the
   instance has. *)
let bits p =
  let m = Problem.m p and n = Problem.n p in
  match p.Problem.machine_class with
  | Problem.All_task -> n - 1
  | Problem.Partial | Problem.Restricted -> (n - 1) * m

let default_max_bits = 24

let feasible ?(max_bits = default_max_bits) p = bits p <= max_bits

let solve p =
  let m = Problem.m p and n = Problem.n p in
  let free = bits p in
  if free > default_max_bits then
    invalid_arg "Brute.solve: instance too large to enumerate";
  let all_task = p.Problem.machine_class = Problem.All_task in
  let best_cost = ref max_int in
  let best = ref (Breakpoints.create ~m ~n) in
  for mask = 0 to (1 lsl free) - 1 do
    let raw =
      if all_task then
        let row = Array.init n (fun i -> i = 0 || mask land (1 lsl (i - 1)) <> 0) in
        Array.init m (fun _ -> Array.copy row)
      else
        Array.init m (fun j ->
            Array.init n (fun i ->
                i = 0 || mask land (1 lsl ((j * (n - 1)) + i - 1)) <> 0))
    in
    let bp = Breakpoints.of_matrix raw in
    let cost = Problem.eval p bp in
    if cost < !best_cost then begin
      best_cost := cost;
      best := bp
    end
  done;
  (!best_cost, !best)

let multi ?params (oracle : Interval_cost.t) =
  let m = oracle.Interval_cost.m and n = oracle.Interval_cost.n in
  let bits = (n - 1) * m in
  if bits > 24 then invalid_arg "Brute.multi: instance too large to enumerate";
  let best_cost = ref max_int in
  let best = ref (Breakpoints.create ~m ~n) in
  for mask = 0 to (1 lsl bits) - 1 do
    let raw =
      Array.init m (fun j ->
          Array.init n (fun i ->
              i = 0 || mask land (1 lsl ((j * (n - 1)) + i - 1)) <> 0))
    in
    let bp = Breakpoints.of_matrix raw in
    let cost = Sync_cost.eval ?params oracle bp in
    if cost < !best_cost then begin
      best_cost := cost;
      best := bp
    end
  done;
  (!best_cost, !best)
