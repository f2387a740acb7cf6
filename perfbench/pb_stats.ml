(* Order statistics for the benchmark's timings.

   Percentiles are nearest-rank on the sorted sample: the p-th
   percentile of n samples is the ceil(p*n)-th smallest.  A tail
   percentile is only reported when at least [min_beyond] samples lie
   strictly above its rank, so a single slow sample can never be the
   reported tail. *)

let min_beyond = 10

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* 1-based nearest rank; the epsilon keeps p*n exact for p = 0.95,
   n = 200 (floating point gives 190.00000000000003). *)
let rank ~p n = max 1 (min n (int_of_float (Float.ceil ((p *. float n) -. 1e-9))))

let percentile ~p a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pb_stats.percentile: no samples";
  (sorted a).(rank ~p n - 1)

let median a = percentile ~p:0.5 a

(* Samples strictly beyond the p-th percentile's rank. *)
let beyond ~p n = n - rank ~p n

(* [tail ~p a] is the p-th percentile when at least [min_beyond]
   samples lie beyond it, [None] otherwise. *)
let tail ~p a =
  let n = Array.length a in
  if n > 0 && beyond ~p n >= min_beyond then Some (percentile ~p a) else None

(* Smallest sample count for which [tail ~p] is defined. *)
let min_samples ~p =
  let rec go n = if beyond ~p n >= min_beyond then n else go (n + 1) in
  go 1

(* [quiet ~block ~p a] cuts [a], in time order, into consecutive blocks
   of [block] samples (a short last block is dropped), takes each
   block's p-th percentile, and returns the first quartile of those: the
   figure of the quietest quarter of the run.  The host's speed varies
   from second to second; the quiet blocks follow the program, the rest
   follows the host.  [None] unless there are at least [min_blocks]
   blocks and each block's percentile has [min_beyond] samples beyond
   it. *)
let min_blocks = 4

let quiet ~block ~p a =
  let nb = Array.length a / block in
  if nb < min_blocks || beyond ~p block < min_beyond then None
  else
    Some (percentile ~p:0.25 (Array.init nb (fun b -> percentile ~p (Array.sub a (b * block) block))))

let sum a = Array.fold_left ( +. ) 0. a
let mean a = if a = [||] then 0. else sum a /. float (Array.length a)
let max_ a = Array.fold_left Float.max 0. a

(* Percentile or 0 on an empty sample — for per-layer figures of a
   layer a workload does not exercise. *)
let pct_or_zero ~p a = if a = [||] then 0. else percentile ~p a
