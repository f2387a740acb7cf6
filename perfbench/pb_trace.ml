(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function: its name, the
   request it belongs to, the span that caused it, and its start and end
   (wall clock, ms).  Spans are appended to a list and written once, at
   the end, as Chrome trace-event JSON.  Recording is single-threaded;
   spans of calls that ran on pool domains are measured there and
   recorded by the caller afterwards ([add]). *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  req : int;  (** request id shared by every span of one request *)
  name : string;
  lane : int;  (** trace-viewer row: 0 for the caller, k for contestant k *)
  t0 : float;
  t1 : float;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 1 }
let now_ms = Hr_util.Budget.now_ms
let spans t = List.rev t.spans

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

(* Record a span measured elsewhere; returns its id. *)
let add t ?(parent = 0) ?(lane = 0) ~req ~name ~t0 ~t1 () =
  let id = fresh t in
  t.spans <- { id; parent; req; name; lane; t0; t1 } :: t.spans;
  id

(* [span t ~parent ~req name f] times [f id] and records it; [f]
   receives the new span's id to parent its own children. *)
let span t ?(parent = 0) ~req name f =
  let id = fresh t in
  let t0 = now_ms () in
  let r = f id in
  let t1 = now_ms () in
  t.spans <- { id; parent; req; name; lane = 0; t0; t1 } :: t.spans;
  r

let dur s = s.t1 -. s.t0

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let iv =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None iv

(* Self time of every span: its duration minus the part its children
   cover.  Returns (span, self_ms) pairs. *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s -> (s, dur s -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all kids s.id)))
    spans

(* Per-name totals: (name, calls, total ms, self ms), sorted by name. *)
let by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let c, d, sf =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl s.name (c + 1, d +. dur s, sf +. self))
    (self_times spans);
  Hashtbl.fold (fun name (c, d, sf) acc -> (name, c, d, sf) :: acc) tbl []
  |> List.sort compare

let durations spans name =
  Array.of_list
    (List.filter_map (fun s -> if s.name = name then Some (dur s) else None) spans)

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write_chrome path spans =
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        s.name s.lane
        ((s.t0 -. base) *. 1000.)
        (dur s *. 1000.) s.id s.parent s.req)
    spans;
  output_string oc "]}\n";
  close_out oc
