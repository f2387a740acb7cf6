(* The load generator's side of the serving workloads: spawn hrserve as
   a child process on a Unix socket, wait until it accepts, drive it
   open-loop or closed-loop from one thread with select(2), and stop it.

   One generator process uses at most two client connections.  Response
   lines are stored raw with their arrival time; they are parsed and
   checked only after the timed phase, so the generator spends as little
   CPU as possible while the server is measured. *)

let now_ms = Hr_util.Budget.now_ms

(* ------------------------------------------------------------------ *)
(* Child process.                                                      *)

type server = { pid : int; sock : string; summary : string }

(* Children still running; killed if the benchmark dies early. *)
let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let () = at_exit kill_all

let remove path = try Unix.unlink path with Unix.Unix_error _ -> ()

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* Connect to a Unix socket, [None] while nobody listens. *)
let try_connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* [spawn ~exe ~args ~sock ~summary ~log] starts hrserve listening on
   [sock] and returns once a connection succeeds. *)
let spawn ~exe ~args ~sock ~summary ~log =
  remove sock;
  remove summary;
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv =
    Array.of_list
      (exe :: "--listen" :: ("unix:" ^ sock) :: "--summary" :: summary :: args)
  in
  let pid = Unix.create_process exe argv rd logfd logfd in
  live := pid :: !live;
  Unix.close rd;
  Unix.close wr;
  Unix.close logfd;
  let deadline = now_ms () +. 30_000. in
  let rec wait () =
    match try_connect sock with
    | Some fd -> Unix.close fd
    | None ->
        if exited pid then begin
          live := List.filter (( <> ) pid) !live;
          failwith (Printf.sprintf "hrserve exited during start-up (see %s)" log)
        end
        else if now_ms () > deadline then failwith "hrserve did not accept within 30 s"
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
  in
  wait ();
  { pid; sock; summary }

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float kb /. 1024.)
        | _ -> go ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let own_peak_rss_mb () = peak_rss_mb (Unix.getpid ())

(* SIGTERM (hrserve drains and writes its summary), then wait. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap s.pid;
  remove s.sock

(* ------------------------------------------------------------------ *)
(* Line-oriented connections.                                          *)

type conn = { fd : Unix.file_descr; partial : Buffer.t; chunk : Bytes.t }

let connect sock =
  match try_connect sock with
  | Some fd -> { fd; partial = Buffer.create 4096; chunk = Bytes.create 65536 }
  | None -> failwith ("cannot connect to " ^ sock)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | k -> write_all fd s (off + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send c line =
  write_all c.fd line 0 (String.length line);
  write_all c.fd "\n" 0 1

(* Read what is available; call [on_line line t] per complete line.
   Returns false at EOF. *)
let drain c ~on_line =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | k ->
      let t = now_ms () in
      let start = ref 0 in
      for i = 0 to k - 1 do
        if Bytes.get c.chunk i = '\n' then begin
          Buffer.add_subbytes c.partial c.chunk !start (i - !start);
          on_line (Buffer.contents c.partial) t;
          Buffer.clear c.partial;
          start := i + 1
        end
      done;
      Buffer.add_subbytes c.partial c.chunk !start (k - !start);
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let select_read fds timeout_ms =
  match Unix.select fds [] [] (Float.max 0. (timeout_ms /. 1000.)) with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* The id of a hyperreconf.result/1 line, found without parsing the
   whole document (the id is the second field). *)
let response_id line =
  let key = "\"id\":\"" in
  let kl = String.length key and n = String.length line in
  let rec find i =
    if i + kl > n then None
    else if String.sub line i kl = key then
      match String.index_from_opt line (i + kl) '"' with
      | Some j -> Some (String.sub line (i + kl) (j - i - kl))
      | None -> None
    else find (i + 1)
  in
  find 0

(* One request's record.  Times are wall-clock ms; [due] is when it was
   scheduled, [sent] when it was written, [recv] when its response line
   was read (nan if it never came). *)
type record = {
  id : string;
  line_index : int;  (** index into the phase's request lines *)
  due : float;
  mutable sent : float;
  mutable recv : float;
  mutable response : string;
}

let new_record ~id ~line_index ~due =
  { id; line_index; due; sent = nan; recv = nan; response = "" }

let on_response tbl line t =
  match response_id line with
  | Some id -> (
      match Hashtbl.find_opt tbl id with
      | Some r when Float.is_nan r.recv ->
          r.recv <- t;
          r.response <- line
      | _ -> ())
  | None -> ()

(* [open_loop ~sock ~ids ~lines ~offsets ~drain_ms] sends [lines.(i)]
   at [start + offsets.(i)] on one connection whatever the server's
   progress, and reads responses as they come.  Returns the records and
   the phase start time. *)
let open_loop ~sock ~ids ~lines ~offsets ~drain_ms =
  let c = connect sock in
  let count = Array.length lines in
  let start = now_ms () +. 20. in
  let recs =
    Array.init count (fun i -> new_record ~id:ids.(i) ~line_index:i ~due:(start +. offsets.(i)))
  in
  let tbl = Hashtbl.create (2 * count) in
  Array.iter (fun r -> Hashtbl.replace tbl r.id r) recs;
  let next = ref 0 and got = ref 0 and eof = ref false in
  let on_line line t =
    on_response tbl line t;
    incr got
  in
  let last_due = if count = 0 then start else recs.(count - 1).due in
  let give_up = last_due +. drain_ms in
  while (!next < count || !got < count) && (not !eof) && now_ms () < give_up do
    let now = now_ms () in
    while !next < count && recs.(!next).due <= now do
      let r = recs.(!next) in
      send c lines.(!next);
      r.sent <- now_ms ();
      incr next
    done;
    let wait = if !next < count then recs.(!next).due -. now_ms () else give_up -. now_ms () in
    if select_read [ c.fd ] wait <> [] then if not (drain c ~on_line) then eof := true
  done;
  close c;
  (recs, start)

(* [closed_loop ~sock ~conns ~window ~next_line ~duration_ms ~min_sent ~drain_ms]
   keeps [window] requests in flight on each of [conns] connections for
   [duration_ms], and until at least [min_sent] were sent: each response
   releases the next request on its connection.  A request is due when
   it is released.  [next_line k] is the k-th (id, line) to send, [None]
   when the pool is exhausted.  Returns the records, the phase start
   and the time sending stopped. *)
let closed_loop ~sock ~conns ~window ~next_line ~duration_ms ~min_sent ~drain_ms =
  let cs = Array.init conns (fun _ -> connect sock) in
  let tbl = Hashtbl.create 4096 in
  let recs = ref [] and k = ref 0 and outstanding = ref 0 in
  let start = now_ms () in
  let stop_at = start +. duration_ms in
  let exhausted = ref false in
  let send_one c =
    if (not !exhausted) && (now_ms () < stop_at || !k < min_sent) then
      match next_line !k with
      | None -> exhausted := true
      | Some (id, line) ->
          let t = now_ms () in
          let r = new_record ~id ~line_index:!k ~due:t in
          incr k;
          Hashtbl.replace tbl id r;
          recs := r :: !recs;
          send c line;
          r.sent <- now_ms ();
          incr outstanding
  in
  Array.iter
    (fun c ->
      for _ = 1 to window do
        send_one c
      done)
    cs;
  let give_up = stop_at +. drain_ms in
  let open_fds = ref (Array.to_list (Array.map (fun c -> c.fd) cs)) in
  while !outstanding > 0 && !open_fds <> [] && now_ms () < give_up do
    let ready = select_read !open_fds (give_up -. now_ms ()) in
    List.iter
      (fun fd ->
        let c = Array.to_list cs |> List.find (fun c -> c.fd == fd) in
        let replies = ref 0 in
        let alive =
          drain c ~on_line:(fun line t ->
              on_response tbl line t;
              incr replies)
        in
        outstanding := !outstanding - !replies;
        for _ = 1 to !replies do
          send_one c
        done;
        if not alive then open_fds := List.filter (fun f -> f != fd) !open_fds)
      ready
  done;
  Array.iter close cs;
  (Array.of_list (List.rev !recs), start, stop_at)
