open Hr_core
module Check = Hr_check
module Budget = Hr_util.Budget

type parsed =
  | Request of Batch.request
  | Malformed of { id : string; error : string }

let parse_line ?max_table_bytes ?cache_dir ?oracle ~fallback_id line =
  match Telemetry.json_of_string line with
  | Error e -> Malformed { id = fallback_id; error = e }
  | Ok json ->
      let id, deadline_ms, case_json =
        match json with
        | Telemetry.Obj fields when List.mem_assoc "case" fields ->
            let id =
              match List.assoc_opt "id" fields with
              | Some (Telemetry.String s) -> s
              | Some (Telemetry.Int i) -> string_of_int i
              | _ -> fallback_id
            in
            let deadline_ms =
              match List.assoc_opt "deadline_ms" fields with
              | Some (Telemetry.Int ms) when ms >= 0 -> Some ms
              | _ -> None
            in
            (id, deadline_ms, List.assoc "case" fields)
        | _ -> (fallback_id, None, json)
      in
      (match Check.Case.of_json case_json with
      | Error e -> Malformed { id; error = e }
      | Ok case ->
          (* The digest of the canonical case JSON is the in-process
             dedup key — the same structural-hash scheme the disk cache
             uses, over the whole problem identity (oracle inputs plus
             params/mode/class, which change the Problem even when the
             tables agree).  Identical instances share one build across
             every batch of the process.

             The per-request budget starts ticking here, at admission:
             queue wait counts against a request's own deadline. *)
          Request
            (Batch.request
               ~key:(Digest.to_hex (Digest.string (Check.Case.to_string case)))
               ?budget:(Option.map Budget.of_deadline_ms deadline_ms)
               ~id (fun () ->
                 Check.Case.problem ?max_table_bytes ?cache_dir ?oracle case)))

(* Request lines, bounded.  A reader keeps its own chunk buffer over
   the channel so a line costs one [input] call per 64 KiB, and a line
   past the cap is skipped to its newline without ever being held:
   memory per connection stays at the cap, whatever a client sends. *)

(* 16 MiB.  The longest line the repository generates is a
   hrcompile-scale case (--steps 50000 --tasks 4) of about 1.4 MB. *)
let max_line_bytes = 16 * 1024 * 1024

type reader = {
  ic : in_channel;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let reader ic = { ic; chunk = Bytes.create 65536; pos = 0; len = 0 }

type line = Line of string | Too_long | Eof

let read_line r =
  let buf = Buffer.create 0 in
  let over = ref false in
  let take lo hi =
    if not !over then
      if Buffer.length buf + (hi - lo) > max_line_bytes then begin
        over := true;
        Buffer.reset buf
      end
      else Buffer.add_subbytes buf r.chunk lo (hi - lo)
  in
  let rec go () =
    if r.pos >= r.len then begin
      r.pos <- 0;
      r.len <- input r.ic r.chunk 0 (Bytes.length r.chunk)
    end;
    if r.len = 0 then
      (* EOF: like [input_line], a last line without newline counts. *)
      if !over then Too_long else if Buffer.length buf = 0 then Eof
      else Line (Buffer.contents buf)
    else
      let rec newline i = if i >= r.len || Bytes.get r.chunk i = '\n' then i else newline (i + 1) in
      let nl = newline r.pos in
      take r.pos nl;
      if nl >= r.len then begin
        r.pos <- r.len;
        go ()
      end
      else begin
        r.pos <- nl + 1;
        if !over then Too_long else Line (Buffer.contents buf)
      end
  in
  go ()

let next ?max_table_bytes ?cache_dir ?oracle r ~fallback_id =
  let rec go () =
    match read_line r with
    | Eof -> None
    | Too_long ->
        Some
          (Malformed
             {
               id = fallback_id;
               error = Printf.sprintf "line exceeds %d bytes" max_line_bytes;
             })
    | Line line when String.trim line = "" -> go ()
    | Line line ->
        Some (parse_line ?max_table_bytes ?cache_dir ?oracle ~fallback_id line)
  in
  go ()

let response_line ?timing r =
  Telemetry.json_to_string (Batch.response_to_json ?timing r)
