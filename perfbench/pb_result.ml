(* What one benchmark run reports, and the end-to-end metric catalogue. *)

module T = Hr_core.Telemetry

(* End-to-end metrics: name, unit, better direction. *)
let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("latency_p50_ms", "ms", "lower");
    ("latency_tail_ms", "ms", "lower");
    ("limit_met_share", "ratio", "higher");
    ("capacity_rps", "1/s", "higher");
    ("plan_cost_sum", "cost", "lower");
    ("exact_share", "ratio", "higher");
  ]

(* Sent, succeeded and failed operations of one phase of a run. *)
type phase = { phase : string; sent : int; succeeded : int; failed : int }

type t = {
  phases : phase list;
  metrics : (string * string * float) list;  (** name, unit, value *)
  info : (string * T.json) list;  (** run details kept beside the result *)
  errors : string list;  (** the first failed checks, for the log *)
}

let attempted t = List.fold_left (fun a p -> a + p.sent) 0 t.phases
let failed t = List.fold_left (fun a p -> a + p.failed) 0 t.phases

let phase_json p =
  T.Obj
    [
      ("phase", T.String p.phase);
      ("sent", T.Int p.sent);
      ("succeeded", T.Int p.succeeded);
      ("failed", T.Int p.failed);
    ]

(* End-to-end rows from (name, value) pairs, in catalogue order; every
   name must be present. *)
let e2e values =
  List.map
    (fun (name, unit, _) ->
      match List.assoc_opt name values with
      | Some v -> (name, unit, v)
      | None -> invalid_arg ("Pb_result.e2e: missing " ^ name))
    end_to_end

(* Collects failed checks: counts them and keeps the first messages. *)
type checker = { mutable fails : int; mutable msgs : string list }

let checker () = { fails = 0; msgs = [] }

let fail c msg =
  c.fails <- c.fails + 1;
  if List.length c.msgs < 20 then c.msgs <- msg :: c.msgs

let messages c = List.rev c.msgs
