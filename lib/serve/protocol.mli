(** The JSON-lines wire format, shared by hrserve's [--stdio] loop and
    the socket server — one parser and one serializer, so the two
    transports answer byte-identically.

    A request line is either a bare [hyperreconf.case/1] document or an
    envelope [{"id": ..., "deadline_ms": MS, "case": {...}}]; the
    response is one [hyperreconf.result/1] line ({!Hr_core.Batch}). *)

(** One parsed request line.  [Malformed] lines never reach the solve
    pipeline: the transport answers them directly with a structured
    error result. *)
type parsed =
  | Request of Hr_core.Batch.request
  | Malformed of { id : string; error : string }

(** [parse_line ?max_table_bytes ?cache_dir ?oracle ~fallback_id line]
    parses one request line.  The request is keyed by the digest of the
    canonical case JSON (the cross-batch dedup/LRU key), builds its
    problem through [Hr_check.Case.problem] with the given table-cache
    and oracle-policy knobs, and — when the envelope carries
    [deadline_ms] — gets a per-request budget that starts ticking now,
    at admission, so queue wait counts against it.  [fallback_id] is
    used when the envelope does not choose an id. *)
val parse_line :
  ?max_table_bytes:int ->
  ?cache_dir:string ->
  ?oracle:Hr_core.Interval_cost.policy ->
  fallback_id:string ->
  string ->
  parsed

(** The cap on one request line, in bytes (16 MiB): ten times the
    longest line the repository generates, a [hrcompile --steps 50000
    --tasks 4] case of about 1.4 MB. *)
val max_line_bytes : int

(** A buffered line reader over one input channel (a socket or stdin).
    Memory stays bounded by the line cap whatever the peer sends. *)
type reader

val reader : in_channel -> reader

(** [Too_long]: the line passed the cap; its rest has been read and
    discarded, so the next read starts on the following line. *)
type line = Line of string | Too_long | Eof

(** [read_line r] reads one line without its newline, or [Too_long]
    past {!max_line_bytes}.  Like [input_line], a last line without a
    newline is returned; raises what [input] raises. *)
val read_line : reader -> line

(** [next ... r ~fallback_id] reads up to the next non-blank line and
    parses it with {!parse_line}; [None] at end of input.  A line past
    {!max_line_bytes} is the [Malformed] request
    ["line exceeds N bytes"] under [fallback_id].  Both transports read
    through this one function. *)
val next :
  ?max_table_bytes:int ->
  ?cache_dir:string ->
  ?oracle:Hr_core.Interval_cost.policy ->
  reader ->
  fallback_id:string ->
  parsed option

(** [response_line ?timing r] is the one-line [hyperreconf.result/1]
    rendering (trailing newline included).  [timing:false] zeroes the
    wall-clock fields ({!Hr_core.Batch.response_to_json}). *)
val response_line : ?timing:bool -> Hr_core.Batch.response -> string
