(** DSL-driven load generation for the scheduling daemon.

    The missing half of the serving story: {!Pipesched_synth.Schedule}
    describes {e when} requests arrive (burst / soak / ramp / mix, with
    split seeds), {!Pipesched_synth.Generator.of_seed} describes {e
    what} arrives (every block a pure function of its seed), and this
    module turns the two into a replayable request {!plan} plus the
    classification/percentile machinery that scores a replay.

    {b Open loop}: requests are sent at their scheduled times whether
    or not earlier responses have arrived, so a slow server shows up as
    latency (and ultimately drops), never as a silently throttled
    offered rate — the coordinated-omission trap of closed-loop
    clients.  The serial {!run_sync} driver is the closed-loop
    exception used for in-process replays in tests, where the
    interesting output is per-stage handling latency, not queueing.

    Every response is classified by {b stage} — answered from the
    schedule cache ({!Hit}), freshly solved to completion ({!Fresh}),
    budget-curtailed ({!Curtailed}), answered by the degraded list
    scheduler ({!Degraded}), shed by admission control ({!Rejected}),
    refused/failed ({!Error}) or never answered ({!Dropped}), with
    non-terminal retried attempts tracked as {!Retried} — and folded
    into one
    {!Aggregate.Keyed} log-bucket histogram per stage, giving p50/p90/
    p99 per stage in constant memory.  Plans ask the server for the
    ["cached"] response field (["detail": true]), so hit/fresh is
    ground truth from the daemon, not a client-side guess.

    Determinism: {!plan} is a pure function of its parameters — same
    seed, shape and rates give the byte-identical request array
    (pinned by a test), so a soak run names its workload with one
    integer.  Reports split like {!Aggregate}: {!report_json} carries
    wall-clock fields (percentiles, achieved rps),
    {!report_deterministic_json} only what the plan and the server's
    deterministic behavior decide (counts per stage, offered load). *)

module Json = Pipesched_prelude.Json

(** {2 Request plans} *)

type shape = Burst | Soak | Ramp | Mix

val shape_to_string : shape -> string
val shape_of_string : string -> (shape, string) result

type request = {
  index : int;  (** 0-based; doubles as the request ["id"] *)
  time : float; (** scheduled send offset from stream start, seconds *)
  line : string; (** the JSON request line (no trailing newline) *)
  dup : bool;   (** drawn from the hot (duplicate) block pool *)
}

type plan = {
  shape : shape;
  seed : int;
  rps : float;      (** nominal peak rate, requests/second *)
  duration : float; (** nominal stream length, seconds *)
  dup_rate : float;
  machine : string;
  requests : request array; (** time-sorted *)
}

(** [plan ~seed ~shape ~rps ~duration ()] builds the request stream:

    - {!Soak}: constant [rps] for [duration] seconds;
    - {!Burst}: all of each second's requests at once, once a second;
    - {!Ramp}: four equal stages at 0.25/0.5/1.0/1.5 x [rps];
    - {!Mix}: a 0.6 x [rps] soak with a burst every 2 s on top.

    Each event draws its payload from its own split seed: with
    probability [dup_rate] a block from a pool of [hot] pre-compiled
    blocks (cache-hit traffic after first presentation), otherwise a
    fresh {!Pipesched_synth.Generator.of_seed} block.  [machine]
    (preset name, default ["simulation"]), [lambda] and [deadline_ms]
    go into every request verbatim.  Raises [Invalid_argument] unless
    [rps > 0], [duration > 0] and [0 <= dup_rate <= 1]. *)
val plan :
  ?machine:string ->
  ?hot:int ->
  ?lambda:int ->
  ?deadline_ms:float ->
  ?dup_rate:float ->
  seed:int ->
  shape:shape ->
  rps:float ->
  duration:float ->
  unit ->
  plan

(** {2 Response classification} *)

type stage =
  | Hit        (** answered from the schedule cache *)
  | Fresh      (** freshly solved to completion *)
  | Curtailed  (** budget-curtailed incumbent *)
  | Degraded   (** answered by the certified list scheduler
                   (["degraded": true]) *)
  | Rejected   (** shed by admission control (["error": "overloaded"]) *)
  | Retried    (** a non-terminal failed attempt that was retried —
                   drivers record it via {!record}; {!classify} never
                   returns it and it never counts as answered *)
  | Error      (** any other refusal or failure *)
  | Dropped    (** never answered *)

val stage_to_string : stage -> string

(** All stages, report order. *)
val stages : stage list

(** Classify one received response line.  [ok: true] with
    ["degraded": true] is {!Degraded}; [completed: false] is
    {!Curtailed}; [cached: true] is {!Hit}; any other well-formed
    [ok: true] is {!Fresh}.  [ok: false] with error ["overloaded"] is
    {!Rejected}; unparsable or otherwise failed lines are {!Error}.
    ({!Dropped} is assigned by drivers to requests that never got a
    line back; {!Retried} only by drivers that resend.) *)
val classify : string -> stage

(** {2 Retry policy}

    Pure helpers shared by the open-loop client and the tests, so the
    retry schedule is a replayable function of the plan seed. *)

(** Whether a response line is worth retrying: an [overloaded]
    admission refusal or a contained [internal error] (transient under
    chaos injection).  Other errors (parse failures, invalid machines)
    are permanent and not retryable. *)
val retryable : string -> bool

(** [retry_line line ~attempt] is [line] with a ["retry": attempt]
    field added (replacing any previous one).  The marker makes the
    resend a distinct key for the server's content-keyed chaos draws —
    a retried request gets a fresh fault verdict, like a real transient
    fault.  Unparsable lines are returned unchanged. *)
val retry_line : string -> attempt:int -> string

(** [backoff_delay_s ~seed ~index ~attempt ~backoff_ms] — the delay
    before resend [attempt] (1-based) of request [index]: exponential
    in the attempt, scaled by a deterministic jitter in [\[0.5, 1.5)]
    drawn from a stream split off the plan seed, so concurrent clients
    de-synchronize without losing replayability. *)
val backoff_delay_s :
  seed:int -> index:int -> attempt:int -> backoff_ms:int -> float

(** {2 Scoring} *)

(** Mutable fold of classified response latencies: per-stage counts
    plus one {!Aggregate.Keyed} histogram bucket set per stage.
    Constant memory; not thread-safe (drivers record under their own
    lock). *)
type outcome

val outcome : unit -> outcome

(** [record o stage ~latency_s] folds one response.  {!Dropped}
    contributes to counts only, never to a histogram. *)
val record : outcome -> stage -> latency_s:float -> unit

type stage_summary = {
  stage : stage;
  count : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
}

type report = {
  r_shape : shape;
  r_seed : int;
  r_dup_rate : float;
  r_conns : int;
  r_requests : int;      (** offered *)
  r_duration : float;    (** nominal stream length, seconds *)
  r_offered_rps : float; (** requests / nominal duration *)
  r_wall_s : float;      (** measured replay wall time *)
  r_achieved_rps : float; (** answered / wall *)
  r_stages : stage_summary list; (** all stages, {!stages} order *)
  r_hits : int;
  r_fresh : int;
  r_curtailed : int;
  r_degraded : int;
  r_rejected : int;
  r_retries : int; (** non-terminal retried attempts *)
  r_errors : int;
  r_drops : int;
  r_hit_rate : float;
      (** hits / answered-ok (hit+fresh+curtailed+degraded) *)
}

val summarize : plan:plan -> conns:int -> wall_s:float -> outcome -> report

(** Full report, including the wall-clock fields (per-stage
    percentiles, achieved rps, wall time). *)
val report_json : report -> Json.t

(** Only the fields that are a pure function of the plan and the
    server's deterministic behavior: shape/seed/load parameters and
    per-stage counts.  Byte-identical across serial replays of the same
    plan against a fresh server. *)
val report_deterministic_json : report -> Json.t

val pp_report : Format.formatter -> report -> unit

(** {2 Drivers} *)

(** [run_sync ~handle plan] replays the plan serially in-process:
    each line goes through [handle] (e.g.
    [fun l -> Some (Server.handle_line server l)]) with its latency
    measured around the call; [None] counts as {!Dropped}.  Ignores
    event times (closed loop) — this is the test driver.  The
    open-loop socket client lives in [bin/pipesched_load]. *)
val run_sync : handle:(string -> string option) -> plan -> report
