(** The scheduling service behind [bin/pipesched_server]: request
    handling, the schedule cache, and the line protocol — everything
    except the I/O plumbing (stdin/socket loops live in the binary,
    where they belong).

    {2 Protocol}

    One request per line, one response per line, both compact JSON.

    A scheduling request:
    {v
      {"id": 1, "machine": "simulation",
       "block": "1: Load #a\n2: Load #b\n3: Add t1, t2\n4: Store #c, t3",
       "deadline_ms": 200, "lambda": 100000}
    v}

    [machine] is a preset name or an inline textual description
    ({!Pipesched_machine.Machine.parse} format — either as the string
    itself or as [{"text": "..."}]); [block] is
    {!Pipesched_ir.Block.parse} format.  [id] is echoed back verbatim
    and may be any JSON value (default [null]).  [deadline_ms] and
    [lambda] are optional per-request budget overrides; a deadline maps
    onto the anytime search, which then returns its best incumbent with
    a non-["Complete"] status on expiry.  An optional ["backend"] field
    selects the scheduler by {!Pipesched_core.Scheduler} registry name
    (["bnb"], ["cp"], ["portfolio"], ["list"]; default the
    server's configured backend); unknown names fail the request.  An optional ["detail": true]
    asks for a ["cached": true|false] field in the response (whether
    the schedule came from the cache) — opt-in, because cached and
    fresh responses to the same default request are byte-identical and
    the load harness is the one client that wants to tell them
    apart.

    The response to a successful request:
    {v
      {"id": 1, "ok": true, "nops": 2, "completed": true,
       "status": "Complete", "order": [0,1,2,3], "eta": [0,0,1,1],
       "issue": [0,1,3,5], "pipes": [0,0,-1,-1]}
    v}

    [order] maps new position to position {e in the submitted block};
    [eta]/[issue]/[pipes] are per new position, as in
    {!Pipesched_machine.Omega.result}.  Failures (parse errors, invalid
    machines, certification failures) are
    [{"id": ..., "ok": false, "error": "..."}].

    A [{"op": "stats"}] request returns cache occupancy and hit/miss
    counters.

    {2 Caching}

    Responses are cached in a bounded {!Pipesched_prelude.Lru} keyed by
    [Machine.fingerprint ^ "\x00" ^ backend ^ "\x00" ^ Canonical.key]:
    everything the search can observe and nothing it cannot (the
    backend is part of the key because different backends may return
    different, equally optimal schedules).  The canonical key is packed
    bytes and may hold NUL, so it comes last; the fingerprint and the
    backend name hold none.  A request is only labeled
    ({!Pipesched_ir.Canonical.label}) to find its key: a hit builds no
    canonical block, and a miss materializes one to search.  The cached
    value is the solution of the {e canonical} block; both the miss path
    (fresh solve) and the hit path render responses by mapping that
    same canonical solution through the request's labeling
    ({!Pipesched_ir.Canonical.apply_labeling}), so a hit is
    byte-identical to the fresh solve by construction — there is no
    separate rendering to drift.  Only [Complete] results are inserted
    (a curtailed incumbent is returned to its requester but never
    poisons the cache), optionally gated by an independent
    {!Pipesched_verify.Certify} pass.

    {2 Degradation and containment}

    A server created with [~degrade:true] answers a request whose
    optimal solve {e raises} (a real bug or an armed
    {!Pipesched_prelude.Fault.Solver} chaos fault) with the
    machine-independent list scheduler instead of an error: the order is
    evaluated by Omega, certified by the independent checker, and marked
    ["degraded": true] with status ["Degraded"] and [completed: false] —
    a legal schedule with no optimality claim.  The daemon of such a
    server also answers requests it would otherwise shed through
    {!handle_parsed_degraded}.  Any exception escaping a request — solver, cache insert,
    anything — is confined to that request's error response and counted
    in {!contained}; one poisoned request can never take the process
    down.

    {!handle_line} takes the cache's own mutex only; it is safe to call
    concurrently from many domains ({!Daemon.supervise} spawns one
    worker domain per job). *)

type t

(** [create ()] — a fresh server state.

    [cache_capacity] bounds the schedule cache (entries; [0] disables
    caching; default [4096]).  [certify] runs the independent checker on
    every fresh solve before it may enter the cache, failing the request
    on violations (default [false]).  [degrade] answers failed solves
    with the certified list scheduler instead of an error (default
    [false]).  [lambda] and [deadline_ms] are the default per-request
    budgets ([lambda] default
    {!Pipesched_core.Optimal.default_options}[.lambda]; no default
    deadline); requests may override both.  [backend] is the default
    scheduler backend (a {!Pipesched_core.Scheduler} registry name;
    default ["bnb"]; requests may override with a ["backend"] field);
    raises [Invalid_argument] on an unknown name. *)
val create :
  ?cache_capacity:int ->
  ?certify:bool ->
  ?degrade:bool ->
  ?lambda:int ->
  ?deadline_ms:float ->
  ?backend:string ->
  unit ->
  t

(** Whether [t] was created with [~degrade:true]; the daemon reads it to
    decide how to answer a request it sheds. *)
val degrade : t -> bool

(** [handle_line t line] parses and processes one protocol line,
    returning the response line (no trailing newline).  Never raises:
    malformed input yields an [ok: false] response. *)
val handle_line : t -> string -> string

(** [handle_parsed t parsed] answers a line the caller has already
    parsed with {!Pipesched_prelude.Json.parse}: [handle_line t line]
    is [handle_parsed t (Json.parse line)].  The daemon parses each
    line once, on intake, and answers from that result.  Never
    raises. *)
val handle_parsed :
  t -> (Pipesched_prelude.Json.t, string) result -> string

(** [handle_parsed_degraded t parsed] is the daemon's answer to a line
    it sheds.  A scheduling request is answered with the certified list
    scheduler, skipping the optimal search entirely; the response
    carries ["degraded": true].  The [stats] and [ping] ops, which run
    no search, are answered as by {!handle_parsed}.  Same containment,
    so it never raises. *)
val handle_parsed_degraded :
  t -> (Pipesched_prelude.Json.t, string) result -> string

(** {2 Counters} (monotone since {!create}) *)

val cache_hits : t -> int
val cache_misses : t -> int
val cache_evictions : t -> int
val cache_length : t -> int

(** Exceptions (real or injected) confined to a single request's error
    or degraded response. *)
val contained : t -> int

(** Requests answered by the degraded (list-scheduler) path. *)
val degraded_served : t -> int

(** [set_extra_stats t f] installs a provider of extra fields appended
    to the [stats] response — the daemon uses it to expose queue depth,
    shed and respawn counters through the same op.  [f] must be safe to
    call from any worker domain. *)
val set_extra_stats :
  t -> (unit -> (string * Pipesched_prelude.Json.t) list) -> unit
