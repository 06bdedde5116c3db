(** Deterministic chunked work pool over OCaml 5 domains.

    [parallel_map] distributes independent items across worker
    domains.  Results are always delivered in input order, and the
    functions applied must be pure with respect to shared state, so the
    value computed is {e identical at every job count} — parallelism only
    changes wall-clock time.  This is the determinism contract the study
    driver (Harness.Study) builds on: anything derived from a
    [parallel_map] is reproducible bit-for-bit whether run with 1 job on
    a laptop or 64 in CI.

    Scheduling is dynamic: workers repeatedly grab the next chunk of
    indices from a mutex-protected counter, so a heavy-tailed workload
    (e.g. branch-and-bound searches whose cost varies by orders of
    magnitude per block) still balances.  The chunk is sized from the
    item and job counts ([length xs / (jobs * 32)], clamped to
    [1 .. 64]); it only affects load balance, never results.

    There is no cancellation: a map runs every item (or stops at the
    first raise).  A sweep that must stop early bounds each item's own
    work instead — every search polls the cancellation token in its
    options.

    The pool is safe under nested use: a call made from inside a worker
    domain runs serially in that worker instead of spawning further
    domains, so no lock ordering between pools can deadlock. *)

(** [resolve_jobs jobs] normalizes an optional CLI-style job count:
    [Some j] clamps to at least 1; [None] falls back to the
    [PIPESCHED_JOBS] environment variable when it holds a positive
    integer, otherwise to [Domain.recommended_domain_count ()]. *)
val resolve_jobs : int option -> int

(** [parallel_map ?jobs f xs] is [List.map f xs] computed
    on [jobs] domains (default {!resolve_jobs}[ None]), with [f] applied
    to each element exactly once and results in input order.  [f] is
    evaluated left-to-right when running serially ([jobs <= 1], a
    single-element list, or a nested call from a worker).

    If any application of [f] raises, the first exception (in completion
    order) is re-raised in the caller after all workers have stopped;
    remaining unstarted items are abandoned.

    [progress] is called with the cumulative number of items completed
    — after every item on the serial path, after every chunk on the
    parallel one.  It runs on worker domains, so it must be
    domain-safe; counts can arrive slightly out of order under races;
    a raising callback is contained (never affects the map).  Intended
    for rate-limited heartbeats, not precise accounting. *)
val parallel_map :
  ?jobs:int ->
  ?progress:(int -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b list

(** One contained per-item failure: the exception rendered with
    [Printexc.to_string] plus the backtrace captured in the worker (empty
    when backtrace recording is off). *)
type failure = { exn : string; backtrace : string }

(** [parallel_map_result ?jobs f xs] is {!parallel_map}
    with per-item fault containment: an application of [f] that raises
    yields [Error failure] for that item instead of tearing down the
    whole map, and every other item still runs.  Results stay in input
    order, so the determinism contract is preserved — a deterministic
    [f] fails (or succeeds) identically at any job count. *)
val parallel_map_result :
  ?jobs:int ->
  ?progress:(int -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, failure) result list
