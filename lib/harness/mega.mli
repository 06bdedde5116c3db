(** The sharded mega-study engine: multi-process, streaming, resumable.

    Scales {!Study.run} past what one process should hold: the corpus
    [0 .. count) is split into [shards] contiguous index ranges, each
    run by a {e separate worker process} (true isolation beyond domains
    — a segfaulting or OOM-killed shard loses only its shard), and every
    per-block outcome streams back to the master over a pipe as one line
    of JSON, folded immediately into a constant-memory {!Aggregate}.  No
    record list ever exists.

    {b Block identity.}  Block [i] is [Generator.of_seed
    (Schedule.seed_at ~seed i)] — a pure function of [(seed, i)], O(1)
    to locate.  Shard ranges therefore partition exactly the corpus a
    serial run would generate, which is the first half of the
    byte-identity contract.

    {b Determinism.}  Each worker labels its block
    ({!Pipesched_ir.Canonical.label}) and, on a dedup miss, searches the
    {e canonical} block ({!Pipesched_ir.Canonical.materialize}), so
    a block's record is a pure function of its canonical class.  The
    per-shard dedup LRU is then transparent: a cache hit replays
    byte-for-byte the record a fresh search would produce — which is why
    {!Aggregate.render} is byte-identical at any [shards] / [jobs] /
    [dedup_capacity], and why the LRU needs no checkpointing.

    {b Checkpoint / resume.}  Every [checkpoint_every] blocks a worker
    atomically (write-temp + rename) persists its full aggregate plus a
    config fingerprint (master seed, count, shards, lambda, machine
    fingerprint, {!Pipesched_ir.Canonical.version}, ...).  [resume = true] restarts each shard from its
    last valid checkpoint — a killed run (worker {e or} master: master
    state is reconstructed entirely from the checkpoints) loses at most
    [checkpoint_every] blocks per shard, and the resumed run's aggregate
    is byte-identical to an uninterrupted one.  Fingerprint-mismatched
    or corrupt checkpoints are ignored (the shard restarts from 0).

    Workers are spawned by re-executing the current binary with a
    [--mega-worker <json>] argv convention — never [Unix.fork], which
    is unsafe once domains exist.  Host binaries must call
    {!run_if_worker} first thing in [main].

    See DESIGN.md §11. *)

type config = {
  seed : int;  (** master corpus seed *)
  count : int;  (** corpus size (blocks) *)
  shards : int;  (** worker processes *)
  jobs : int;  (** domains per worker for block-level parallelism *)
  lambda : int;  (** per-block Omega-call budget *)
  dedup_capacity : int;
      (** per-shard canonical-key LRU entries; [0] disables dedup *)
  checkpoint_every : int;  (** blocks between checkpoints, per shard *)
  checkpoint_dir : string;
  machine : string;  (** machine preset name ({!Pipesched_machine.Machine.Presets}) *)
  certify : bool;  (** independently certify every searched schedule *)
}

(** [seed 1990], [count 10_000], [shards 2], [jobs 1], [lambda 50_000],
    [dedup_capacity 65_536], [checkpoint_every 1_000],
    [checkpoint_dir "mega-checkpoints"], [machine "simulation"], no
    certification. *)
val default : config

(** [shard_range cfg k] is shard [k]'s half-open corpus slice
    [(lo, hi)]. *)
val shard_range : config -> int -> int * int

(** The minimum corpus slice worth a worker process (64).  Below it the
    per-shard fork/exec, checkpoint and streaming overhead outweighs the
    parallelism — small corpora measurably run {e slower} at higher
    shard counts (the §11 crossover). *)
val min_shard_blocks : int

(** [effective_shards cfg] is the shard count {!run} will actually use:
    [cfg.shards] clamped to [max 1 (cfg.count / min_shard_blocks)].
    {!run} warns on stderr when the clamp engages.  Result-transparent
    (the aggregate is byte-identical at any shard count); exposed so
    callers can report requested vs effective. *)
val effective_shards : config -> int

(** Progress snapshot passed to the [?progress] callback (invoked
    frequently — the callback is expected to rate-limit itself). *)
type progress = {
  total : int;
  done_blocks : int;  (** includes blocks replayed from checkpoints *)
  resumed : int;
  live_shards : int;
  shards : int;
  elapsed_s : float;
}

type stats = {
  wall_s : float;
  processed : int;  (** blocks actually searched in this invocation *)
  resumed : int;  (** blocks replayed from checkpoints *)
  blocks_per_s : float;  (** [processed / wall_s] *)
  max_rss_ratio : float;
      (** max over shards of final worker RSS / RSS at its first
          checkpoint — the flat-memory evidence [--mega] prints and CI
          bounds; [0.] when unavailable (no /proc) *)
}

(** [run ?exe ?progress ~resume cfg] drives a full mega study and
    returns the merged aggregate (shards merged in shard order) plus run
    statistics.  [exe] is the worker binary (default
    [Sys.executable_name]; it must call {!run_if_worker}).  On any shard
    failure — crash, nonzero exit, truncated stream, or an
    aggregate-fingerprint mismatch between a worker's final state and
    the master's fold of its stream — returns [Error] with a
    human-readable report; completed shards' checkpoints survive, so
    re-running with [resume = true] continues from them.  Raises
    [Invalid_argument] on nonsensical configs (unknown preset,
    [shards < 1], ...). *)
val run :
  ?exe:string ->
  ?progress:(progress -> unit) ->
  resume:bool ->
  config ->
  (Aggregate.t * stats, string) result

(** Worker-mode dispatch: when [Sys.argv] is [|_; "--mega-worker";
    <json>|], runs the shard described by [<json>] and exits the
    process (0 on success).  Host binaries call this before any other
    argv parsing; it returns immediately in a normal invocation.

    Crash injection (for the kill-and-resume CI smoke): with
    [PIPESCHED_MEGA_CRASH="<shard>:<n>"] in the environment, that
    shard's worker SIGKILLs itself the moment its {e shard-relative}
    progress reaches [n] blocks — mid-stream, deliberately between
    checkpoints. *)
val run_if_worker : unit -> unit

(** {2 Checkpoint internals (exposed for tests)} *)

val config_fingerprint : config -> string
val checkpoint_path : config -> int -> string

val write_checkpoint :
  config -> shard:int -> done_blocks:int -> rss0_kb:int -> Aggregate.t -> unit

(** [(done, rss0_kb, rss_kb, aggregate)] of a shard's checkpoint, or
    [None] when absent, unparsable, config-mismatched, or internally
    inconsistent. *)
val read_checkpoint :
  config -> shard:int -> (int * int * int * Aggregate.t) option
