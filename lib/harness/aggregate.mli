(** Constant-memory streaming aggregate of study records.

    The mega study never materializes a record list: every per-block
    outcome is folded into this bounded structure — counters, sums, a
    fixed-bucket block-size histogram, a k-minimum-values (KMV) sketch
    of canonical-DAG hashes for a global unique-block estimate, and a
    log-bucketed histogram of per-block wall times for percentile
    queries.  State is O(1) regardless of how many blocks stream
    through, which is what keeps a 10^6-block run's RSS flat.

    Aggregates {b merge}: [merge_into] combines two disjoint
    sub-population aggregates into the aggregate of their union
    (counters and histograms add; KMV sketches union).  Merging is
    associative and, for the deterministic part of the state,
    commutative — the mega master still merges shards in shard-id
    order so even the non-deterministic float fields accumulate in a
    fixed order.

    The {b determinism split}: {!render} serializes exactly the fields
    that are a pure function of the corpus definition (master seed,
    count, machine, lambda) — wall-clock times and dedup-cache hit
    counts are excluded, because times vary run to run and cache hits
    depend on how duplicates land across shards and LRU evictions.
    [render] is the byte-identity artifact CI compares
    across shard counts and across kill/resume runs.  {!to_json} /
    {!of_json} serialize the {e full} state (including time histograms)
    for checkpoints. *)

module Json = Pipesched_prelude.Json

(** The log-bucketed latency/time histogram used internally for block
    wall times, exposed for reuse: 64 buckets, 8 per decade over
    [1us, 100s), ~33% relative resolution, constant memory, merges by
    addition. *)
module Timehist : sig
  type t

  val create : unit -> t

  (** [add t seconds] folds one observation. *)
  val add : t -> float -> unit

  (** Observations folded in. *)
  val count : t -> int

  (** [quantile t q] with [0 <= q <= 1], to bucket resolution; [0.]
      when empty. *)
  val quantile : t -> float -> float

  val merge_into : dst:t -> t -> unit
end

(** {!Timehist} keyed by a string — one sketch per response stage in
    the load harness ([hit] / [fresh] / [curtailed] / ...).  Absent
    keys read as empty; [merge_into] merges key-wise. *)
module Keyed : sig
  type t

  val create : unit -> t
  val add : t -> string -> float -> unit
  val count : t -> string -> int

  (** Observations across all keys. *)
  val total : t -> int

  val quantile : t -> string -> float -> float

  (** Keys with at least one sketch, sorted. *)
  val keys : t -> string list

  val merge_into : dst:t -> t -> unit
end

type t

val create : unit -> t

(** [add_record t ~hash r] folds one scheduled block: [hash] is the
    block's canonical-DAG hash (folded into the KMV distinct sketch);
    [from_cache] (default false) marks a record replayed from the
    per-shard dedup cache rather than searched (counted in
    {!dedup_hits}, which is excluded from {!render}). *)
val add_record : t -> ?from_cache:bool -> hash:int -> Study.record -> unit

(** Fold one contained per-block failure (generation or search raised). *)
val add_failure : t -> unit

(** [merge_into ~dst src] folds [src] into [dst].  [src] is unchanged. *)
val merge_into : dst:t -> t -> unit

(** {2 Accessors} *)

(** Records + failures folded in. *)
val blocks : t -> int

val failed : t -> int
val completed : t -> int
val dedup_hits : t -> int
val sum_time_s : t -> float

(** Estimated distinct canonical classes (KMV; exact below the sketch
    capacity of 256, unbiased above it). *)
val distinct_estimate : t -> float

(** [time_quantile t q] is the [q]-quantile ([0 <= q <= 1]) of per-block
    search wall time, to log-bucket resolution (~33% per bucket); [0.]
    when empty. *)
val time_quantile : t -> float -> float

(** {2 Serialization} *)

(** The deterministic sub-state as JSON (fixed key order).  Excludes
    wall times and dedup-cache hits; includes a fingerprint of the KMV
    sketch so any divergence in the observed hash population shows. *)
val deterministic_json : t -> Json.t

(** [Json.to_string (deterministic_json t)] — the byte-identity
    artifact. *)
val render : t -> string

(** Full state (checkpoint serialization), including time histograms. *)
val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result

(** Human-readable summary; [wall_s] adds end-to-end blocks/sec. *)
val pp : ?wall_s:float -> Format.formatter -> t -> unit
