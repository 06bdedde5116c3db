(** Bounded, mutex-protected LRU map from string keys to arbitrary
    values — the schedule cache behind [pipesched_server].

    Unlike {!Memo_table} (a lossy, allocation-free transposition table
    private to one search), this is an exact cache shared {e across}
    requests and domains: every operation takes an internal [Mutex], so
    concurrent readers and writers from different domains are safe.  Keys
    are compared by full string equality — a colliding hash can never
    alias two entries.

    Eviction is strict least-recently-used: {!find} hits and {!put}
    (insert or replace) both move the entry to the most-recent end;
    inserting into a full cache drops the least-recent entry.  Hits,
    misses and evictions are counted for the server's stats line. *)

type 'v t

(** [create ~capacity] — an empty cache holding at most [capacity]
    entries.  [capacity = 0] is legal and makes the cache inert (every
    {!find} misses, {!put} is a no-op) so callers can disable caching
    without branching.  Raises [Invalid_argument] when negative. *)
val create : capacity:int -> 'v t

val capacity : 'v t -> int

(** Entries currently stored. *)
val length : 'v t -> int

(** [find t key] returns the cached value and promotes the entry to
    most-recently-used.  Counts a hit or a miss. *)
val find : 'v t -> string -> 'v option

(** [mem t key] — {!find} without promotion or counter updates. *)
val mem : 'v t -> string -> bool

(** [put t key v] inserts or replaces the binding and promotes it to
    most-recently-used, evicting the least-recently-used entry when the
    cache is over capacity.  No-op when [capacity = 0].

    Chaos: when the [cache_insert] fault site ({!Fault}) is armed, the
    insert may raise {!Fault.Injected} before touching the structure —
    callers for whom the cache is an optimization must contain the
    raise and proceed uncached. *)
val put : 'v t -> string -> 'v -> unit

(** Monotone counters since {!create} (or the last {!clear}). *)
val hits : 'v t -> int

val misses : 'v t -> int
val evictions : 'v t -> int

(** Keys from most- to least-recently-used (a snapshot; mainly for
    tests). *)
val keys_mru : 'v t -> string list

(** Drop every entry and reset the counters. *)
val clear : 'v t -> unit
