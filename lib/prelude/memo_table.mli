(** Bounded open-addressing map from fixed-width integer keys to
    fixed-width integer values, built for the optimal search's
    state-dominance transposition table.

    Everything lives in four flat int Bigarrays, outside the OCaml
    heap: the collector never scans a table, and a dead one is freed as
    a whole when collected instead of sitting in the major heap, which
    the collector sizes in proportion to what it holds.  A lookup
    allocates nothing, so lookups put no pressure on the GC; a store
    allocates only when it grows the table, and that memory counts
    towards the collector's pace like any large allocation.  The
    backing arrays start at [initial] entries (default: the full
    capacity) and double transparently on store as the table fills, up
    to the capacity bound — tiny searches that touch a handful of states
    never pay for a full-size allocation.  Capacity is bounded: once the bound is
    reached, when the probe window of a new entry is full, the entry at
    the {e deepest} recorded search depth is evicted (a shallow entry
    guards a larger subtree, so it is worth more), and an entry deeper
    than every incumbent is dropped instead of stored.

    Keys are compared for real equality (word by word), never only by
    hash.  Values are plain int rows that the table stores and moves
    but never interprets: the caller reads a row back through {!values}
    and runs its own dominance test on it (the search keeps its
    fingerprint encoding and that test together, in
    [Pipesched_core.Optimal]). *)

type t

(** [create ~capacity ~key_words ~value_words] — an empty table holding
    at most [capacity] entries (rounded up to a power of two) of
    [key_words]-word keys and [value_words]-word values, fully allocated
    up front (no growth).  Raises [Invalid_argument] when any argument is
    [< 1]. *)
val create : capacity:int -> key_words:int -> value_words:int -> t

(** [create_growing ~initial ~capacity ...] — like {!create}, but the
    backing arrays start at [initial] entries (rounded up to a power of
    two, capped at [capacity]) and double transparently as stores land,
    up to the [capacity] bound.  The search activates its memo mid-run,
    so starting small keeps short searches from paying a full-capacity
    allocate-and-zero. *)
val create_growing :
  initial:int -> capacity:int -> key_words:int -> value_words:int -> t

(** Entry capacity bound (after rounding up to a power of two). *)
val capacity : t -> int

(** Slots currently allocated ([<= capacity]; grows as entries land). *)
val allocated : t -> int

(** Entries currently stored. *)
val entries : t -> int

(** Entries displaced by depth-preferring eviction so far. *)
val evictions : t -> int

(** [find t ~hash key] is the slot holding [key] (length [key_words];
    [hash] must be the caller's hash of it), or [-1] when absent.  Slots
    stay valid until the next [store] or [clear]. *)
val find : t -> hash:int -> int array -> int

(** The backing store of the value rows. *)
type rows = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [values t] is the backing store of value rows, shared with the
    table (read-only by convention: never write it).  The row of [slot]
    is the [value_words] words starting at [slot * value_words]; only
    the rows of occupied slots hold anything.  Allocation-free; like a
    slot, valid until the next [store] or [clear] (a store may grow the
    table, which moves every row). *)
val values : t -> rows

(** Search depth recorded with the entry at [slot]. *)
val depth_at : t -> int -> int

(** [store t ~hash ~depth ~key ~value] inserts or replaces the entry for
    [key].  A matching key is overwritten in place; otherwise an empty
    slot in the probe window is used; otherwise, below the capacity
    bound, the table doubles and the store retries; at the bound the
    deepest entry of the window is evicted if it is deeper than [depth].
    Returns [false] when the entry was dropped (window full of shallower
    entries at full capacity).  Raises [Invalid_argument] on a negative
    [depth] or mis-sized arrays. *)
val store : t -> hash:int -> depth:int -> key:int array -> value:int array -> bool

(** Empty the table in place (counters reset too). *)
val clear : t -> unit
