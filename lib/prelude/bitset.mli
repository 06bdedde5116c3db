(** Dense, fixed-capacity sets of small non-negative integers.

    Used for transitive-closure computations over instruction DAGs and for
    the scheduled-set bookkeeping of the search.  All operations are O(1) or
    O(capacity/63); the representation is a flat [int array] of
    ceil(capacity / 63) bit words (none for capacity 0), so a set over
    fewer than 64 members is one word. *)

type t

(** [create n] is the empty set over universe [0 .. n-1]. *)
val create : int -> t

(** Capacity the set was created with. *)
val capacity : t -> int

(** [mem s i] tests membership.  Raises [Invalid_argument] out of range. *)
val mem : t -> int -> bool

(** [add s i] adds [i] in place. *)
val add : t -> int -> unit

(** [remove s i] removes [i] in place. *)
val remove : t -> int -> unit

(** Number of elements currently in the set. *)
val cardinal : t -> int

(** [copy s] is an independent copy of [s]. *)
val copy : t -> t

(** [union_into ~into s] adds every element of [s] to [into].
    Both must share the same capacity. *)
val union_into : into:t -> t -> unit

(** [inter s1 s2] is a fresh set holding the intersection. *)
val inter : t -> t -> t

(** [subset s1 s2] is true when every element of [s1] is in [s2]. *)
val subset : t -> t -> bool

(** [iter f s] applies [f] to every member in increasing order.
    Skips empty words, so cost is O(capacity/63 + cardinal). *)
val iter : (int -> unit) -> t -> unit

(** Members in increasing order. *)
val elements : t -> int list

(** [clear s] empties the set in place. *)
val clear : t -> unit

(** [equal s1 s2] tests extensional equality (same capacity required). *)
val equal : t -> t -> bool

(** Member [i] is bit [i mod bits_per_word] of word [i / bits_per_word]
    of {!raw_words} (the layout {!hash} reads), for callers that update
    the words in place. *)
val bits_per_word : int

(** [popcount w] is the number of set bits of the word [w], bit 62 (the
    sign bit) included: a branch-free SWAR count, about a dozen integer
    operations whatever [w] holds. *)
val popcount : int -> int

(** [ntz b] is the index of the one set bit of the one-bit word [b]
    (the lowest member of a word [w] is [ntz (w land (- w))]).  It reads
    a 67-entry table at [b mod 67]: a mask, a division by a constant
    (which compiles to a multiply) and a byte load, with no branch but a
    bounds check.  Bit 62 is [min_int], negative, so it is masked to
    remainder 0 first.  Unspecified unless [b] has exactly one bit set. *)
val ntz : int -> int

(** The backing word array, shared with the set: a write to it is a
    write to the set.  Allocation-free access for callers that key hash
    tables by set contents (the search's transposition table) or that
    add and remove members in place, without a call per bit (the
    search's ready and scheduled sets).  Only the bits of members in
    [0 .. capacity - 1] may ever be set. *)
val raw_words : t -> int array

(** A word-mixing hash of the set's contents.  Allocation-free;
    non-negative; equal sets of equal capacity hash equally. *)
val hash : t -> int
