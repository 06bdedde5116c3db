(** Shared incumbent for searches racing on one block — the portfolio's
    branch-and-bound and propagation sides, seeded by the list schedule.

    An incumbent couples a lock-free {e bound} — one [Atomic.t] int
    packing the pair [(nops, owner)] so that numeric order is
    lexicographic order — with a mutex-guarded {e payload} slot holding
    the best schedule found so far.  The packed key is monotone
    decreasing, which is what makes concurrent use sound for
    alpha-beta pruning: a searcher that reads a stale key sees an
    {e older (weaker)} bound, so it can only prune less than the
    freshest bound would allow, never more.  The optimum is therefore
    never discarded by racing readers.

    Rank protocol.  Each searcher carries a {e rank}: [-1] for the seed,
    which precedes every searcher, then one rank per racing side (the
    portfolio uses [0] for the branch-and-bound and [1] for the
    propagation solver).  Equal-NOP results are resolved by rank —
    {!admits} and {!submit} accept [(nops, task)] only when it is
    lexicographically below the current key, and {!limit} lets a
    searcher keep exploring bound-[v] ties exactly while the current
    owner outranks it.  So a lower-ranked side may still claim a tie
    that a higher-ranked peer published first. *)

(** The atomic bound alone — what the search hot path polls.  Obtained
    from {!gate}; readers never take the payload mutex. *)
type gate

(** A shared incumbent carrying a payload of type ['a] (the best
    schedule, in whatever representation the caller uses). *)
type 'a t

(** Largest admissible rank (the packed owner field's width bounds
    it). *)
val max_task : int

(** A fresh, empty incumbent: {!bound} is [None], {!limit} is
    [max_int], any valid submission is accepted. *)
val create : unit -> 'a t

val gate : 'a t -> gate

(** [bound g] is [Some (nops, owner)] for the current best, or [None]
    when nothing has been submitted.  [owner] is [-1] for a seed. *)
val bound : gate -> (int * int) option

(** [limit g ~task] is the exclusive pruning limit for the searcher of
    rank [task]: a node whose lower bound reaches [limit] cannot lead
    to an acceptable submission and may be pruned.  It is [v] when the
    current owner's rank is [<= task] (ties already belong to a
    lower-or-equal rank) and [v + 1] while the owner outranks [task]
    (rank [task] may still claim a [v]-valued tie). *)
val limit : gate -> task:int -> int

(** [admits g ~nops ~task] — would a [(nops, task)] submission be
    accepted right now?  Racy by design (the hot-path pre-check); the
    authoritative test is re-run under the mutex by {!submit}. *)
val admits : gate -> nops:int -> task:int -> bool

(** [submit t ~nops ~task make] installs [make ()] as the payload iff
    [(nops, task)] lexicographically improves on the current key, and
    returns whether it did.  [make] is evaluated only on acceptance,
    under the payload mutex.  [task] must be in [-1 .. max_task];
    [nops] must be non-negative. *)
val submit : 'a t -> nops:int -> task:int -> (unit -> 'a) -> bool

(** The final [(nops, payload)], or [None] when nothing was submitted.
    Takes the payload mutex; meant for after the race has joined. *)
val best : 'a t -> (int * 'a) option
