(** Shared incumbent for searches racing on one block — the portfolio's
    branch-and-bound and propagation sides, seeded by the list schedule.

    An incumbent couples a lock-free NOP {e bound} — one [Atomic.t] int,
    [max_int] while empty — with a mutex-guarded {e payload} slot holding
    the schedule that realizes it.  The bound only ever decreases, which
    is what makes concurrent use sound for alpha-beta pruning: a
    searcher that reads a stale bound sees an {e older (weaker)} one, so
    it can only prune less than the freshest bound would allow, never
    more.  The optimum is therefore never discarded by racing readers.

    A submission is accepted only when it strictly lowers the bound, so
    the first schedule published at a NOP count keeps it: on a tie the
    incumbent holds whichever side got there first.  The value the race
    converges to never depends on timing; which side holds the witness
    for it may. *)

(** A shared incumbent carrying a payload of type ['a] (the best
    schedule, in whatever representation the caller uses). *)
type 'a t

(** A fresh, empty incumbent: {!bound} is [max_int], any submission is
    accepted. *)
val create : unit -> 'a t

(** The current bound: the NOP count of the best submission, or
    [max_int] when nothing has been submitted.  One atomic load; the
    search hot path polls it and never takes the payload mutex. *)
val bound : 'a t -> int

(** [submit t ~nops make] installs [make ()] as the payload iff [nops]
    is strictly below the current {!bound}, and returns whether it did.
    [make] is evaluated only on acceptance, under the payload mutex. *)
val submit : 'a t -> nops:int -> (unit -> 'a) -> bool

(** The final [(nops, payload)], or [None] when nothing was submitted.
    Takes the payload mutex; meant for after the race has joined. *)
val best : 'a t -> (int * 'a) option
