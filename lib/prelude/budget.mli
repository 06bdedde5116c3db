(** The search budget: the paper's curtail point lambda, a count of
    units of work (Omega calls for the branch-and-bound, decisions plus
    conflicts for cp), extended with an optional wall-clock deadline.

    Budgets make every search {e anytime}: the search checks the budget
    before each unit of work and counts the unit after it; on expiry it
    unwinds and returns its best incumbent together with the {!status}
    that stopped it.  Lambda is checked before the spend, so it admits
    exactly lambda units, and it outranks the deadline.

    Determinism: when [deadline_s] is [None] the clock is never read —
    the budget is a pure integer comparison, so count-bounded runs are
    reproducible bit-for-bit.  With a deadline set, the clock is read at
    {!start} and then only at checks made when the units spent are a
    multiple of {!check_stride}, bounding the overshoot past the deadline
    to a few dozen units. *)

(** How a search ended.  [Complete] — ran to natural termination (the
    result is whatever optimality the search proves); the other two are
    curtailments: the unit count or the wall-clock deadline stopped it
    first.  A curtailed search still returns a legal incumbent. *)
type status = Complete | Curtailed_lambda | Curtailed_deadline

(** Exact variant name, e.g. ["Curtailed_deadline"] — stable, grep-able
    spelling used by CLI output and the daemon's JSON responses. *)
val status_to_string : status -> string

(** Replace the clock used for deadlines (default [Unix.gettimeofday]).
    Call once at startup, before any budget is started — e.g. to install
    a true monotonic clock, or a test's fake clock. *)
val set_clock : (unit -> float) -> unit

(** The clock's current reading. *)
val now : unit -> float

(** Units between deadline checks (a power of two). *)
val check_stride : int

(** Read-only outside this module. *)
type t = private {
  lambda : int;             (** the unit count that stops the search *)
  deadline : float option;  (** absolute clock reading, if any *)
  mutable spent : int;      (** units spent so far *)
  mutable stopped : status;
      (** [Complete] until a limit trips, then the limit — sticky *)
}

(** [start ~lambda ?deadline_s ()] begins a budget of [lambda] units and,
    when given, [deadline_s] seconds from now.  Reads the clock iff a
    deadline is set. *)
val start : lambda:int -> ?deadline_s:float -> unit -> t

(** Count one unit of work. *)
val spend : t -> unit

(** [exhausted t] — checked before each unit: [true] once a limit has
    tripped, recording it in [t.stopped].  Lambda is tested first; then,
    when a deadline is set and [t.spent] is a multiple of
    {!check_stride}, the clock.  Sticky: after the first [true] it stays
    [true] without reading the clock. *)
val exhausted : t -> bool

(** Raised by {!checkpoint}. *)
exception Exhausted

(** [checkpoint t ~spent] serves a search that keeps its own count:
    it records [spent], raises {!Exhausted} when {!exhausted} trips, and
    otherwise returns the count at which the search must call it again
    — lambda when no deadline is set, else the next stride multiple
    (or lambda).  Called first at 0 and then only at the counts it
    returns, it agrees with calling {!exhausted} before every unit,
    while the search pays one integer comparison per unit. *)
val checkpoint : t -> spent:int -> int
