(** Combined search budget: the paper's call-count curtail point (lambda)
    extended with an optional wall-clock deadline and an optional
    cancellation token shared across OCaml 5 domains.

    Budgets make every search {e anytime}: a checker calls {!exhausted}
    before each unit of work and {!spend} after it; on expiry the search
    unwinds and returns its best incumbent together with the {!status}
    that stopped it.

    Determinism: when [deadline_s] is [None] the clock is never read —
    the budget degenerates to a pure integer comparison, so call-bounded
    runs are reproducible bit-for-bit.  With a deadline set, the clock is
    consulted only once per {!check_stride} spends (a power-of-two mask
    test otherwise), bounding the overshoot past the deadline to a few
    dozen cheap Omega calls. *)

(** Cross-domain cancellation flag (one [Atomic.t] bool): safe to
    {!cancel} from any domain while searches poll it from workers. *)
type token

val token : unit -> token

val cancel : token -> unit
val is_cancelled : token -> bool

(** How a search ended.  [Complete] — ran to natural termination (the
    result is whatever optimality the search proves); the other three are
    curtailments: the call budget, the wall-clock deadline, or the shared
    token stopped it first.  In every curtailed case the search still
    returns a legal incumbent. *)
type status = Complete | Curtailed_lambda | Curtailed_deadline | Cancelled

(** Exact variant name, e.g. ["Curtailed_deadline"] — stable, grep-able
    spelling used by CLI output and the daemon's JSON responses. *)
val status_to_string : status -> string

val is_complete : status -> bool

type limits = {
  calls : int option;       (** max spends (the paper's lambda) *)
  deadline_s : float option;(** wall-clock seconds from {!start} *)
  cancel : token option;    (** shared cancellation token *)
}

(** No limits at all: {!exhausted} is always [None]. *)
val unlimited : limits

(** Replace the clock used for deadlines (default [Unix.gettimeofday]).
    Call once at startup, before any budget is started — e.g. to install
    a true monotonic clock, or a test's fake clock. *)
val set_clock : (unit -> float) -> unit

(** Spends between deadline re-checks (a power of two). *)
val check_stride : int

type t

(** [start limits] begins a budget.  Reads the clock iff a deadline is
    set. *)
val start : limits -> t

(** Record one unit of work (one Omega call). *)
val spend : t -> unit

(** Units spent so far. *)
val spent : t -> int

(** [exhausted t] is [Some reason] once any limit has tripped — sticky:
    after the first [Some] the same reason is returned forever without
    re-reading clock or token.  Checked in the order: cancellation, call
    count, deadline.  Never returns [Some Complete]. *)
val exhausted : t -> status option

(** [expiry t] — which limit has actually tripped, for post-hoc status
    reporting.  Identical to {!exhausted} except that the strided
    deadline gate is bypassed: a deadline that passed between two
    strided clock reads is reported as [Curtailed_deadline] instead of
    [None].  Sticky, and reads the clock only when a deadline is set. *)
val expiry : t -> status option

(** Wall time since {!start}; [0.0] when no deadline is set (the clock is
    not read in that case, preserving determinism). *)
val elapsed_s : t -> float
