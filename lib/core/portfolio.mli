(** Portfolio optimal scheduling: the branch-and-bound ({!Optimal}) and
    the propagation/learning solver ({!Pipesched_solve.Cp}) race on two
    domains over the same block, sharing one
    {!Pipesched_prelude.Incumbent} so each side's best-so-far bound
    prunes the other.  The first side to {e prove} optimality cancels
    the loser through a {!Pipesched_prelude.Budget.derive}d token (the
    caller's own token, if any, stays untouched and still cancels both).

    Before any domain is spawned the CP side gets a cheap inline
    {e presolve} (a few hundred decisions against the same shared
    incumbent).  Resource-bound blocks — the bulk of generated corpora —
    are proved outright there, so the common case pays no domain-spawn
    cost and the portfolio stays within epsilon of the bare CP backend.
    When the presolve proves the block, [winner = Some Cp] and the bnb
    side reports zero calls with status [Cancelled].

    The two backends search exactly the same space — legal orders with
    default pipeline choices, scored by the same Omega semantics — so on
    completion their proofs must name the same optimal NOP count, and
    the shared incumbent must hold a witness schedule realizing it.  Any
    violation is a solver bug by construction (DESIGN.md §14), and the
    race raises {!Disagreement}.  Shrinking such a case into a repro is
    the fuzzer's job ([bin/fuzz.ml --backend portfolio]).

    Determinism: the winner, per-side statistics and statuses depend on
    the race, and so does which side's schedule [best] is when both find
    the optimum (the incumbent keeps the first one published); [proved]
    and [best.nops] do not (they are the optimum whenever either side
    completes). *)

open Pipesched_machine

type backend = Bnb | Cp

val backend_name : backend -> string

type side_report = {
  completed : bool;            (** this side proved optimality *)
  status : Pipesched_prelude.Budget.status;
      (** [Cancelled] usually means the peer won the race *)
  proved : int option;         (** proved optimal NOPs, iff [completed] *)
  calls : int;
      (** work units spent: Omega calls (bnb), decisions + conflicts
          (cp) — units differ, comparable only within a backend *)
  best_nops : int;             (** this side's own best schedule *)
}

type outcome = {
  best : Omega.result;
      (** the shared incumbent's schedule — the better of the two
          sides' bests *)
  initial : Omega.result;      (** the evaluated seed (list) schedule *)
  winner : backend option;
      (** first side to prove optimality; [None] when neither did *)
  bnb : side_report;
  cp : side_report;
  proved : int option;         (** the optimum, iff either side proved *)
  status : Pipesched_prelude.Budget.status;
      (** [Complete] iff [proved]; otherwise the limit that stopped the
          race *)
}

(** Raised when the backends disagree (see the module doc); the payload
    names both verdicts. *)
exception Disagreement of string

(** [run machine dag] races the two backends.  [options.lambda] is
    granted to {e each} side in its own units; [options.cancel] cancels
    the whole race. *)
val run :
  ?options:Optimal.options ->
  ?entry:Omega.entry ->
  Machine.t ->
  Pipesched_ir.Dag.t ->
  outcome
