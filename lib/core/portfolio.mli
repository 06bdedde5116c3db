(** Portfolio optimal scheduling: the branch-and-bound ({!Optimal}) and
    the propagation/learning solver ({!Pipesched_solve.Cp}) take turns
    on the calling domain, in restart rounds.

    In each round bnb gets [s] Omega calls and then cp gets [s / 16]
    decisions plus conflicts, for [s = 500, 2000, 8000, ...]; the round
    where [4s] passes [lambda] gives both sides the full [lambda], so
    every block either side proves at [lambda] is still proved, and the
    earlier rounds add at most [lambda / 3] Omega calls and [lambda / 48]
    cp units.  Each side starts from the best schedule so far as an
    exclusive NOP bound, and the first proof ends the run.  Cheap blocks
    are settled by bnb's first round; resource-bound blocks, where bnb's
    tree is large and cp's packing bound refutes quickly, by an early cp
    round.

    The two backends search exactly the same space — legal orders with
    default pipeline choices, scored by the same Omega semantics — so a
    proof must be realized by the best schedule held.  Any violation is a
    solver bug by construction (DESIGN.md §14), and the run raises
    {!Disagreement}.  Shrinking such a case into a repro is the fuzzer's
    job ([bin/fuzz.ml --backend portfolio]).

    Determinism: with no deadline every field of the outcome, [winner]
    and the witness [best] included, is a function of the input. *)

open Pipesched_machine

type backend = Bnb | Cp

val backend_name : backend -> string

type side_report = {
  calls : int;
      (** work units spent over all rounds: Omega calls (bnb), decisions
          + conflicts (cp) — units differ, comparable only within a
          backend *)
}

type outcome = {
  best : Omega.result;
      (** the best schedule either side found (the first found, on a
          tie) *)
  initial : Omega.result;      (** the evaluated seed (list) schedule *)
  winner : backend option;
      (** the side whose round proved optimality; [None] when neither
          did *)
  bnb : side_report;
  cp : side_report;
  proved : int option;         (** the optimum, iff a side proved it *)
  status : Pipesched_prelude.Budget.status;
      (** [Complete] iff [proved]; otherwise the limit that stopped the
          run: [lambda] after the last round, or the deadline or token
          that stopped a round *)
}

(** Raised when a side's proof is not realized by the best schedule
    held (see the module doc); the payload names the side and both
    values. *)
exception Disagreement of string

(** [run machine dag] runs the rounds.  [options.lambda] is the last
    round's budget for {e each} side, in its own units;
    [options.deadline_s] covers the whole run, and [options.cancel]
    stops whichever round is running. *)
val run :
  ?options:Optimal.options ->
  ?entry:Omega.entry ->
  Machine.t ->
  Pipesched_ir.Dag.t ->
  outcome
