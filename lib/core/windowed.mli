(** Windowed scheduling of very large blocks (§5.3).

    The paper suggests that "for very large basic blocks, it might be
    useful to split the basic blocks into smaller sections (containing,
    say, twenty instructions or less each) and find solutions which are
    locally optimal.  A good heuristic for the split might be to simply
    partition the list schedule."  This module implements exactly that:

    + the list schedule of the whole block is computed;
    + it is partitioned into consecutive windows of at most [window]
      instructions;
    + each window is scheduled by the branch-and-bound search, with the
      pipeline state inherited from everything already scheduled
      (the {!Omega.entry}-style warm start) and candidates restricted to
      the window's instructions;
    + the window's best order is committed and the search moves on.

    The result is locally optimal per window, globally heuristic: the
    search cost is bounded by [windows * branching^window] instead of
    [branching^n], and quality degrades gracefully as [window] shrinks
    ([window >= n] recovers the exact algorithm; [window = 1] is exactly
    the list schedule). *)

open Pipesched_machine

type outcome = {
  best : Omega.result;
      (** full schedule of the whole block; never more NOPs than
          [initial] (the seed is returned when per-window improvements
          interact badly) *)
  initial : Omega.result; (** the seed list schedule *)
  window : int;
  window_count : int;
  omega_calls : int;
      (** {e all} Omega pushes performed, including each window's
          incumbent evaluation and the commit of its best order — not
          just the DFS pushes (with [window = 1] this is exactly [3n]) *)
  all_windows_completed : bool;
      (** every per-window search ran to completion within its share of
          the budget (each window's result then provably optimal {e given}
          the committed prefix) *)
  status : Pipesched_prelude.Budget.status;
      (** [Complete] iff [all_windows_completed]; otherwise which budget
          limit (lambda or the deadline) curtailed the search.
          The returned schedule is complete and legal in every case. *)
}

(** [schedule ?options ?entry ~window machine dag] runs the windowed
    search.  [options.lambda] bounds the {e total} Omega calls across all
    windows (every push counted, see [omega_calls]); [options.deadline_s]
    additionally bounds it in wall time.  When the budget runs out
    mid-window, that window and all later ones fall back to their list
    order — committing each window is mandatory, so the
    result is always a complete legal schedule and only O(n) pushes
    remain after expiry.  Raises [Invalid_argument] if [window < 1]. *)
val schedule :
  ?options:Optimal.options ->
  ?entry:Omega.entry ->
  window:int ->
  Machine.t ->
  Pipesched_ir.Dag.t ->
  outcome
