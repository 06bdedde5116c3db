(** Baseline schedulers and search-space counters (§1, §2.3, Table 1).

    These provide the comparison points of the paper's evaluation:

    - the size of the unpruned exhaustive search ([n!]),
    - the "pruning illegal only" search, which enumerates every legal
      (topological) order and evaluates each with Omega,
    - greedy one-pass heuristics in the style of Abraham et al. [AbP88] and
      Gross [Gro83] (reconstructed; see DESIGN.md). *)

open Pipesched_ir
open Pipesched_machine

(** [factorial_float n] is [n!] as a float (the paper's "Exhaustive Search
    Calls" column; exact up to 2^53, the right magnitude beyond). *)
val factorial_float : int -> float

(** [count_legal_schedules ?cutoff dag] counts topological orders of the
    DAG, stopping at [cutoff] (default [10_000_000]).  [`Exact n] when
    the count completed, [`At_least cutoff] when the ceiling stopped it
    first — the paper's ">9,999,000" entries. *)
val count_legal_schedules :
  ?cutoff:int ->
  Dag.t ->
  [ `Exact of int | `At_least of int ]

(** Result of an enumeration-based search. *)
type search_result = {
  best : Omega.result;
  schedules_tried : int;  (** complete schedules evaluated (Omega calls) *)
  complete : bool;
      (** false when the cutoff stopped it; [best] is a legal schedule
          either way *)
}

(** [legal_only_search ?cutoff machine dag] evaluates {e every} legal
    order (up to [cutoff] complete schedules, default [10_000_000]) and
    returns the best.  Optimal when [complete] — this is the "pruning
    illegal calls" baseline of Table 1.  Exponential: only run on small
    blocks. *)
val legal_only_search :
  ?cutoff:int ->
  Machine.t ->
  Dag.t ->
  search_result

(** [greedy machine dag] is the one-pass earliest-issue heuristic in the
    spirit of Abraham et al.: at each step, schedule the ready instruction
    needing the fewest NOPs right now, breaking ties toward the greater
    DAG height, then the smaller original position.  Returns the order. *)
val greedy : Machine.t -> Dag.t -> int array

(** [gross machine dag] reconstructs Gross's postpass heuristic flavor:
    among ready instructions that can issue without any NOP, pick the one
    with the most immediate successors (unblocking the most work), ties to
    greater height; if every candidate needs NOPs, fall back to the
    fewest-NOPs choice.  Returns the order. *)
val gross : Machine.t -> Dag.t -> int array
