(** The NOP-insertion procedure Omega (§2.3, §4.2.2).

    Given a machine, a dependence DAG and a schedule (an ordering of the
    block's tuples), Omega computes the minimum number of NOPs that must be
    inserted before each instruction so that

    - {b dependence} is respected: an instruction issues no earlier than
      [latency] ticks after each producer it reads from, and
    - {b conflict} is avoided: two instructions entering the same pipeline
      issue at least [enqueue] ticks apart.

    Instruction [k] of the schedule issues at tick
    [t(k) = t(k-1) + 1 + eta(k)], with [t(0) = 0]; [eta(k)] is the NOP count
    before instruction [k].  Inserting the minimum NOPs greedily per prefix
    is optimal for a fixed order, since delaying an issue can never allow an
    earlier issue later.

    (The paper's tau formula in §4.2.2 step [3] omits the "+1 per
    intervening instruction" term; this implementation follows the worked
    examples of §2.1, which include it — see DESIGN.md.)

    {!State} is the incremental version used by the branch-and-bound search:
    instructions are pushed one at a time onto a partial schedule and popped
    on backtrack, each push being one "Omega call" in the paper's
    accounting. *)

open Pipesched_ir

type result = {
  order : int array;  (** new position -> original block position *)
  eta : int array;    (** NOPs inserted before each (new) position *)
  issue : int array;  (** issue tick of each (new) position *)
  pipes : int array;
      (** pipeline each (new) position was scheduled on; [-1] =
          resource-free.  Recorded so {!span} and {!explain} measure the
          pipelines a schedule {e actually} used (which differ from the
          per-op defaults for {!evaluate_with_pipes} and the multi-pipe
          search). *)
  nops : int;         (** total NOPs: the paper's mu *)
}

(** Cross-block entry conditions (the paper's footnote 1: adjacent-block
    interactions are handled "by modifying the initial conditions in the
    analysis for each block").

    [pipe_last_use.(p)] is the issue tick — relative to this block's tick
    0 — of the most recent operation enqueued in pipeline [p] by preceding
    code, or a very negative value when the pipeline is quiescent.  A
    pipeline used on the final tick of the previous block has entry
    [-1]. *)
type entry = { pipe_last_use : int array }

(** A quiescent entry state for the given machine. *)
val cold_entry : Machine.t -> entry

(** [identity_order n] is [[|0; 1; ...; n-1|]]. *)
val identity_order : int -> int array

(** [evaluate machine dag ~order] runs Omega on a complete schedule.
    [order] maps new position to original position and must be a legal
    topological order of [dag] (check with {!Dag.is_legal_order}); each
    operation runs on its default pipeline.  [entry] (see {!type-entry})
    carries pipeline state in from preceding code.  Raises
    [Invalid_argument] on an illegal order. *)
val evaluate :
  ?entry:entry -> Machine.t -> Dag.t -> order:int array -> result

(** Like {!evaluate}, but with an explicit pipeline choice per original
    position ([None] = resource-free; must be a candidate pipeline for the
    tuple's operation). *)
val evaluate_with_pipes :
  ?entry:entry ->
  Machine.t -> Dag.t -> order:int array -> choice:int option array -> result

(** Issue-time-based total execution span of a schedule: the largest
    issue tick plus result latency over all instructions (the tick at
    which the block's last value is available).  Latencies come from the
    pipelines recorded in [result.pipes], so spans are correct for
    non-default pipeline choices too. *)
val span : Machine.t -> Dag.t -> result -> int

(** Why an instruction could not issue earlier. *)
type stall_cause =
  | Dependence of int
      (** waiting for the producer at this original position *)
  | Conflict of int  (** the pipeline with this id was still busy *)

(** [explain machine dag result] attributes every non-zero [eta] to its
    binding constraint: for each schedule position with stalls, the NOP
    count and the tightest cause (ties prefer dependences).  Positions
    that issue without delay are omitted, as are stalls forced purely by
    cross-block {!type-entry} state (they have no in-block culprit). *)
val explain :
  Machine.t -> Dag.t -> result -> (int * int * stall_cause) list

(** Render {!explain} for humans, one line per stalled instruction. *)
val explain_to_string : Machine.t -> Dag.t -> result -> string

module State : sig
  (** The partial schedule.  The record is exposed read-only so the
      search's inner loop reads the state without a call per field
      (dune's default profile compiles with [-opaque], so no call into
      another module is inlined); only the functions below change it.
      Arrays are shared with the state: never write them. *)
  type t = private {
    machine : Machine.t;
    dag : Dag.t;
    n : int;  (** instructions in the block *)
    preds : int array array;  (** DAG predecessors, by position *)
    succs : int array array;  (** DAG successors, by position *)
    default_pipe : int array;
        (** default pipeline by position, [-1] = resource-free *)
    pipe_latency : int array;  (** by pipeline id *)
    pipe_enqueue : int array;  (** by pipeline id *)
    issue : int array;
        (** issue tick by position (meaningful once scheduled) *)
    prod_latency : int array;
        (** latency of the pipeline each scheduled position runs on (1
            when resource-free): its result is available at
            [issue + prod_latency] *)
    scheduled : bool array;  (** by position *)
    unsched_preds : int array;
        (** unscheduled DAG predecessors, by position *)
    last_on_pipe : int array;
        (** issue tick of the last instruction per pipeline, or a large
            negative sentinel *)
    stack : int array;  (** scheduled positions, by depth *)
    eta_stack : int array;  (** NOPs before each depth *)
    pipe_stack : int array;  (** pipeline per depth, [-1] = none *)
    undo_last : int array;  (** [last_on_pipe] before each depth's push *)
    mutable sp : int;  (** depth: instructions scheduled *)
    mutable total_nops : int;  (** mu(Phi) *)
  }

  (** A fresh empty partial schedule.  [entry] (default
      {!cold_entry}) carries pipeline state across block boundaries. *)
  val create : ?entry:entry -> Machine.t -> Dag.t -> t

  (** Total number of instructions in the block. *)
  val length : t -> int

  (** Number of instructions currently scheduled (the size of Phi). *)
  val depth : t -> int

  (** NOPs accumulated by the partial schedule (the paper's mu(Phi)). *)
  val nops : t -> int

  (** [is_scheduled st pos] — is the original position already in Phi? *)
  val is_scheduled : t -> int -> bool

  (** [is_ready st pos] — unscheduled with every DAG predecessor scheduled
      (the real legality test [5b], maintained in O(1)). *)
  val is_ready : t -> int -> bool

  (** [push st pos] appends the instruction at original position [pos] on
      its default pipeline, inserting minimal NOPs.  Requires
      [is_ready st pos].  Allocates nothing. *)
  val push : t -> int -> unit

  (** [push_on st pos ~pipe] appends with an explicit pipeline choice.
      [pipe] must be [None] for resource-free ops or one of the operation's
      candidate pipelines. *)
  val push_on : t -> int -> pipe:int option -> unit

  (** Remove the most recently pushed instruction.  Requires [depth > 0]. *)
  val pop : t -> unit

  (** [pop_to st d] pops until [depth st <= d]. *)
  val pop_to : t -> int -> unit

  (** NOPs inserted before the most recently pushed instruction. *)
  val last_eta : t -> int

  (** Original position pushed at depth [k] (0-based). *)
  val at_depth : t -> int -> int

  (** The scheduled prefix as an order array (fresh, length [depth]). *)
  val prefix : t -> int array

  (** Ready positions, in increasing original-position order. *)
  val ready_list : t -> int list

  (** Issue tick of a scheduled original position. *)
  val issue_of : t -> int -> int

  (** [avail_of st pos] is the tick at which the result of the scheduled
      instruction at [pos] becomes available to consumers: its issue
      tick plus the latency of the pipeline it was actually scheduled on
      (1 when resource-free).  Requires [is_scheduled st pos].  Used by
      the search's dominance fingerprint. *)
  val avail_of : t -> int -> int

  (** [last_use st pid] is the issue tick of the most recent instruction
      scheduled on pipeline [pid], or a large negative sentinel when the
      pipeline is so far unused.  Used by the multi-pipe search to detect
      symmetric pipeline choices. *)
  val last_use : t -> int -> int

  (** Finish the remaining instructions in increasing original-position
      order (legal because block order is topological) and return the
      completed schedule's result, leaving the state unchanged. *)
  val complete_greedily : t -> result

  (** [evaluate st ~order] is [Omega.evaluate] on this state: it pushes
      the whole [order] (each operation on its default pipeline) onto the
      empty state, snapshots the result and pops back to empty, so a
      search can score its seed without building a second state.
      Raises [Invalid_argument] when the state is not empty, [order] is
      not a whole-block order, or a position is pushed before its
      predecessors (the state is emptied before raising). *)
  val evaluate : t -> order:int array -> result

  (** The pipeline state a following block would inherit if it started
      issuing on the tick after this (complete) schedule's last
      instruction.  Requires [depth = length]. *)
  val exit_state : t -> entry
end
