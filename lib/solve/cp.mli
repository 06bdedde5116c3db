(** A home-grown propagation/learning (CDCL) scheduler — the second
    optimal backend, run after the branch-and-bound in the portfolio's
    rounds.

    The Ω decision problem "is there a schedule with at most [target]
    NOPs?" is encoded over boolean {e issue-slot} variables [x(i, t)] —
    instruction [i] issues at tick [t] — with every operation pinned to
    its default pipeline, exactly the search space of
    [Optimal.schedule].  With makespan bound [M = n - 1 + target], per
    instruction tick windows [est..lst] come from latency-weighted
    longest paths plus the entry state's pipeline release ticks, and the
    constraints are:

    - {b at-least / at-most one} slot per instruction;
    - {b distinct ticks}: at most one instruction per tick (Ω issues
      strictly increase along the schedule);
    - {b dependence}: [x(u, t)] forbids [x(v, t')] for [t' < t + lat(u)]
      on every edge [u -> v];
    - {b pipe conflicts}: two operations on the same pipeline must issue
      at least [enqueue] ticks apart;
    - a global {b packing} bound (checked at the root and at every
      restart over the level-0 domains): on each pipeline — and over the
      whole block with spacing 1 — the [k] ops with the largest earliest
      ticks cannot all fit before their latest ticks.  This is what lets
      the CP side refute resource-bound targets instantly where the
      enumeration grinds.

    Search is conflict-driven clause learning: eager propagation of the
    binary constraints with implication reasons, 1-UIP conflict analysis
    with activity bumping, two-watched-literal propagation of learned
    nogoods, first-fail decisions (fewest remaining slots, activity
    tie-break) assigning the earliest remaining tick, and geometric
    restarts.  The optimizer tightens the NOP bound iteratively from the
    list-scheduler incumbent: each SAT model is re-evaluated with
    {!Pipesched_machine.Omega.evaluate} (the certified semantics) and
    becomes the new incumbent; UNSAT proves the incumbent optimal.

    Soundness is anchored to Ω on both sides (see DESIGN.md): every Ω
    schedule's issue ticks satisfy the constraint set (so UNSAT refutes
    all of them), and greedy Ω re-evaluation of a model's tick-sorted
    order yields componentwise [<=] issue ticks (so SAT always yields a
    real schedule within the target). *)

open Pipesched_ir
open Pipesched_machine
module Budget = Pipesched_prelude.Budget

type stats = {
  queries : int;      (** decision problems solved (bound tightenings) *)
  decisions : int;
  conflicts : int;
  propagations : int; (** literals propagated *)
  restarts : int;
  learned : int;      (** nogoods learned, summed over queries *)
  completed : bool;   (** optimality proved *)
  status : Budget.status;
  proved : int option;
      (** [Some v] iff [completed]: the proved optimal NOP count.  Under
          a [bound] the proof may be the bound itself, whose witness is
          the caller's, so [best] may be worse than [v]; with no bound,
          [best.nops = v] always. *)
}

type outcome = {
  best : Omega.result;     (** best schedule found (Ω-evaluated) *)
  initial : Omega.result;  (** the evaluated seed (list) schedule *)
  stats : stats;
}

(** [solve machine dag] minimizes total NOPs over legal schedules with
    default pipeline choices.  [lambda] caps decisions + conflicts (the
    CP analogue of the paper's Ω-call budget; units differ from the
    B&B's), checked before each decision; a conflict is counted with no
    check before it.  [deadline_s] makes the solve anytime exactly like
    the B&B: on expiry the best incumbent so far is returned with the
    tripping status.  [seed] picks the list-scheduler heuristic for the
    initial incumbent (default [Max_distance], matching
    [Optimal.default_options]).  [bound] is an exclusive NOP bound known
    from outside (default [max_int]): the caller holds a schedule with
    that many NOPs, so the solve starts its ceiling at the tighter of
    [bound] and the seed (the portfolio's rounds pass the best schedule
    found so far).  Determinism: with no deadline the solve is
    bit-for-bit reproducible — no clock reads, no randomness. *)
val solve :
  ?lambda:int ->
  ?deadline_s:float ->
  ?seed:Pipesched_sched.List_sched.heuristic ->
  ?entry:Omega.entry ->
  ?bound:int ->
  Machine.t ->
  Dag.t ->
  outcome
