(** The list scheduler (§3.2).

    Produces the initial schedule that seeds the branch-and-bound search.
    The paper's heuristic (from [ZaD90]) "arranges the tuples into a
    sequential order so that the distance between each instruction and the
    instructions that depend on it is as large as possible", and §4.1 notes
    the list scheduler does {e not} consult the pipeline tables — the seed
    is machine-independent.  {!Max_distance} realizes this; the other
    heuristics exist for comparison and ablation. *)

open Pipesched_ir
open Pipesched_machine

type heuristic =
  | Max_distance
      (** greedy ready-list order by descending DAG height (unit edge
          weights), ties broken by descendant count then block order: the
          machine-independent [ZaD90]-style heuristic *)
  | Latency_weighted of Machine.t
      (** like {!Max_distance} but edges weighted by the producer's pipeline
          latency on the given machine (ablation: a machine-aware seed) *)
  | Source_order
      (** the block's original order (ablation: no list scheduling) *)
  | Random_order of int
      (** a uniformly random topological order from the given seed
          (ablation: a poor seed for the alpha-beta synergy study) *)

(** [priorities heuristic dag] assigns each position a static priority;
    greater means schedule earlier. *)
val priorities : heuristic -> Dag.t -> int array

(** [schedule heuristic dag] is a legal order (new position -> original
    position): at each step the ready instruction with the greatest
    priority is emitted. *)
val schedule : heuristic -> Dag.t -> int array

(** [order_by_priority heuristic dag] is all positions sorted by descending
    priority (not necessarily a legal schedule); the search uses it as its
    candidate-enumeration order. *)
val order_by_priority : heuristic -> Dag.t -> int array

(** [schedule_by_priorities prio dag] is {!schedule} with the priorities
    already computed ([prio] as {!priorities} returns it), so a caller
    that also needs {!order_of_priorities} computes them once. *)
val schedule_by_priorities : int array -> Dag.t -> int array

(** [order_of_priorities prio] is {!order_by_priority} from precomputed
    priorities. *)
val order_of_priorities : int array -> int array
