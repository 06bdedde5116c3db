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
    greater means schedule earlier.  O(n + edges) for {!Source_order}
    and {!Random_order}; the height heuristics also union descendant
    sets, one backward pass over one flat array of ceil(n / 63) words
    per position, O(edges * n / 63). *)
val priorities : heuristic -> Dag.t -> int array

(** [rank_order prio] is the rank order: every position, by descending
    priority ([prio] as {!priorities} returns it), ties in block order
    (rank [r] -> position).  The order is total, so it is the one any
    correct sort by (descending priority, position) gives.  It is not
    necessarily a legal schedule; the search enumerates candidates in
    it, and {!walk} draws the seed from it.  An insertion sort: O(n^2)
    comparisons at worst, no allocation but the result. *)
val rank_order : int array -> int array

(** [walk dag order] is the list schedule over the rank order [order]
    (new position -> original position): at each step it emits the
    ready position of lowest rank, that is, of greatest priority, the
    smallest position on ties.  The ready set is kept as rank bits, so
    a step is a scan for the lowest set bit and the walk is
    O(n * ceil(n / 63) + edges), allocating four arrays of at most n
    words.  Every edge runs forward in block order ({!Dag}), so a ready
    position exists at every step. *)
val walk : Dag.t -> int array -> int array

(** [schedule heuristic dag] is
    [walk dag (rank_order (priorities heuristic dag))], a legal order:
    at each step the ready instruction with the greatest priority,
    ties to the smallest position.  A caller that also enumerates
    candidates in the rank order (the search in [Optimal], and
    [Windowed]) computes it once for both. *)
val schedule : heuristic -> Dag.t -> int array
