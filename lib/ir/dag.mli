(** Dependence DAG of a basic block.

    Nodes are block {e positions} (0-based, in the original block order);
    edges point from producer to consumer.  Three classes of edge are built:

    - {b Data}: tuple [v] reads the value of tuple [u] via a [Ref] operand;
    - {b memory flow}: a [Load x] after a [Store x];
    - {b memory anti/output}: a [Store x] after a [Load x] / [Store x].

    Every edge runs forward in block order: [u -> v] only for [u < v].
    A data edge comes from a [Ref], which {!Block.of_tuples} accepts only
    to an earlier tuple, and a memory edge from an earlier access to the
    same variable; {!of_block} is the only constructor.  So block order
    is a topological order, and a walk that emits ready positions one at
    a time (the list scheduler, the search) always finds one.

    All edge classes constrain scheduling identically in the paper's model
    (the consumer must wait for the producer's pipeline latency); the class
    is recorded, in arrays aligned with the adjacency arrays, for
    canonicalization ({!Canonical}), inspection and tests.  When a data
    and a memory dependence join the same pair, the data kind is kept.

    The module also provides the paper's [earliest]/[latest] position bounds
    (Definitions 6 and 7) used by the quick legality check [5a]. *)

type edge_kind = Data | Mem_flow | Mem_anti | Mem_output

type t

(** Build the DAG of a block: its edges and their kinds, no transitive
    closure (see {!ancestors}). *)
val of_block : Block.t -> t

(** The block the DAG was built from. *)
val block : t -> Block.t

(** Number of nodes. *)
val length : t -> int

(** Immediate predecessors of a position — the paper's [rho].  Sorted.
    Allocates a fresh list; hot paths should use {!preds_arr}. *)
val preds : t -> int -> int list

(** Immediate successors of a position.  Sorted.  Allocates a fresh
    list; hot paths should use {!succs_arr}. *)
val succs : t -> int -> int list

(** Flattened adjacency: the predecessors of a position as a sorted
    array.  This is the DAG's own storage — O(1), no allocation — used
    by the scheduling kernels (Omega.State, Optimal).  Do not mutate. *)
val preds_arr : t -> int -> int array

(** Flattened adjacency: the successors of a position as a sorted
    array.  Do not mutate. *)
val succs_arr : t -> int -> int array

(** Every position's {!preds_arr} in one array, by position: the
    DAG's own storage, O(1), no allocation.  Do not mutate. *)
val pred_table : t -> int array array

(** Every position's {!succs_arr} in one array, by position.  Do not
    mutate. *)
val succ_table : t -> int array array

(** Edge kinds aligned with {!preds_arr}: [(pred_kinds d v).(i)] is the
    kind of the edge [(preds_arr d v).(i) -> v].  O(1), no allocation.
    Do not mutate. *)
val pred_kinds : t -> int -> edge_kind array

(** Edge kinds aligned with {!succs_arr}: [(succ_kinds d u).(i)] is the
    kind of the edge [u -> (succs_arr d u).(i)].  Do not mutate. *)
val succ_kinds : t -> int -> edge_kind array

(** [edge_kind d u v] is the kind of edge [u -> v], if present: a
    binary search of [u]'s successors. *)
val edge_kind : t -> int -> int -> edge_kind option

(** All transitive ancestors of a position, as a fresh bitset.  The DAG
    stores no closure: each call is one pass over the positions before
    [i], O(n + edges). *)
val ancestors : t -> int -> Pipesched_prelude.Bitset.t

(** All transitive descendants of a position, as a fresh bitset: one
    pass over the positions after [i], like {!ancestors}. *)
val descendants : t -> int -> Pipesched_prelude.Bitset.t

(** [earliest d i]: minimum number of instructions that must execute before
    position [i] in any legal schedule (= cardinality of its ancestor set).
    Definition 6 of the paper, 0-based. *)
val earliest : t -> int -> int

(** [latest d i]: maximum number of instructions that may execute before
    position [i] (= n - 1 - number of descendants).  Definition 7, 0-based. *)
val latest : t -> int -> int

(** [is_legal_order d order] checks that the schedule [order] (mapping new
    position -> original position, a permutation) respects every edge. *)
val is_legal_order : t -> int array -> bool

(** [heights d ~edge_weight] is, for each node, the weight of the heaviest
    path from that node to any sink, where traversing edge [u -> v] costs
    [edge_weight ~src:u ~dst:v].  Used for list-scheduling priorities and
    the critical-path lower bound. *)
val heights : t -> edge_weight:(src:int -> dst:int -> int) -> int array

(** [roots d] are positions with no predecessors (initially ready). *)
val roots : t -> int list

(** [critical_path d ~edge_weight] is the maximum element of {!heights}:
    the weight of the heaviest dependence chain in the block. *)
val critical_path : t -> edge_weight:(src:int -> dst:int -> int) -> int

(** Graphviz rendering of the DAG: nodes are tuples, solid edges data
    dependences, dashed edges memory ordering. *)
val to_dot : t -> string
