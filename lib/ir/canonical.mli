(** Isomorphism-stable canonical form of a block's dependence DAG.

    Two blocks that differ only in {e scheduling-irrelevant} presentation
    — instruction order (any topological reordering), tuple-id
    ("virtual register") labels, variable names, or immediate values —
    canonicalize to the same {!t}: the same canonical block, the same
    {!key} string and the same {!val-hash}.  Everything Omega actually
    consumes is preserved: operation kinds (hence pipeline candidates and
    latencies, once a machine is fixed), the data-dependence edges, and
    the memory-dependence structure — as the DAG records it.  Variable
    sharing the DAG cannot see (unordered load pairs, or an anti
    dependence collapsed into a coincident data edge) is deliberately
    erased, which widens the equivalence class without changing any
    edge.

    The construction (see DESIGN.md §10):

    + {b refinement}: each node gets a structural color, iteratively
      refined from its operation kind and the sorted colors of its
      predecessors and successors (with edge kinds), until the color
      partition stabilizes — a Weisfeiler–Leman pass specialized to DAGs,
      hashed with an allocation-free integer mix;
    + {b canonical order}: a greedy topological order that always emits
      the ready node with the least (placed-predecessor positions,
      color, op) key.  Every component of the key is an isomorphism
      invariant, so isomorphic presentations emit the same order.  When
      the emitted node ties with a ready node that is not its twin (the
      same successors over the same edge kinds), it is individualized
      (its position folded into its color) and the refinement re-run, so
      later picks follow the placed node rather than the input order;
    + {b key}: per canonical position, the op and two operand codes,
      packed as bytes — a data operand is its canonical producer
      position + 1 (binary operands as the sorted, deduplicated
      producer set), a memory operand its memory group + 1, and [0] an
      immediate, an absent operand or a private variable;
    + {b materialization}: the canonical {!block}, read back from the
      key with ids [1..n]; memory operations connected by {e recorded}
      memory edges (flow/anti/output) form groups renamed by first
      canonical occurrence ([s0, s1, ...]), while a memory op with no
      recorded memory edge gets a private variable ([l<pos>] for loads,
      [w<pos>] for stores) — reproducing the DAG's edge set exactly;
      immediates are normalized to [0] and binary operands sorted by
      canonical producer.

    {!label} computes only the labeling — the permutation, the key and
    its hash — and builds no tuple, block or text; {!materialize} builds
    the canonical block when a search needs it.

    Soundness does not rest on the refinement being a complete
    invariant: consumers (the schedule cache, the study/fuzz dedup) key
    on the full {!key} string, so a hash collision — or an exotic pair
    of non-isomorphic blocks the refinement cannot separate — can only
    cost a missed dedup, never a wrong schedule.  [key]-equal blocks
    have {e identical} canonical blocks, and a schedule of the canonical
    block maps through {!perm} to a legal schedule of each original. *)

(** A DAG's canonical labeling: everything {!t} holds but the canonical
    block. *)
type labeling = {
  perm : int array;
      (** canonical position -> original block position (a bijection).
          Do not mutate. *)
  key : string;
      (** the canonical block packed as bytes — the exact cache / dedup
          key (equality on [key] is equality of canonical blocks).  Not
          text: it may hold any byte, NUL included, so a key joined to
          other strings must come last *)
  hash : int;  (** 64-bit FNV-1a of [key] *)
}

type t = {
  block : Block.t;  (** the canonical block: solve / hash this *)
  perm : int array;  (** as in {!labeling} *)
  key : string;  (** as in {!labeling} *)
  hash : int;  (** as in {!labeling} *)
}

(** The version of the canonical form.  It changes whenever a key,
    [perm] or canonical block may change, so anything stored across runs
    that depends on them (a mega-study checkpoint) can tell a form it
    was not made with. *)
val version : int

(** The canonical labeling of a DAG: no canonical block is built. *)
val label : Dag.t -> labeling

(** The canonical block of a labeling: ids [1..n], read back from
    [key]. *)
val materialize : labeling -> Block.t

(** Canonicalize a block (builds the DAG internally). *)
val of_block : Block.t -> t

(** Canonicalize an already-built DAG (avoids rebuilding it):
    {!label}, then {!materialize}. *)
val of_dag : Dag.t -> t

(** [apply t corder] maps a schedule of the {e canonical} block (an
    order array, new position -> canonical position) back onto the
    original block: new position -> original position.  The result is a
    legal order of the original block's DAG whenever [corder] is legal
    for the canonical one, with identical NOP/issue behavior on any
    machine. *)
val apply : t -> int array -> int array

(** {!apply} for a labeling. *)
val apply_labeling : labeling -> int array -> int array

(** FNV-1a (64-bit, as an OCaml [int]) of an arbitrary string — the hash
    {!label} applies to {!key}.  Exposed for tests and for callers
    that key auxiliary tables off precomputed key strings. *)
val hash_string : string -> int
