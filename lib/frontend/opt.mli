(** Classic block-level optimizations (§3.1).

    The paper's prototype performs "constant folding with value
    propagation, common subexpression elimination, dead code elimination,
    and various peephole optimizations" before scheduling.  Each pass here
    maps a valid block to a valid, semantically equivalent block (the test
    suite property-checks equivalence through {!Interp}).

    Passes are idempotent but enable each other (folding creates dead
    constants; CSE creates dead loads; peephole creates copies), so
    {!optimize} iterates the pipeline to a fixpoint.  It loads the block
    once into an int-array slot buffer; each pass reports whether it
    dropped a tuple or rewrote an op or operand, and the iteration stops
    at the first round in which no pass did (or after 11 rounds).  The
    result is renumbered, validated and built as a block once, at the
    end.

    Each single pass below loads the block, runs that pass alone and
    keeps the block's own tuple ids (except {!renumber}). *)

open Pipesched_ir

(** Fold constant subcomputations and propagate immediate values into
    operand positions ([Ref] to a [Const] becomes [Imm]; pure tuples with
    all-immediate operands become [Const]). *)
val const_fold : Block.t -> Block.t

(** Algebraic simplifications on immediate operands: [x+0], [x-0], [x*1],
    [x*0], [x/1], [x&0], [x|0], [x^0], [x<<0], [x>>0], [x-x], [x^x],
    and strength reduction of [x * 2^k] to [x << k] (which also moves
    work off the multiplier pipeline).  [-(-x)] is rewritten by
    {!optimize}'s double-negation pass, which runs after this one. *)
val peephole : Block.t -> Block.t

(** Eliminate [Mov] tuples by forwarding their operand to all users. *)
val copy_prop : Block.t -> Block.t

(** Common subexpression elimination: duplicate pure tuples (with
    commutative-operand normalization), redundant [Load]s of an unmodified
    variable, and store-to-load forwarding. *)
val cse : Block.t -> Block.t

(** Remove tuples whose results are unused and which have no side effect
    (everything but [Store] is removable). *)
val dce : Block.t -> Block.t

(** Remove a [Store] that is overwritten by a later [Store] to the same
    variable with no intervening [Load] of it. *)
val dead_store : Block.t -> Block.t

(** Renumber tuple ids sequentially from 1 (cosmetic; applied last). *)
val renumber : Block.t -> Block.t

(** The full pipeline (constant folding, peephole, double negation,
    copy propagation, CSE, DCE, dead stores) iterated to a fixpoint,
    then renumbered. *)
val optimize : Block.t -> Block.t
