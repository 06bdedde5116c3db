(** Reference interpreters for source programs and tuple blocks.

    These give the two program representations an executable semantics, so
    the test suite can {e prove} (property-test) that tuple generation, every
    optimizer pass, and every legal schedule preserve program meaning.
    Division/modulus by zero evaluate to 0, matching {!Pipesched_ir.Op}. *)

open Pipesched_ir

(** An initial memory: the value each variable holds on block entry. *)
type env = string -> int

(** Raised by {!run_program} when [fuel] statement executions were not
    enough to finish (a long or diverging [while]). *)
exception Out_of_fuel

(** [run_program prog ~env] executes the source program and returns the
    final value of every variable it touches (reads or writes), sorted by
    name.  [fuel] (default [100_000]) bounds the number of statement
    executions; raises {!Out_of_fuel} beyond it. *)
val run_program : ?fuel:int -> Ast.program -> env:env -> (string * int) list

(** [run_block blk ~env] executes the tuple block against memory [env] and
    returns the final value of every variable the block touches, sorted by
    name.  Raises [Invalid_argument] on a malformed block (defensive; cannot
    happen for validated {!Block.t} values). *)
val run_block : Block.t -> env:env -> (string * int) list

(** [equivalent_on prog blk ~env ~vars] — do program and block agree on the
    final values of [vars] under [env]? *)
val equivalent_on :
  Ast.program -> Block.t -> env:env -> vars:string list -> bool

(** {2 Repeated runs over arrays}

    The certifier's semantic check runs every certified block six
    times (three memories, each on the original and the scheduled
    order).  A prepared block interns its variables and the producers of
    its operands once, so each run is one pass over arrays, with no
    hashing and no reordered block built. *)

(** A block prepared for {!run_prepared}. *)
type prepared

(** [prepare blk] interns [blk]'s variables and operand producers.
    Never raises. *)
val prepare : Block.t -> prepared

(** The variables the block touches, sorted by name (fresh array): the
    variables of {!run_block}'s result, and the indexing of
    {!run_prepared}'s memories. *)
val prepared_vars : prepared -> string array

(** [run_prepared p ~order ~init] runs the block's instructions in
    [order] (original positions, as for {!Pipesched_ir.Block.permute})
    from the memory [init] (one value per {!prepared_vars} entry) and
    returns the final memory, indexed the same way.  These are the
    values [run_block (Block.permute blk order) ~env] returns when [env]
    maps each variable to its [init] entry.  [None] exactly when that
    [Block.permute] or [run_block] call would raise (an order that is
    not a permutation, an operand reference placed before its producer,
    a malformed tuple); a caller that needs the error repeats the run
    that way. *)
val run_prepared :
  prepared -> order:int array -> init:int array -> int array option
