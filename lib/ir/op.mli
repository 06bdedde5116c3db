(** Tuple operation types.

    The intermediate form of the paper (§3.1) represents each instruction as
    a tuple [(id, op, alpha, beta)].  This module enumerates the operation
    kinds, their arities, and the algebraic facts the optimizer and the
    synthetic-benchmark generator need. *)

type t =
  | Const  (** materialize an integer literal; [alpha] is the immediate *)
  | Load   (** load a variable from memory; [alpha] is the variable *)
  | Store  (** store to a variable; [alpha] is the variable, [beta] a value *)
  | Mov    (** register-to-register copy; [alpha] is a value *)
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Neg
  | And
  | Or
  | Xor
  | Shl
  | Shr

(** All operation kinds, in declaration order. *)
val all : t list

(** Number of operation kinds ([List.length all]). *)
val count : int

(** [index op] is [op]'s position in {!all}, in [0 .. count - 1]: a
    dense key for per-operation tables. *)
val index : t -> int

(** Binary arithmetic/logic operations (both operands are values). *)
val binary_ops : t list

(** Number of value operands the operation consumes (0, 1 or 2). *)
val value_arity : t -> int

(** True for operations where swapping the operands preserves the result. *)
val commutative : t -> bool

(** [eval2 op x y] evaluates a binary operation on concrete integers.
    Division and modulus by zero yield 0, and shift amounts are taken
    modulo 64 (with 63 shifting everything out) — a total semantics chosen
    so that optimizer-soundness properties are testable on arbitrary
    inputs, and such that [eval2 Shl x k = x * 2^k] for [0 <= k <= 62]
    (strength reduction relies on this).
    Raises [Invalid_argument] for non-binary operations. *)
val eval2 : t -> int -> int -> int

(** [eval1 op x] evaluates a unary operation ([Neg], [Mov]).
    Raises [Invalid_argument] otherwise. *)
val eval1 : t -> int -> int

(** True when the operation's result depends only on its value operands
    (i.e., it is a candidate for constant folding and CSE): every operation
    except [Load] and [Store]. *)
val pure : t -> bool

(** Mnemonic used by printers and the assembly emitter, e.g. ["Mul"]. *)
val to_string : t -> string

(** Inverse of [to_string] (case-insensitive). *)
val of_string : string -> t option

(** [of_substring s pos len] is [of_string (String.sub s pos len)],
    without the copy. *)
val of_substring : string -> int -> int -> t option

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int
