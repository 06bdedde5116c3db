(** Tuple instructions: the intermediate form of §3.1.

    A tuple is [(id, op, alpha, beta)].  Tuple ids are unique within a block
    and reference-operands always point to tuples defined earlier in the
    block, so a tuple list embeds a DAG in linear notation. *)

type t = { id : int; op : Op.t; a : Operand.t; b : Operand.t }

(** [make ~id op a b] builds a tuple, validating the operand shape against
    the operation's arity:
    - [Const] takes [Imm, Null];
    - [Load] takes [Var, Null];
    - [Store] takes [Var, (Ref|Imm)];
    - unary ops take [(Ref|Imm), Null];
    - binary ops take [(Ref|Imm), (Ref|Imm)].
    Raises [Invalid_argument] on a malformed tuple. *)
val make : id:int -> Op.t -> Operand.t -> Operand.t -> t

(** Ids of tuples this tuple reads through [Ref] operands (0, 1 or 2,
    left operand first, duplicates preserved). *)
val value_refs : t -> int list

(** [Some v] when the tuple touches memory ([Load]/[Store] of variable [v]). *)
val memory_var : t -> string option

(** True when the tuple writes memory (a [Store]). *)
val writes_memory : t -> bool

(** True when the tuple produces a value other tuples may reference
    (everything except [Store]). *)
val produces_value : t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [to_buffer buf t] appends the {!to_string} text of [t] to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

(** Inverse of {!to_string} (["4: Mul t1, t3"]); validates the shape like
    {!make}.  [Error msg] on malformed input.  Whitespace around the
    line, the id, the text after the [':'] and each operand is ignored
    ([String.trim]'s), the mnemonic ends at the first space and any case
    is accepted, empty operands between commas are skipped, and
    integers are read as [int_of_string_opt] reads them. *)
val of_string : string -> (t, string) result

(** [of_substring s pos len] is [of_string (String.sub s pos len)],
    read in place: one scan, copying only error text and variable
    names. *)
val of_substring : string -> int -> int -> (t, string) result
