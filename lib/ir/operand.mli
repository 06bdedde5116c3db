(** Tuple operands.

    Each tuple operand (the [alpha] and [beta] of the paper's notation) is
    either a variable name, a reference to the result of an earlier tuple, an
    immediate integer, or absent. *)

type t =
  | Var of string  (** an unambiguous program variable (see §3.1) *)
  | Ref of int     (** the value computed by the tuple with this id *)
  | Imm of int     (** an integer literal *)
  | Null           (** operand not used by this operation *)

(** [ref_id o] is [Some id] when [o] is a tuple reference. *)
val ref_id : t -> int option

(** [var_name o] is [Some v] when [o] names a variable. *)
val var_name : t -> string option

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [to_buffer buf o] appends the {!to_string} text of [o] to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

(** Inverse of {!to_string}: ["#v"] is a variable, ["tN"] a reference,
    an integer an immediate, ["_"] the null operand. *)
val of_string : string -> t option

(** [of_substring s pos len] is [of_string (String.sub s pos len)],
    copying only a variable's name. *)
val of_substring : string -> int -> int -> t option
