(** Minimal JSON tree, printer and parser — just enough for the
    [pipesched_server] line protocol, mega-study checkpoints and the
    fuzz and portfolio repro files, with no external dependency.

    The printer emits compact single-line JSON (the framing of the line
    protocol) with full string escaping.  The parser is a strict
    recursive-descent reader of standard JSON; numbers without [.], [e]
    or [E] parse as [Int], everything else numeric as [Float].  Numbers
    and [\u] escapes are validated against the JSON grammar before any
    OCaml conversion runs, so OCaml literal leniency (underscores in
    ["\u1_2a"], leading [+] or [0]s) never leaks into the protocol.
    Input after the first value is rejected, so one protocol line is
    exactly one value. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(** Compact rendering (no newlines — safe to frame one-per-line). *)
val to_string : t -> string

(** [parse s] reads exactly one JSON value (surrounding whitespace
    allowed).  [Error msg] carries a position-annotated message.  At
    most 512 arrays and objects may nest: a deeper one is refused with
    ["nesting deeper than 512"] at its opening bracket. *)
val parse : string -> (t, string) result

(** {2 Accessors} — each returns [None] on a shape mismatch. *)

(** [member key json] is the field of an [Assoc]. *)
val member : string -> t -> t option

val to_int_opt : t -> int option

(** Accepts both [Int] and [Float]. *)
val to_float_opt : t -> float option

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
