(** Decimal text of integers written straight into a [Buffer], and read
    straight out of a string.

    [string_of_int] goes through the C printf path (it parses a format
    string per call); the renderers on the serving hot path — JSON
    responses, tuple text — write many small integers, so they emit the
    digits directly instead.  The block parser reads many small integers
    out of one request line, so it reads them in place. *)

(** [add_int buf i] appends exactly the bytes of [string_of_int i] to
    [buf], for every [i] including negatives and [min_int]. *)
val add_int : Buffer.t -> int -> unit

(** [int_of_substring s pos len] is
    [int_of_string_opt (String.sub s pos len)], exactly, without the
    copy when the text is a plain decimal: an optional ['-'] and at most
    18 digits. *)
val int_of_substring : string -> int -> int -> int option
