(** Decimal text of integers written straight into a [Buffer].

    [string_of_int] goes through the C printf path (it parses a format
    string per call); the renderers on the serving hot path — JSON
    responses, tuple text, canonical keys — write many small integers,
    so they emit the digits directly instead. *)

(** [add_int buf i] appends exactly the bytes of [string_of_int i] to
    [buf], for every [i] including negatives and [min_int]. *)
val add_int : Buffer.t -> int -> unit
