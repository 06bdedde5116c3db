type t = Var of string | Ref of int | Imm of int | Null

let ref_id = function Ref i -> Some i | Var _ | Imm _ | Null -> None
let var_name = function Var v -> Some v | Ref _ | Imm _ | Null -> None

let equal (a : t) b = a = b
let compare (a : t) b = Stdlib.compare a b

let to_buffer buf = function
  | Var v ->
    Buffer.add_char buf '#';
    Buffer.add_string buf v
  | Ref i ->
    Buffer.add_char buf 't';
    Pipesched_prelude.Decimal.add_int buf i
  | Imm n -> Pipesched_prelude.Decimal.add_int buf n
  | Null -> Buffer.add_char buf '_'

let to_string o =
  let buf = Buffer.create 8 in
  to_buffer buf o;
  Buffer.contents buf

let pp fmt o = Format.pp_print_string fmt (to_string o)

let of_substring s pos len =
  let int_at pos len = Pipesched_prelude.Decimal.int_of_substring s pos len in
  if len = 1 && s.[pos] = '_' then Some Null
  else if len >= 2 && s.[pos] = '#' then
    Some (Var (String.sub s (pos + 1) (len - 1)))
  else if len >= 2 && s.[pos] = 't' then
    match int_at (pos + 1) (len - 1) with
    | Some id -> Some (Ref id)
    | None -> None
  else
    match int_at pos len with Some v -> Some (Imm v) | None -> None

let of_string s = of_substring s 0 (String.length s)
