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

let of_string s =
  let n = String.length s in
  if s = "_" then Some Null
  else if n >= 2 && s.[0] = '#' then Some (Var (String.sub s 1 (n - 1)))
  else if n >= 2 && s.[0] = 't' then
    match int_of_string_opt (String.sub s 1 (n - 1)) with
    | Some id -> Some (Ref id)
    | None -> None
  else
    match int_of_string_opt s with Some v -> Some (Imm v) | None -> None
