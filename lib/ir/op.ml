type t =
  | Const
  | Load
  | Store
  | Mov
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

let all =
  [ Const; Load; Store; Mov; Add; Sub; Mul; Div; Mod; Neg; And; Or; Xor;
    Shl; Shr ]

let count = 15

let index = function
  | Const -> 0
  | Load -> 1
  | Store -> 2
  | Mov -> 3
  | Add -> 4
  | Sub -> 5
  | Mul -> 6
  | Div -> 7
  | Mod -> 8
  | Neg -> 9
  | And -> 10
  | Or -> 11
  | Xor -> 12
  | Shl -> 13
  | Shr -> 14

let binary_ops = [ Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr ]

let value_arity = function
  | Const | Load -> 0
  | Store | Mov | Neg -> 1
  | Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr -> 2

let commutative = function
  | Add | Mul | And | Or | Xor -> true
  | Const | Load | Store | Mov | Sub | Div | Mod | Neg | Shl | Shr -> false

let eval2 op x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then 0 else x / y
  | Mod -> if y = 0 then 0 else x mod y
  | And -> x land y
  | Or -> x lor y
  | Xor -> x lxor y
  | Shl ->
    let s = y land 63 in
    if s > 62 then 0 else x lsl s
  | Shr ->
    let s = y land 63 in
    if s > 62 then (if x < 0 then -1 else 0) else x asr s
  | Const | Load | Store | Mov | Neg ->
    invalid_arg "Op.eval2: not a binary operation"

let eval1 op x =
  match op with
  | Neg -> -x
  | Mov -> x
  | Const | Load | Store | Add | Sub | Mul | Div | Mod | And | Or | Xor
  | Shl | Shr ->
    invalid_arg "Op.eval1: not a unary operation"

let pure = function
  | Load | Store -> false
  | Const | Mov | Add | Sub | Mul | Div | Mod | Neg | And | Or | Xor | Shl
  | Shr ->
    true

let to_string = function
  | Const -> "Const"
  | Load -> "Load"
  | Store -> "Store"
  | Mov -> "Mov"
  | Add -> "Add"
  | Sub -> "Sub"
  | Mul -> "Mul"
  | Div -> "Div"
  | Mod -> "Mod"
  | Neg -> "Neg"
  | And -> "And"
  | Or -> "Or"
  | Xor -> "Xor"
  | Shl -> "Shl"
  | Shr -> "Shr"

(* A mnemonic of at most 7 bytes, lowercased and packed into an int
   after its length, so that matching one costs an integer comparison
   per op. *)
let rec pack_lower s i stop acc =
  if i = stop then acc
  else
    pack_lower s (i + 1) stop
      ((acc lsl 8) lor Char.code (Char.lowercase_ascii s.[i]))

let packed =
  Array.of_list
    (List.map
       (fun op ->
         let name = to_string op in
         (pack_lower name 0 (String.length name) (String.length name), op))
       all)

(* Case-insensitive like [String.lowercase_ascii], without the copy. *)
let of_substring s pos len =
  if len > 7 then None
  else
    let key = pack_lower s pos (pos + len) len in
    let rec find i =
      if i = Array.length packed then None
      else if fst packed.(i) = key then Some (snd packed.(i))
      else find (i + 1)
    in
    find 0

let of_string s = of_substring s 0 (String.length s)

let pp fmt op = Format.pp_print_string fmt (to_string op)
let equal (a : t) b = a = b
let compare (a : t) b = Stdlib.compare a b
