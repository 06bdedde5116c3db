type t = { id : int; op : Op.t; a : Operand.t; b : Operand.t }

let is_value = function
  | Operand.Ref _ | Operand.Imm _ -> true
  | Operand.Var _ | Operand.Null -> false

let shape_ok op a b =
  match op with
  | Op.Const -> (match a, b with Operand.Imm _, Operand.Null -> true | _ -> false)
  | Op.Load -> (match a, b with Operand.Var _, Operand.Null -> true | _ -> false)
  | Op.Store -> (match a with Operand.Var _ -> is_value b | _ -> false)
  | Op.Mov | Op.Neg -> (
    is_value a && match b with Operand.Null -> true | _ -> false)
  | Op.Add | Op.Sub | Op.Mul | Op.Div | Op.Mod | Op.And | Op.Or | Op.Xor
  | Op.Shl | Op.Shr ->
    is_value a && is_value b

let make ~id op a b =
  if not (shape_ok op a b) then
    invalid_arg
      (Printf.sprintf "Tuple.make: malformed %s tuple (%s, %s)"
         (Op.to_string op) (Operand.to_string a) (Operand.to_string b));
  { id; op; a; b }

let value_refs t =
  let of_operand o = match Operand.ref_id o with Some i -> [ i ] | None -> [] in
  of_operand t.a @ of_operand t.b

let memory_var t =
  match t.op with
  | Op.Load | Op.Store -> Operand.var_name t.a
  | _ -> None

let writes_memory t = t.op = Op.Store
let produces_value t = t.op <> Op.Store

let equal (x : t) y = x = y

let to_buffer buf t =
  Pipesched_prelude.Decimal.add_int buf t.id;
  Buffer.add_string buf ": ";
  Buffer.add_string buf (Op.to_string t.op);
  Buffer.add_char buf ' ';
  Operand.to_buffer buf t.a;
  match t.op with
  | Op.Const | Op.Load | Op.Mov | Op.Neg -> ()
  | _ ->
    Buffer.add_string buf ", ";
    Operand.to_buffer buf t.b

let to_string t =
  let buf = Buffer.create 24 in
  to_buffer buf t;
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* The scanner below reads one line in place.  Its spans are
   [String.trim]'s: these bytes are dropped from both ends of the line,
   of the id, of the text after the ':', and of each operand. *)
let is_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

(* The first position in [i, hi) that is not a space, or [hi]. *)
let rec skip s i hi =
  if i < hi && is_space s.[i] then skip s (i + 1) hi else i

(* The end of [lo, j) with its trailing spaces dropped. *)
let rec back s lo j =
  if j > lo && is_space s.[j - 1] then back s lo (j - 1) else j

(* The first [c] in [i, hi), or [hi]. *)
let rec find s c i hi = if i = hi || s.[i] = c then i else find s c (i + 1) hi

let operand s lo hi =
  match Operand.of_substring s lo (hi - lo) with
  | Some o -> Ok o
  | None -> Error ("bad operand: " ^ String.sub s lo (hi - lo))

let build ~id op a b =
  match make ~id op a b with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg

let of_substring s pos len =
  let lo = skip s pos (pos + len) in
  let hi = back s lo (pos + len) in
  let colon = find s ':' lo hi in
  if colon = hi then Error "missing ':' after the tuple id"
  else
    let id_hi = back s lo colon in
    match Pipesched_prelude.Decimal.int_of_substring s lo (id_hi - lo) with
    | None -> Error ("bad tuple id: " ^ String.sub s lo (id_hi - lo))
    | Some id -> (
      (* The mnemonic runs to the first space; the operands follow. *)
      let m_lo = skip s (colon + 1) hi in
      let m_hi = find s ' ' m_lo hi in
      match Op.of_substring s m_lo (m_hi - m_lo) with
      | None -> Error ("unknown operation: " ^ String.sub s m_lo (m_hi - m_lo))
      | Some op -> (
        (* Comma-separated operands, empty ones skipped: their count,
           and the spans of the first two. *)
        let count = ref 0 in
        let a_lo = ref 0 and a_hi = ref 0 and b_lo = ref 0 and b_hi = ref 0 in
        let i = ref (m_hi + 1) in
        while !i < hi do
          let stop = find s ',' !i hi in
          let t_lo = skip s !i stop in
          let t_hi = back s t_lo stop in
          if t_lo < t_hi then begin
            incr count;
            if !count = 1 then begin
              a_lo := t_lo;
              a_hi := t_hi
            end
            else if !count = 2 then begin
              b_lo := t_lo;
              b_hi := t_hi
            end
          end;
          i := stop + 1
        done;
        match !count with
        | 0 -> build ~id op Operand.Null Operand.Null
        | 1 -> (
          match operand s !a_lo !a_hi with
          | Ok a -> build ~id op a Operand.Null
          | Error _ as e -> e)
        | 2 -> (
          match operand s !a_lo !a_hi with
          | Error _ as e -> e
          | Ok a -> (
            match operand s !b_lo !b_hi with
            | Ok b -> build ~id op a b
            | Error _ as e -> e))
        | _ -> Error "too many operands"))

let of_string line = of_substring line 0 (String.length line)
