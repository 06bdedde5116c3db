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

let of_string line =
  let line = String.trim line in
  match String.index_opt line ':' with
  | None -> Error "missing ':' after the tuple id"
  | Some colon ->
    let id_text = String.trim (String.sub line 0 colon) in
    let rest =
      String.trim
        (String.sub line (colon + 1) (String.length line - colon - 1))
    in
    (match int_of_string_opt id_text with
     | None -> Error ("bad tuple id: " ^ id_text)
     | Some id ->
       let mnemonic, args =
         match String.index_opt rest ' ' with
         | None -> (rest, "")
         | Some sp ->
           ( String.sub rest 0 sp,
             String.trim
               (String.sub rest (sp + 1) (String.length rest - sp - 1)) )
       in
       (match Op.of_string mnemonic with
        | None -> Error ("unknown operation: " ^ mnemonic)
        | Some op ->
          let toks =
            if args = "" then []
            else
              String.split_on_char ',' args
              |> List.map String.trim
              |> List.filter (fun s -> s <> "")
          in
          let operand tok =
            match Operand.of_string tok with
            | Some o -> Ok o
            | None -> Error ("bad operand: " ^ tok)
          in
          let build a b =
            match make ~id op a b with
            | t -> Ok t
            | exception Invalid_argument msg -> Error msg
          in
          (match toks with
           | [] -> build Operand.Null Operand.Null
           | [ a ] ->
             Result.bind (operand a) (fun a -> build a Operand.Null)
           | [ a; b ] ->
             Result.bind (operand a) (fun a ->
                 Result.bind (operand b) (fun b -> build a b))
           | _ -> Error "too many operands")))
