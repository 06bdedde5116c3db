open Pipesched_ir

type env = string -> int

exception Out_of_fuel

let run_program ?(fuel = 100_000) prog ~env =
  let mem = Hashtbl.create 16 in
  let touched = Hashtbl.create 16 in
  let read v =
    Hashtbl.replace touched v ();
    match Hashtbl.find_opt mem v with Some x -> x | None -> env v
  in
  let write v x =
    Hashtbl.replace touched v ();
    Hashtbl.replace mem v x
  in
  let rec eval = function
    | Ast.Int n -> n
    | Ast.Var v -> read v
    | Ast.Unop (op, e) -> Op.eval1 op (eval e)
    | Ast.Binop (op, e1, e2) ->
      let x = eval e1 in
      let y = eval e2 in
      Op.eval2 op x y
  in
  let cond (r, l, rhs) =
    let x = eval l in
    let y = eval rhs in
    Ast.eval_relop r x y
  in
  let fuel_left = ref fuel in
  let rec exec stmt =
    if !fuel_left <= 0 then raise Out_of_fuel;
    decr fuel_left;
    match stmt with
    | Ast.Assign (v, e) -> write v (eval e)
    | Ast.If (c, then_, else_) ->
      List.iter exec (if cond c then then_ else else_)
    | Ast.While (c, body) ->
      if cond c then begin
        List.iter exec body;
        exec stmt
      end
  in
  List.iter exec prog;
  Hashtbl.fold (fun v () acc -> (v, read v) :: acc) touched []
  |> List.sort compare

let run_block blk ~env =
  let mem = Hashtbl.create 16 in
  let touched = Hashtbl.create 16 in
  let values = Hashtbl.create 16 in
  let read v =
    Hashtbl.replace touched v ();
    match Hashtbl.find_opt mem v with Some x -> x | None -> env v
  in
  let write v x =
    Hashtbl.replace touched v ();
    Hashtbl.replace mem v x
  in
  (* Errors carry the instruction index and the offending tuple, so a
     failure inside generated or fuzzed code is actionable. *)
  let malformed what i tu =
    invalid_arg
      (Printf.sprintf "Interp.run_block: %s at instruction %d [%s]" what i
         (Tuple.to_string tu))
  in
  let operand i (tu : Tuple.t) = function
    | Operand.Imm n -> n
    | Operand.Ref id -> (
      match Hashtbl.find_opt values id with
      | Some x -> x
      | None ->
        malformed (Printf.sprintf "dangling reference t%d" id) i tu)
    | Operand.Var _ | Operand.Null -> malformed "non-value operand" i tu
  in
  Array.iteri
    (fun i (tu : Tuple.t) ->
      match tu.op with
      | Op.Const -> (
        match tu.a with
        | Operand.Imm n -> Hashtbl.replace values tu.id n
        | _ -> malformed "malformed Const" i tu)
      | Op.Load -> (
        match tu.a with
        | Operand.Var v -> Hashtbl.replace values tu.id (read v)
        | _ -> malformed "malformed Load" i tu)
      | Op.Store -> (
        match tu.a with
        | Operand.Var v -> write v (operand i tu tu.b)
        | _ -> malformed "malformed Store" i tu)
      | Op.Mov | Op.Neg ->
        Hashtbl.replace values tu.id (Op.eval1 tu.op (operand i tu tu.a))
      | Op.Add | Op.Sub | Op.Mul | Op.Div | Op.Mod | Op.And | Op.Or
      | Op.Xor | Op.Shl | Op.Shr ->
        Hashtbl.replace values tu.id
          (Op.eval2 tu.op (operand i tu tu.a) (operand i tu tu.b)))
    (Block.tuples blk);
  Hashtbl.fold (fun v () acc -> (v, read v) :: acc) touched []
  |> List.sort compare

let equivalent_on prog blk ~env ~vars =
  let p = run_program prog ~env in
  let b = run_block blk ~env in
  let value_in results v =
    match List.assoc_opt v results with Some x -> x | None -> env v
  in
  List.for_all (fun v -> value_in p v = value_in b v) vars

(* The prepared form: per position, the op, each operand's producer
   position ([-1] when not a reference) or immediate, and the variable
   index of a Load/Store operand.  [ok] is false when some tuple has a
   shape [run_block] rejects or a reference [Block] validation would
   reject, so every run answers [None]. *)
type prepared = {
  vars : string array;  (* touched variables, sorted by name *)
  ops : Op.t array;
  ref_a : int array;
  ref_b : int array;
  imm_a : int array;
  imm_b : int array;
  var_a : int array;
  ok : bool;
}

let prepare blk =
  let tus = Block.tuples blk in
  let index = Hashtbl.create 8 in
  Array.iter
    (fun (tu : Tuple.t) ->
      match (tu.op, tu.a) with
      | (Op.Load | Op.Store), Operand.Var v -> Hashtbl.replace index v 0
      | _ -> ())
    tus;
  let vars = Array.of_seq (Hashtbl.to_seq_keys index) in
  Array.sort String.compare vars;
  Array.iteri (fun i v -> Hashtbl.replace index v i) vars;
  let ok = ref true in
  let producer = function
    | Operand.Ref id -> (
      match Block.pos_of_id blk id with
      | u when Tuple.produces_value tus.(u) -> u
      | _ | (exception Not_found) ->
        ok := false;
        -1)
    | Operand.Var _ | Operand.Imm _ | Operand.Null -> -1
  in
  let imm = function Operand.Imm x -> x | _ -> 0 in
  let value_operand = function
    | Operand.Ref _ | Operand.Imm _ -> ()
    | Operand.Var _ | Operand.Null -> ok := false
  in
  let var_a =
    Array.map
      (fun (tu : Tuple.t) ->
        match (tu.op, tu.a) with
        | Op.Const, Operand.Imm _ -> -1
        | Op.Load, Operand.Var v -> Hashtbl.find index v
        | Op.Store, Operand.Var v ->
          value_operand tu.b;
          Hashtbl.find index v
        | (Op.Const | Op.Load | Op.Store), _ ->
          ok := false;
          -1
        | (Op.Mov | Op.Neg), a ->
          value_operand a;
          -1
        | _, a ->
          value_operand a;
          value_operand tu.b;
          -1)
      tus
  in
  {
    vars;
    ops = Array.map (fun (tu : Tuple.t) -> tu.op) tus;
    ref_a = Array.map (fun (tu : Tuple.t) -> producer tu.a) tus;
    ref_b = Array.map (fun (tu : Tuple.t) -> producer tu.b) tus;
    imm_a = Array.map (fun (tu : Tuple.t) -> imm tu.a) tus;
    imm_b = Array.map (fun (tu : Tuple.t) -> imm tu.b) tus;
    var_a;
    ok = !ok;
  }

let prepared_vars p = Array.copy p.vars

exception Unready

(* An operand's value: its producer's (which has run: every reference
   is checked before its tuple runs) or its immediate. *)
let operand values r imm = if r < 0 then imm else values.(r)

let run_prepared p ~order ~init =
  let n = Array.length p.ops in
  if (not p.ok) || Array.length order <> n
     || Array.length init <> Array.length p.vars
  then None
  else begin
    let mem = Array.copy init in
    let values = Array.make n 0 in
    let ran = Array.make n false in
    match
      for k = 0 to n - 1 do
        let pos = order.(k) in
        if pos < 0 || pos >= n || ran.(pos) then raise Unready;
        let ra = p.ref_a.(pos) and rb = p.ref_b.(pos) in
        (* [Block.permute] checks every reference, used or not. *)
        if (ra >= 0 && not ran.(ra)) || (rb >= 0 && not ran.(rb)) then
          raise Unready;
        (match p.ops.(pos) with
         | Op.Const -> values.(pos) <- p.imm_a.(pos)
         | Op.Load -> values.(pos) <- mem.(p.var_a.(pos))
         | Op.Store ->
           mem.(p.var_a.(pos)) <- operand values rb p.imm_b.(pos)
         | (Op.Mov | Op.Neg) as op ->
           values.(pos) <- Op.eval1 op (operand values ra p.imm_a.(pos))
         | op ->
           values.(pos) <-
             Op.eval2 op
               (operand values ra p.imm_a.(pos))
               (operand values rb p.imm_b.(pos)));
        ran.(pos) <- true
      done
    with
    | () -> Some mem
    | exception Unready -> None
  end
