open Pipesched_ir

(* The passes run over one slot buffer, so no [Block] is built between
   passes.  Slot [s] holds the tuple at position [s] of the input
   block, and an operand is a (kind, value) pair of ints: a variable is
   interned once per call, a reference is the slot it points at, an
   immediate is its value.  A pass rewrites slots in place, drops slots
   from the live order, and sets [changed] when it drops a slot or
   rewrites an op or operand.  The buffer is validated and materialized
   as a [Block] once, by [emit]. *)

let k_null = 0
let k_var = 1
let k_ref = 2
let k_imm = 3

(* CSE's key for a pure expression.  Immediates are arbitrary ints, so
   an operand's value cannot share a word with its kind or with the
   other operand's value. *)
type key = { kop : Op.t; kinds : int; x : int; y : int }

module Pure = Hashtbl.Make (struct
  type t = key

  let equal k1 k2 =
    k1.kop == k2.kop && k1.kinds = k2.kinds && k1.x = k2.x && k1.y = k2.y

  let hash k = (((k.kinds * 65599) + k.x) * 65599) + k.y
end)

type buf = {
  ids : int array; (* the input block's tuple ids *)
  ops : Op.t array;
  ak : int array; (* operand a: kind and value *)
  av : int array;
  bk : int array; (* operand b *)
  bv : int array;
  vars : Operand.t array; (* interned variable -> its operand *)
  order : int array; (* live slots, in block order: order.(0 .. len - 1) *)
  mutable len : int;
  mutable changed : bool;
  (* Alias map by slot.  A pass that substitutes writes it for every
     slot it visits, before any later slot reads it: a dropped or
     constant slot maps to the operand that replaces it, any other slot
     to itself. *)
  alias_k : int array;
  alias_v : int array;
  live : int array; (* dce: slot s is live when live.(s) = clock *)
  mutable clock : int;
  var_k : int array; (* cse: the value each variable holds *)
  var_v : int array;
  overwritten : bool array; (* dead_store, by variable *)
  pure : int Pure.t;
}

let load blk =
  let n = Block.length blk in
  let ids = Array.make n 0 and ops = Array.make n Op.Const in
  let ak = Array.make n k_null and av = Array.make n 0 in
  let bk = Array.make n k_null and bv = Array.make n 0 in
  let names = Hashtbl.create 16 and vars = ref [] and nvars = ref 0 in
  let operand o kinds vals s =
    match o with
    | Operand.Null -> ()
    | Operand.Var name ->
      kinds.(s) <- k_var;
      vals.(s) <-
        (match Hashtbl.find_opt names name with
         | Some v -> v
         | None ->
           let v = !nvars in
           Hashtbl.add names name v;
           vars := o :: !vars;
           incr nvars;
           v)
    | Operand.Ref id ->
      kinds.(s) <- k_ref;
      vals.(s) <- Block.pos_of_id blk id
    | Operand.Imm x ->
      kinds.(s) <- k_imm;
      vals.(s) <- x
  in
  for s = 0 to n - 1 do
    let tu = Block.tuple_at blk s in
    ids.(s) <- tu.Tuple.id;
    ops.(s) <- tu.Tuple.op;
    operand tu.Tuple.a ak av s;
    operand tu.Tuple.b bk bv s
  done;
  let nvars = !nvars in
  {
    ids; ops; ak; av; bk; bv;
    vars = Array.of_list (List.rev !vars);
    order = Array.init n Fun.id;
    len = n;
    changed = false;
    alias_k = Array.make n k_ref;
    alias_v = Array.make n 0;
    live = Array.make n 0;
    clock = 0;
    var_k = Array.make nvars k_null;
    var_v = Array.make nvars 0;
    overwritten = Array.make nvars false;
    pure = Pure.create 16;
  }

(* The live slots as a block, each tuple under [b.ids]. *)
let emit b =
  let operand k v =
    if k = k_ref then Operand.Ref b.ids.(v)
    else if k = k_imm then Operand.Imm v
    else if k = k_var then b.vars.(v)
    else Operand.Null
  in
  let acc = ref [] in
  for i = b.len - 1 downto 0 do
    let s = b.order.(i) in
    acc :=
      Tuple.make ~id:b.ids.(s) b.ops.(s)
        (operand b.ak.(s) b.av.(s))
        (operand b.bk.(s) b.bv.(s))
      :: !acc
  done;
  Block.of_tuples_exn !acc

(* Apply the alias map to an operand of slot [s]. *)
let subst b kinds vals s =
  if kinds.(s) = k_ref then begin
    let r = vals.(s) in
    let k = b.alias_k.(r) and v = b.alias_v.(r) in
    if k <> k_ref || v <> r then begin
      kinds.(s) <- k;
      vals.(s) <- v;
      b.changed <- true
    end
  end

let keep b s =
  b.alias_k.(s) <- k_ref;
  b.alias_v.(s) <- s

let set b s op ak av bk bv =
  b.ops.(s) <- op;
  b.ak.(s) <- ak;
  b.av.(s) <- av;
  b.bk.(s) <- bk;
  b.bv.(s) <- bv;
  b.changed <- true

(* Walk the live slots in order; [visit s] says whether to keep [s]. *)
let filter b visit =
  let j = ref 0 in
  for i = 0 to b.len - 1 do
    let s = b.order.(i) in
    if visit s then begin
      b.order.(!j) <- s;
      incr j
    end
    else b.changed <- true
  done;
  b.len <- !j

(* The same, walking backwards. *)
let filter_rev b visit =
  let j = ref b.len in
  for i = b.len - 1 downto 0 do
    let s = b.order.(i) in
    if visit s then begin
      decr j;
      b.order.(!j) <- s
    end
    else b.changed <- true
  done;
  Array.blit b.order !j b.order 0 (b.len - !j);
  b.len <- b.len - !j

(* Slot [s] holds the constant [n]; later references read [n] through
   the alias map. *)
let fold b s n =
  if b.ops.(s) != Op.Const then set b s Op.Const k_imm n k_null 0;
  b.alias_k.(s) <- k_imm;
  b.alias_v.(s) <- n

let const_fold_buf b =
  for i = 0 to b.len - 1 do
    let s = b.order.(i) in
    subst b b.ak b.av s;
    subst b b.bk b.bv s;
    let op = b.ops.(s) in
    let a_imm = b.ak.(s) = k_imm and b_imm = b.bk.(s) = k_imm in
    let x = b.av.(s) and y = b.bv.(s) in
    match op with
    | Op.Const -> fold b s x
    | (Op.Mov | Op.Neg) when a_imm -> fold b s (Op.eval1 op x)
    | ( Op.Add | Op.Sub | Op.Mul | Op.Div | Op.Mod | Op.And | Op.Or | Op.Xor
      | Op.Shl | Op.Shr )
      when a_imm && b_imm ->
      fold b s (Op.eval2 op x y)
    | _ -> keep b s
  done

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let mov b s k v = set b s Op.Mov k v k_null 0
let zero b s = set b s Op.Const k_imm 0 k_null 0

(* The first matching rule wins, so their order is part of the output. *)
let peephole_buf b =
  for i = 0 to b.len - 1 do
    let s = b.order.(i) in
    let ak = b.ak.(s) and av = b.av.(s) and bk = b.bk.(s) and bv = b.bv.(s) in
    let a_imm = ak = k_imm and b_imm = bk = k_imm in
    match b.ops.(s) with
    | Op.Add | Op.Or | Op.Xor when b_imm && bv = 0 -> mov b s ak av
    | Op.Add | Op.Or | Op.Xor when a_imm && av = 0 -> mov b s bk bv
    | Op.Sub | Op.Shl | Op.Shr when b_imm && bv = 0 -> mov b s ak av
    | Op.Sub | Op.Xor when ak = k_ref && bk = k_ref && av = bv -> zero b s
    | Op.Mul when b_imm && bv = 1 -> mov b s ak av
    | Op.Mul when a_imm && av = 1 -> mov b s bk bv
    | (Op.Mul | Op.And) when (b_imm && bv = 0) || (a_imm && av = 0) ->
      zero b s
    | Op.Mul when b_imm && is_power_of_two bv ->
      set b s Op.Shl ak av k_imm (log2 bv)
    | Op.Mul when a_imm && is_power_of_two av ->
      set b s Op.Shl bk bv k_imm (log2 av)
    | Op.Div when b_imm && bv = 1 -> mov b s ak av
    | _ -> ()
  done

(* -(-x) = Mov x looks through one reference, at the inner tuple as it
   was before this pass.  Walking backwards, the inner tuple (an earlier
   slot) has not been rewritten yet when its user is visited. *)
let double_neg_buf b =
  for i = b.len - 1 downto 0 do
    let s = b.order.(i) in
    if b.ops.(s) == Op.Neg && b.ak.(s) = k_ref then begin
      let r = b.av.(s) in
      if b.ops.(r) == Op.Neg then set b s Op.Mov b.ak.(r) b.av.(r) k_null 0
    end
  done

let copy_prop_buf b =
  filter b (fun s ->
      subst b b.ak b.av s;
      subst b b.bk b.bv s;
      if b.ops.(s) == Op.Mov then begin
        b.alias_k.(s) <- b.ak.(s);
        b.alias_v.(s) <- b.av.(s);
        false
      end
      else begin
        keep b s;
        true
      end)

(* A load of a variable reuses the value the variable holds: the first
   load of it when nothing stored to it yet, the last stored value
   otherwise. *)
let cse_buf b =
  Array.fill b.var_k 0 (Array.length b.var_k) k_null;
  Pure.reset b.pure;
  let alias s k v =
    b.alias_k.(s) <- k;
    b.alias_v.(s) <- v;
    false
  in
  filter b (fun s ->
      subst b b.ak b.av s;
      subst b b.bk b.bv s;
      match b.ops.(s) with
      | Op.Load ->
        let v = b.av.(s) in
        if b.var_k.(v) <> k_null then alias s b.var_k.(v) b.var_v.(v)
        else begin
          b.var_k.(v) <- k_ref;
          b.var_v.(v) <- s;
          keep b s;
          true
        end
      | Op.Store ->
        let v = b.av.(s) in
        b.var_k.(v) <- b.bk.(s);
        b.var_v.(v) <- b.bv.(s);
        keep b s;
        true
      | op ->
        let ak = b.ak.(s) and av = b.av.(s) and bk = b.bk.(s) and bv = b.bv.(s) in
        (* Any total order on operands gives the same classes. *)
        let key =
          if Op.commutative op && (ak > bk || (ak = bk && av > bv)) then
            { kop = op; kinds = (bk lsl 2) lor ak; x = bv; y = av }
          else { kop = op; kinds = (ak lsl 2) lor bk; x = av; y = bv }
        in
        match Pure.find_opt b.pure key with
        | Some s0 -> alias s k_ref s0
        | None ->
          Pure.add b.pure key s;
          keep b s;
          true)

let mark b k v = if k = k_ref then b.live.(v) <- b.clock

let dce_buf b =
  b.clock <- b.clock + 1;
  filter_rev b (fun s ->
      if b.ops.(s) == Op.Store || b.live.(s) = b.clock then begin
        mark b b.ak.(s) b.av.(s);
        mark b b.bk.(s) b.bv.(s);
        true
      end
      else false)

let dead_store_buf b =
  Array.fill b.overwritten 0 (Array.length b.overwritten) false;
  filter_rev b (fun s ->
      match b.ops.(s) with
      | Op.Load ->
        b.overwritten.(b.av.(s)) <- false;
        true
      | Op.Store ->
        let v = b.av.(s) in
        if b.overwritten.(v) then false
        else begin
          b.overwritten.(v) <- true;
          true
        end
      | _ -> true)

(* Number the live slots 1..len, in order. *)
let renumber_buf b =
  for i = 0 to b.len - 1 do
    b.ids.(b.order.(i)) <- i + 1
  done

(* One pass alone: the block's own ids are kept. *)
let run pass blk =
  let b = load blk in
  pass b;
  emit b

let const_fold = run const_fold_buf
let peephole = run peephole_buf
let copy_prop = run copy_prop_buf
let cse = run cse_buf
let dce = run dce_buf
let dead_store = run dead_store_buf
let renumber = run renumber_buf

let optimize blk =
  let b = load blk in
  let rec fix iters =
    b.changed <- false;
    const_fold_buf b;
    peephole_buf b;
    double_neg_buf b;
    copy_prop_buf b;
    cse_buf b;
    dce_buf b;
    dead_store_buf b;
    if iters > 0 && b.changed then fix (iters - 1)
  in
  fix 10;
  renumber_buf b;
  emit b
