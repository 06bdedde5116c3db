module Bitset = Pipesched_prelude.Bitset

type edge_kind = Data | Mem_flow | Mem_anti | Mem_output

(* Adjacency is stored flattened as sorted [int array]s: the search
   kernels (Omega.State, Optimal) iterate predecessors and successors on
   every push/pop, and arrays keep that traversal allocation-free and
   cache-friendly.  Each edge's kind sits in an array aligned with its
   adjacency array, so [pred_kinds.(v).(i)] is the kind of the edge
   [preds.(v).(i) -> v].  The list accessors below are derived views. *)
type t = {
  blk : Block.t;
  preds : int array array;
  succs : int array array;
  pred_kinds : edge_kind array array;
  succ_kinds : edge_kind array array;
  ancestors : Bitset.t array;
  descendants : Bitset.t array;
}

(* Per-variable memory state of the block-order scan. *)
type mem = { mutable last_store : int; mutable loads_since : int list }

let of_block blk =
  let n = Block.length blk in
  (* Every edge into [v] is recorded while [v] is scanned: its data
     edges first, then its memory edges.  [mark.(u) = v] once [u -> v]
     is recorded, so the first kind recorded for an edge wins; the
     in-edges are kept sorted by source in the [src]/[knd] scratch. *)
  let mark = Array.make n (-1) in
  let src = Array.make n 0 and knd = Array.make n Data in
  let deg = ref 0 in
  let add_edge u v kind =
    if u <> v && mark.(u) <> v then begin
      mark.(u) <- v;
      let i = ref !deg in
      while !i > 0 && src.(!i - 1) > u do
        src.(!i) <- src.(!i - 1);
        knd.(!i) <- knd.(!i - 1);
        decr i
      done;
      src.(!i) <- u;
      knd.(!i) <- kind;
      incr deg
    end
  in
  let data v = function
    | Operand.Ref id -> add_edge (Block.pos_of_id blk id) v Data
    | Operand.Var _ | Operand.Imm _ | Operand.Null -> ()
  in
  let mems = Hashtbl.create 8 in
  let preds = Array.make n [||] and pred_kinds = Array.make n [||] in
  for v = 0 to n - 1 do
    deg := 0;
    let tu = Block.tuple_at blk v in
    (* Data dependences via Ref operands, left operand first. *)
    data v tu.Tuple.a;
    data v tu.Tuple.b;
    (* Memory dependences, per variable, in block order. *)
    (match (tu.Tuple.op, tu.Tuple.a) with
     | (Op.Load | Op.Store), Operand.Var x ->
       let m =
         match Hashtbl.find_opt mems x with
         | Some m -> m
         | None ->
           let m = { last_store = -1; loads_since = [] } in
           Hashtbl.replace mems x m;
           m
       in
       if tu.Tuple.op = Op.Store then begin
         if m.last_store >= 0 then add_edge m.last_store v Mem_output;
         List.iter (fun l -> add_edge l v Mem_anti) m.loads_since;
         m.last_store <- v;
         m.loads_since <- []
       end
       else begin
         if m.last_store >= 0 then add_edge m.last_store v Mem_flow;
         m.loads_since <- v :: m.loads_since
       end
     | _ -> ());
    preds.(v) <- Array.sub src 0 !deg;
    pred_kinds.(v) <- Array.sub knd 0 !deg
  done;
  (* Successors, filled in increasing consumer order, come out sorted. *)
  let outdeg = Array.make n 0 in
  Array.iter (Array.iter (fun u -> outdeg.(u) <- outdeg.(u) + 1)) preds;
  let succs = Array.map (fun d -> Array.make d 0) outdeg in
  let succ_kinds = Array.map (fun d -> Array.make d Data) outdeg in
  Array.fill outdeg 0 n 0;
  for v = 0 to n - 1 do
    Array.iteri
      (fun i u ->
        let j = outdeg.(u) in
        succs.(u).(j) <- v;
        succ_kinds.(u).(j) <- pred_kinds.(v).(i);
        outdeg.(u) <- j + 1)
      preds.(v)
  done;
  (* Transitive closures.  Block order is a topological order, so a single
     forward pass computes ancestors and a backward pass descendants. *)
  let ancestors = Array.init n (fun _ -> Bitset.create n) in
  for v = 0 to n - 1 do
    Array.iter
      (fun u ->
        Bitset.add ancestors.(v) u;
        Bitset.union_into ~into:ancestors.(v) ancestors.(u))
      preds.(v)
  done;
  let descendants = Array.init n (fun _ -> Bitset.create n) in
  for u = n - 1 downto 0 do
    Array.iter
      (fun v ->
        Bitset.add descendants.(u) v;
        Bitset.union_into ~into:descendants.(u) descendants.(v))
      succs.(u)
  done;
  { blk; preds; succs; pred_kinds; succ_kinds; ancestors; descendants }

let block d = d.blk
let length d = Array.length d.preds
let preds d i = Array.to_list d.preds.(i)
let succs d i = Array.to_list d.succs.(i)
let preds_arr d i = d.preds.(i)
let succs_arr d i = d.succs.(i)
let pred_kinds d i = d.pred_kinds.(i)
let succ_kinds d i = d.succ_kinds.(i)

let edge_kind d u v =
  if u < 0 || u >= length d then None
  else begin
    (* Binary search of [u]'s sorted successors. *)
    let s = d.succs.(u) in
    let rec find lo hi =
      if lo >= hi then None
      else
        let mid = (lo + hi) / 2 in
        let w = s.(mid) in
        if w = v then Some d.succ_kinds.(u).(mid)
        else if w < v then find (mid + 1) hi
        else find lo mid
    in
    find 0 (Array.length s)
  end

let ancestors d i = d.ancestors.(i)
let descendants d i = d.descendants.(i)
let earliest d i = Bitset.cardinal d.ancestors.(i)
let latest d i = length d - 1 - Bitset.cardinal d.descendants.(i)

let is_legal_order d order =
  let n = length d in
  if Array.length order <> n then false
  else begin
    let new_pos = Array.make n (-1) in
    let ok = ref true in
    Array.iteri
      (fun np op ->
        if op < 0 || op >= n || new_pos.(op) >= 0 then ok := false
        else new_pos.(op) <- np)
      order;
    !ok
    && (let legal = ref true in
        for v = 0 to n - 1 do
          Array.iter
            (fun u -> if new_pos.(u) >= new_pos.(v) then legal := false)
            d.preds.(v)
        done;
        !legal)
  end

let heights d ~edge_weight =
  let n = length d in
  let h = Array.make n 0 in
  for u = n - 1 downto 0 do
    Array.iter
      (fun v -> h.(u) <- max h.(u) (edge_weight ~src:u ~dst:v + h.(v)))
      d.succs.(u)
  done;
  h

let roots d =
  let acc = ref [] in
  for i = length d - 1 downto 0 do
    if Array.length d.preds.(i) = 0 then acc := i :: !acc
  done;
  !acc

let critical_path d ~edge_weight =
  Array.fold_left max 0 (heights d ~edge_weight)

let to_dot d =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dag {\n  node [shape=box, fontname=monospace];\n";
  for i = 0 to length d - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=%S];\n" i
         (Tuple.to_string (Block.tuple_at d.blk i)))
  done;
  Array.iteri
    (fun u succs ->
      Array.iteri
        (fun i v ->
          let style, label =
            match d.succ_kinds.(u).(i) with
            | Data -> ("solid", "")
            | Mem_flow -> ("dashed", "flow")
            | Mem_anti -> ("dashed", "anti")
            | Mem_output -> ("dashed", "out")
          in
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d [style=%s, label=%S];\n" u v style
               label))
        succs)
    d.succs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
