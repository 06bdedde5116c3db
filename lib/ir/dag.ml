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
}

(* [a.(0 .. len-1)] as a fresh array, and a fresh zeroed array of
   [len].  Most nodes have at most two neighbours on a side, and an
   array literal that short is allocated inline, without the call into
   the runtime that [Array.sub] and [Array.make] make. *)
let prefix (a : int array) len =
  match len with
  | 0 -> [||]
  | 1 -> [| a.(0) |]
  | 2 -> [| a.(0); a.(1) |]
  | _ -> Array.sub a 0 len

let prefix_kinds (a : edge_kind array) len =
  match len with
  | 0 -> [||]
  | 1 -> [| a.(0) |]
  | 2 -> [| a.(0); a.(1) |]
  | _ -> Array.sub a 0 len

let zeros len =
  match len with
  | 0 -> [||]
  | 1 -> [| 0 |]
  | 2 -> [| 0; 0 |]
  | _ -> Array.make len 0

let data_kinds len =
  match len with
  | 0 -> [||]
  | 1 -> [| Data |]
  | 2 -> [| Data; Data |]
  | _ -> Array.make len Data

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
    preds.(v) <- prefix src !deg;
    pred_kinds.(v) <- prefix_kinds knd !deg
  done;
  (* Successors, filled in increasing consumer order, come out sorted. *)
  let outdeg = Array.make n 0 in
  for v = 0 to n - 1 do
    let ps = preds.(v) in
    for i = 0 to Array.length ps - 1 do
      outdeg.(ps.(i)) <- outdeg.(ps.(i)) + 1
    done
  done;
  let succs = Array.map zeros outdeg in
  let succ_kinds = Array.map data_kinds outdeg in
  Array.fill outdeg 0 n 0;
  for v = 0 to n - 1 do
    let ps = preds.(v) and ks = pred_kinds.(v) in
    for i = 0 to Array.length ps - 1 do
      let u = ps.(i) in
      let j = outdeg.(u) in
      succs.(u).(j) <- v;
      succ_kinds.(u).(j) <- ks.(i);
      outdeg.(u) <- j + 1
    done
  done;
  { blk; preds; succs; pred_kinds; succ_kinds }

let block d = d.blk
let length d = Array.length d.preds
let preds d i = Array.to_list d.preds.(i)
let succs d i = Array.to_list d.succs.(i)
let preds_arr d i = d.preds.(i)
let succs_arr d i = d.succs.(i)
let pred_table d = d.preds
let succ_table d = d.succs
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

(* The transitive closures are computed per call, by one pass over the
   positions on the node's side: block order is a topological order, so
   every predecessor of a position comes before it. *)
let ancestors d i =
  let s = Bitset.create (length d) in
  Array.iter (Bitset.add s) d.preds.(i);
  for u = i - 1 downto 0 do
    if Bitset.mem s u then Array.iter (Bitset.add s) d.preds.(u)
  done;
  s

let descendants d i =
  let n = length d in
  let s = Bitset.create n in
  Array.iter (Bitset.add s) d.succs.(i);
  for v = i + 1 to n - 1 do
    if Bitset.mem s v then Array.iter (Bitset.add s) d.succs.(v)
  done;
  s

let earliest d i = Bitset.cardinal (ancestors d i)
let latest d i = length d - 1 - Bitset.cardinal (descendants d i)

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
