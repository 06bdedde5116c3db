type t = {
  block : Block.t;
  perm : int array;
  key : string;
  hash : int;
}

let hash_string s =
  (* FNV-1a, 64-bit arithmetic on OCaml's native int (the top bit is
     lost; irrelevant — consumers compare full keys, never only hashes). *)
  let h = ref ((0xcbf29ce4 lsl 32) lor 0x84222325) in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h

let op_index =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i op -> Hashtbl.replace tbl op i) Op.all;
  fun op -> Hashtbl.find tbl op

let kind_index = function
  | Dag.Data -> 0
  | Dag.Mem_flow -> 1
  | Dag.Mem_anti -> 2
  | Dag.Mem_output -> 3

(* ------------------------------------------------------------------ *)
(* Refinement: Weisfeiler-Leman colors over the DAG.                   *)

(* Refines [color] in place. *)
let refine dag color =
  let n = Array.length color in
  let distinct colors =
    let seen = Hashtbl.create (2 * n) in
    Array.iter (fun c -> Hashtbl.replace seen c ()) colors;
    Hashtbl.length seen
  in
  let classes = ref (distinct color) in
  (* Each round folds in one more hop of structure; [n] rounds always
     suffice, and the class count is monotone, so stop as soon as a
     round fails to split any class. *)
  let rec go round =
    if round >= n then ()
    else begin
      let next =
        Array.init n (fun v ->
            let side edges =
              let a =
                Array.map
                  (fun u ->
                    let k =
                      match Dag.edge_kind dag u v with
                      | Some k -> kind_index k
                      | None -> (
                        match Dag.edge_kind dag v u with
                        | Some k -> kind_index k
                        | None -> 4)
                    in
                    Hashtbl.hash (k, color.(u)))
                  edges
              in
              Array.sort compare a;
              Array.to_list a
            in
            Hashtbl.hash
              (color.(v), side (Dag.preds_arr dag v), side (Dag.succs_arr dag v)))
      in
      Array.blit next 0 color 0 n;
      let c = distinct color in
      if c > !classes then begin
        classes := c;
        go (round + 1)
      end
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Canonical order: greedy Kahn, least invariant key first.            *)

let canonical_order dag opix color =
  let n = Array.length opix in
  let placed = Array.make n (-1) in
  let perm = Array.make n 0 in
  let indeg = Array.init n (fun v -> Array.length (Dag.preds_arr dag v)) in
  (* The key of a ready node: canonical positions of its (already
     placed) predecessors tagged with edge kinds, then its refined
     color, then its op.  All components are isomorphism invariants. *)
  let key v =
    let ps =
      Array.map
        (fun u ->
          let k =
            match Dag.edge_kind dag u v with
            | Some k -> kind_index k
            | None -> 4
          in
          (placed.(u) * 8) + k)
        (Dag.preds_arr dag v)
    in
    Array.sort compare ps;
    (Array.to_list ps, color.(v), opix.(v))
  in
  (* Twins — tied nodes with the same successors over the same edge
     kinds — are swapped by an automorphism fixing every other node, so
     either pick yields the same canonical block.  (A tie already means
     the same op and the same predecessors.) *)
  let twins v w =
    Dag.succs_arr dag v = Dag.succs_arr dag w
    && Array.for_all
         (fun s -> Dag.edge_kind dag v s = Dag.edge_kind dag w s)
         (Dag.succs_arr dag v)
  in
  for j = 0 to n - 1 do
    let best = ref (-1) and best_key = ref ([], 0, 0) and tied = ref [] in
    for v = 0 to n - 1 do
      if placed.(v) < 0 && indeg.(v) = 0 then begin
        let k = key v in
        let c = if !best < 0 then -1 else compare k !best_key in
        if c < 0 then begin
          best := v;
          best_key := k;
          tied := []
        end
        else if c = 0 then tied := v :: !tied
      end
    done;
    let v = !best in
    placed.(v) <- j;
    perm.(j) <- v;
    Array.iter (fun w -> indeg.(w) <- indeg.(w) - 1) (Dag.succs_arr dag v);
    (* Other ties stop being interchangeable once one is placed: the
       next picks must follow the placed node's neighbourhood, not the
       input order (in [Load a; Const; And; Load b; Const; And] the
       [Const] sharing an [And] with the placed [Load] must come first).
       So individualize the chosen node and let refinement carry its
       position through the DAG. *)
    if List.exists (fun w -> not (twins v w)) !tied then begin
      color.(v) <- Hashtbl.hash (color.(v), j);
      refine dag color
    end
  done;
  (perm, placed)

(* ------------------------------------------------------------------ *)
(* Materialization: rebuild the block in canonical clothing.           *)

let materialize dag blk placed perm =
  let n = Array.length perm in
  (* Canonical variable names must be a function of the DAG alone, not
     of source-variable sharing the DAG cannot see: an anti dependence
     (load x before store x) whose pair already carries a data edge is
     recorded as [Data] by [Dag.of_block] (first kind wins), so two
     stores can share a variable with a load textually while being
     structurally indistinguishable.  Group memory operations by the
     memory-kind edges the DAG actually recorded (union-find); each
     group renamed [s<k>] by first canonical occurrence.  A memory op
     with no recorded memory edge gets a private variable — [l<j>] for
     loads (unordered loads carry no constraint; splitting them is
     invisible to Omega and maximizes dedup) — which reproduces the
     original edge set exactly, since any relation to its old
     var-mates either never existed or survives as the data edge. *)
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  for v = 0 to n - 1 do
    Array.iter
      (fun u ->
        match Dag.edge_kind dag u v with
        | Some (Dag.Mem_flow | Dag.Mem_anti | Dag.Mem_output) ->
          let ru = find u and rv = find v in
          if ru <> rv then parent.(ru) <- rv
        | Some Dag.Data | None -> ())
      (Dag.preds_arr dag v)
  done;
  let grouped = Array.make n false in
  for v = 0 to n - 1 do
    let r = find v in
    if r <> v then begin
      grouped.(r) <- true;
      grouped.(v) <- true
    end
  done;
  let names = Hashtbl.create 8 in
  let var_name j v =
    let tu = Block.tuple_at blk v in
    match Tuple.memory_var tu with
    | None -> None
    | Some _ ->
      let r = find v in
      if grouped.(r) then begin
        match Hashtbl.find_opt names r with
        | Some nm -> Some nm
        | None ->
          let nm = Printf.sprintf "s%d" (Hashtbl.length names) in
          Hashtbl.replace names r nm;
          Some nm
      end
      else if Tuple.writes_memory tu then
        Some (Printf.sprintf "w%d" j)
      else Some (Printf.sprintf "l%d" j)
  in
  let canon_ref id = placed.(Block.pos_of_id blk id) + 1 in
  let value = function
    | Operand.Ref id -> Operand.Ref (canon_ref id)
    | _ -> Operand.Imm 0
  in
  (* Explicit left-to-right loop: the [s<k>] numbering is first-occurrence
     stateful, and [List.init]'s evaluation order is unspecified. *)
  let acc = ref [] in
  for j = 0 to n - 1 do
    let tu =
        let v = perm.(j) in
        let tu = Block.tuple_at blk v in
        let id = j + 1 in
        match tu.Tuple.op with
        | Op.Const -> Tuple.make ~id Op.Const (Operand.Imm 0) Operand.Null
        | Op.Load ->
          Tuple.make ~id Op.Load
            (Operand.Var (Option.get (var_name j v)))
            Operand.Null
        | Op.Store ->
          Tuple.make ~id Op.Store
            (Operand.Var (Option.get (var_name j v)))
            (value tu.Tuple.b)
        | op when Op.value_arity op = 1 ->
          Tuple.make ~id op (value tu.Tuple.a) Operand.Null
        | op ->
          (* Binary: the DAG keeps one Data edge per (producer,
             consumer) pair and never sees operand sides, so the text
             must carry exactly the *set* of canonical producers —
             sorted, deduplicated (Or t1, t1 and Or 3, t1 are
             structurally identical), padded with immediates.  Omega
             treats operands symmetrically, so this only widens the
             equivalence class; re-parsing rebuilds the same edges. *)
          let a = value tu.Tuple.a and b = value tu.Tuple.b in
          let lo, hi =
            match (a, b) with
            | Operand.Ref i, Operand.Ref j when i = j -> (a, Operand.Imm 0)
            | Operand.Ref i, Operand.Ref j when i > j -> (b, a)
            | Operand.Ref _, Operand.Ref _ -> (a, b)
            | Operand.Ref _, _ -> (a, Operand.Imm 0)
            | _, Operand.Ref _ -> (b, Operand.Imm 0)
            | _, _ -> (Operand.Imm 0, Operand.Imm 0)
          in
          Tuple.make ~id op lo hi
    in
    acc := tu :: !acc
  done;
  Block.of_tuples_exn (List.rev !acc)

let of_dag dag =
  let blk = Dag.block dag in
  let n = Dag.length dag in
  let opix = Array.init n (fun i -> op_index (Block.tuple_at blk i).Tuple.op) in
  let color = Array.map (fun o -> Hashtbl.hash (0x9e37, o)) opix in
  refine dag color;
  let perm, placed = canonical_order dag opix color in
  let cblk = materialize dag blk placed perm in
  let key = Block.to_string cblk in
  { block = cblk; perm; key; hash = hash_string key }

let of_block blk = of_dag (Dag.of_block blk)

let apply t corder = Array.map (fun cpos -> t.perm.(cpos)) corder
