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
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
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

(* Sorts [a.(0 .. len-1)] ascending in place.  Neighbour lists are
   short, so insertion sort; a long one (a value read by many tuples)
   falls back to [Array.sort] rather than go quadratic. *)
let sort_prefix a len =
  if len <= 16 then
    for i = 1 to len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let s = Array.sub a 0 len in
    Array.sort Int.compare s;
    Array.blit s 0 a 0 len
  end

(* Scratch space of one canonicalization, sized to the block. *)
type scratch = {
  next : int array;  (** the colors of the round being computed *)
  edge_hash : int array;
      (** [Hashtbl.hash (k, color u)] at [k * n + u] this round, or [-1]
          before it is first needed *)
  buf : int array;  (** sort space: any neighbour list fits in [n] *)
  seen : int array;
      (** open-addressing set of colors, a power of two of at least [2n]
          slots; [-1] is empty (colors are [Hashtbl.hash] values, never
          negative) *)
}

let scratch n =
  let slots = ref 1 in
  while !slots < 2 * n do
    slots := 2 * !slots
  done;
  { next = Array.make n 0; edge_hash = Array.make (4 * n) (-1);
    buf = Array.make n 0; seen = Array.make !slots (-1) }

(* ------------------------------------------------------------------ *)
(* Refinement: Weisfeiler-Leman colors over the DAG.                   *)

(* Number of distinct colors.  Colors are hash values, so their low
   bits index the set directly. *)
let distinct sc color =
  let seen = sc.seen in
  let mask = Array.length seen - 1 in
  Array.fill seen 0 (mask + 1) (-1);
  let c = ref 0 in
  Array.iter
    (fun x ->
      let i = ref (x land mask) in
      while seen.(!i) >= 0 && seen.(!i) <> x do
        i := (!i + 1) land mask
      done;
      if seen.(!i) < 0 then begin
        seen.(!i) <- x;
        incr c
      end)
    color;
  !c

(* The sorted list of [Hashtbl.hash (kind, color u)] over one side's
   neighbours [u].  A node meets the same (kind, color) from each of its
   neighbours, so each hash is computed once per round. *)
let side sc color nbrs kinds =
  let d = Array.length nbrs in
  let n = Array.length color in
  let buf = sc.buf in
  for i = 0 to d - 1 do
    let u = nbrs.(i) and k = kind_index kinds.(i) in
    let slot = (k * n) + u in
    let h = sc.edge_hash.(slot) in
    buf.(i) <-
      (if h >= 0 then h
       else begin
         let h = Hashtbl.hash (k, color.(u)) in
         sc.edge_hash.(slot) <- h;
         h
       end)
  done;
  sort_prefix buf d;
  let l = ref [] in
  for i = d - 1 downto 0 do
    l := buf.(i) :: !l
  done;
  !l

(* Refines [color] in place. *)
let refine dag sc color =
  let n = Array.length color in
  let next = sc.next in
  (* Each round folds in one more hop of structure; [n] rounds always
     suffice, and the class count is monotone, so stop as soon as a
     round fails to split any class. *)
  let classes = ref (distinct sc color) in
  let round = ref 0 in
  while !round < n do
    Array.fill sc.edge_hash 0 (4 * n) (-1);
    for v = 0 to n - 1 do
      let ps = side sc color (Dag.preds_arr dag v) (Dag.pred_kinds dag v) in
      let ss = side sc color (Dag.succs_arr dag v) (Dag.succ_kinds dag v) in
      next.(v) <- Hashtbl.hash (color.(v), ps, ss)
    done;
    Array.blit next 0 color 0 n;
    let c = distinct sc color in
    if c > !classes then begin
      classes := c;
      incr round
    end
    else round := n
  done

(* ------------------------------------------------------------------ *)
(* Canonical order: greedy Kahn, least invariant key first.            *)

(* Lexicographic comparison of [a.(i .. i+la-1)] and [a.(j .. j+lb-1)];
   a proper prefix is the lesser. *)
let compare_codes a i la j lb =
  let m = min la lb in
  let k = ref 0 in
  while !k < m && a.(i + !k) = a.(j + !k) do
    incr k
  done;
  if !k < m then Int.compare a.(i + !k) a.(j + !k) else Int.compare la lb

let canonical_order dag sc opix color =
  let n = Array.length opix in
  let placed = Array.make n (-1) in
  let perm = Array.make n 0 in
  let deg = Array.init n (fun v -> Array.length (Dag.preds_arr dag v)) in
  let indeg = Array.copy deg in
  (* The key of a ready node: the canonical positions of its (already
     placed) predecessors tagged with edge kinds, sorted; then its
     refined color; then its op.  All components are isomorphism
     invariants; keys compare lexicographically.  The first component
     is fixed once the node is ready, so it is written once, into
     [codes] at [off.(v)]. *)
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + deg.(v)
  done;
  let codes = Array.make off.(n) 0 in
  let write_codes v =
    let ps = Dag.preds_arr dag v and ks = Dag.pred_kinds dag v in
    for i = 0 to deg.(v) - 1 do
      sc.buf.(i) <- (placed.(ps.(i)) * 8) + kind_index ks.(i)
    done;
    sort_prefix sc.buf deg.(v);
    Array.blit sc.buf 0 codes off.(v) deg.(v)
  in
  let compare_keys v w =
    let c = compare_codes codes off.(v) deg.(v) off.(w) deg.(w) in
    if c <> 0 then c
    else
      let c = Int.compare color.(v) color.(w) in
      if c <> 0 then c else Int.compare opix.(v) opix.(w)
  in
  (* Twins — tied nodes with the same successors over the same edge
     kinds — are swapped by an automorphism fixing every other node, so
     either pick yields the same canonical block.  (A tie already means
     the same op and the same predecessors.) *)
  let twins v w =
    let sv = Dag.succs_arr dag v and sw = Dag.succs_arr dag w in
    let kv = Dag.succ_kinds dag v and kw = Dag.succ_kinds dag w in
    let rec same i =
      i = Array.length sv
      || (sv.(i) = sw.(i) && kv.(i) = kw.(i) && same (i + 1))
    in
    Array.length sv = Array.length sw && same 0
  in
  for j = 0 to n - 1 do
    let best = ref (-1) and tied = ref [] in
    for v = 0 to n - 1 do
      if placed.(v) < 0 && indeg.(v) = 0 then begin
        let c = if !best < 0 then -1 else compare_keys v !best in
        if c < 0 then begin
          best := v;
          tied := []
        end
        else if c = 0 then tied := v :: !tied
      end
    done;
    let v = !best in
    placed.(v) <- j;
    perm.(j) <- v;
    Array.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then write_codes w)
      (Dag.succs_arr dag v);
    (* Other ties stop being interchangeable once one is placed: the
       next picks must follow the placed node's neighbourhood, not the
       input order (in [Load a; Const; And; Load b; Const; And] the
       [Const] sharing an [And] with the placed [Load] must come first).
       So individualize the chosen node and let refinement carry its
       position through the DAG. *)
    if List.exists (fun w -> not (twins v w)) !tied then begin
      color.(v) <- Hashtbl.hash (color.(v), j);
      refine dag sc color
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
    let ks = Dag.pred_kinds dag v in
    Array.iteri
      (fun i u ->
        match ks.(i) with
        | Dag.Mem_flow | Dag.Mem_anti | Dag.Mem_output ->
          let ru = find u and rv = find v in
          if ru <> rv then parent.(ru) <- rv
        | Dag.Data -> ())
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
  (* Group [r]'s name, once its first member is emitted. *)
  let group_name = Array.make n "" and groups = ref 0 in
  let tagged c k =
    let buf = Buffer.create 4 in
    Buffer.add_char buf c;
    Pipesched_prelude.Decimal.add_int buf k;
    Buffer.contents buf
  in
  (* The canonical variable of the memory op at original position [v],
     emitted at canonical position [j]. *)
  let var_name j v =
    let r = find v in
    if grouped.(r) then begin
      if group_name.(r) = "" then begin
        group_name.(r) <- tagged 's' !groups;
        incr groups
      end;
      Operand.Var group_name.(r)
    end
    else if (Block.tuple_at blk v).Tuple.op = Op.Store then
      Operand.Var (tagged 'w' j)
    else Operand.Var (tagged 'l' j)
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
        | Op.Load -> Tuple.make ~id Op.Load (var_name j v) Operand.Null
        | Op.Store ->
          Tuple.make ~id Op.Store (var_name j v) (value tu.Tuple.b)
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
  let sc = scratch n in
  refine dag sc color;
  let perm, placed = canonical_order dag sc opix color in
  let cblk = materialize dag blk placed perm in
  let key = Block.to_string cblk in
  { block = cblk; perm; key; hash = hash_string key }

let of_block blk = of_dag (Dag.of_block blk)

let apply t corder = Array.map (fun cpos -> t.perm.(cpos)) corder
