type labeling = { perm : int array; key : string; hash : int }

type t = {
  block : Block.t;
  perm : int array;
  key : string;
  hash : int;
}

let version = 2

let hash_string s =
  (* FNV-1a, 64-bit arithmetic on OCaml's native int (the top bit is
     lost; irrelevant — consumers compare full keys, never only hashes). *)
  let h = ref ((0xcbf29ce4 lsl 32) lor 0x84222325) in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h

(* [Op.index] inverted. *)
let ops = Array.of_list Op.all

let kind_index = function
  | Dag.Data -> 0
  | Dag.Mem_flow -> 1
  | Dag.Mem_anti -> 2
  | Dag.Mem_output -> 3

(* Folds [x] into the hash state [h]: a 63-bit multiply-xorshift
   (splitmix's finalizer, constants cut to OCaml's int), which allocates
   nothing.  Everything folded is either a small structural count or an
   earlier mix, so [h lxor x] colliding needs two mixes to agree in
   some 60 bits. *)
let[@inline] mix h x =
  let z = (h lxor x) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

(* Sorts [a.(off .. off+len-1)] ascending in place.  Neighbour lists
   are short, so insertion sort; a long one (a value read by many
   tuples) falls back to [Array.sort] rather than go quadratic. *)
let sort_range a off len =
  if len <= 16 then
    for i = off + 1 to off + len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= off && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let s = Array.sub a off len in
    Array.sort Int.compare s;
    Array.blit s 0 a off len
  end

(* Scratch space of one labeling, sized to the block. *)
type scratch = {
  next : int array;  (** the colors of the round being computed *)
  buf : int array;  (** sort space: any neighbour list fits in [n] *)
  seen : int array;
      (** open-addressing set of colors, a power of two of at least [2n]
          slots; [-1] is empty (colors are never negative) *)
}

let scratch n =
  let slots = ref 1 in
  while !slots < 2 * n do
    slots := 2 * !slots
  done;
  { next = Array.make n 0; buf = Array.make n 0;
    seen = Array.make !slots (-1) }

(* ------------------------------------------------------------------ *)
(* Refinement: Weisfeiler-Leman colors over the DAG.                   *)

(* Number of distinct colors.  Colors are mixes, so their low bits
   index the set directly. *)
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

(* Folds one side's neighbours into [h]: their number, then their codes
   [mix kind (color u)] in sorted order. *)
let side sc color nbrs kinds h =
  let d = Array.length nbrs in
  let buf = sc.buf in
  for i = 0 to d - 1 do
    buf.(i) <- mix (kind_index kinds.(i)) color.(nbrs.(i))
  done;
  if d = 2 then begin
    let x = buf.(0) and y = buf.(1) in
    if x > y then begin
      buf.(0) <- y;
      buf.(1) <- x
    end
  end
  else if d > 2 then sort_range buf 0 d;
  let h = ref (mix h d) in
  for i = 0 to d - 1 do
    h := mix !h buf.(i)
  done;
  !h

(* Refines [color] in place. *)
let refine dag sc color =
  let n = Array.length color in
  let next = sc.next in
  (* Each round folds in one more hop of structure; [n] rounds always
     suffice, and the class count is monotone, so stop as soon as a
     round fails to split any class, or once every node has its own
     color and none can split. *)
  let classes = ref (distinct sc color) in
  let round = ref 0 in
  while !round < n && !classes < n do
    for v = 0 to n - 1 do
      let h = color.(v) in
      let h = side sc color (Dag.preds_arr dag v) (Dag.pred_kinds dag v) h in
      let h = side sc color (Dag.succs_arr dag v) (Dag.succ_kinds dag v) h in
      next.(v) <- h land max_int
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
      codes.(off.(v) + i) <- (placed.(ps.(i)) * 8) + kind_index ks.(i)
    done;
    sort_range codes off.(v) deg.(v)
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
  (* The ready nodes, sorted by key and then position, greatest first:
     the pick — the least key, and among equal keys the first position —
     is the last.  A ready node's key changes only when a refinement
     recolors the DAG, and then the whole list is re-sorted. *)
  let ready = Array.make n 0 and nready = ref 0 in
  let greater v w =
    let c = compare_keys v w in
    c > 0 || (c = 0 && v > w)
  in
  let insert v =
    let lo = ref 0 and hi = ref !nready in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if greater ready.(mid) v then lo := mid + 1 else hi := mid
    done;
    for i = !nready downto !lo + 1 do
      ready.(i) <- ready.(i - 1)
    done;
    ready.(!lo) <- v;
    incr nready
  in
  for v = 0 to n - 1 do
    if deg.(v) = 0 then insert v
  done;
  for j = 0 to n - 1 do
    decr nready;
    let v = ready.(!nready) in
    (* Does [v] tie with a ready node that is not its twin? *)
    let rec untwinned_tie i =
      i >= 0
      && compare_keys ready.(i) v = 0
      && ((not (twins v ready.(i))) || untwinned_tie (i - 1))
    in
    let individualize = untwinned_tie (!nready - 1) in
    placed.(v) <- j;
    perm.(j) <- v;
    let succs = Dag.succs_arr dag v in
    for i = 0 to Array.length succs - 1 do
      let w = succs.(i) in
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then begin
        write_codes w;
        insert w
      end
    done;
    (* Other ties stop being interchangeable once one is placed: the
       next picks must follow the placed node's neighbourhood, not the
       input order (in [Load a; Const; And; Load b; Const; And] the
       [Const] sharing an [And] with the placed [Load] must come first).
       So individualize the chosen node and let refinement carry its
       position through the DAG. *)
    if individualize then begin
      color.(v) <- mix color.(v) j land max_int;
      refine dag sc color;
      let sorted = Array.sub ready 0 !nready in
      Array.sort
        (fun v w -> if v = w then 0 else if greater v w then -1 else 1)
        sorted;
      Array.blit sorted 0 ready 0 !nready
    end
  done;
  (perm, placed)

(* ------------------------------------------------------------------ *)
(* The key: the canonical block, packed.                               *)

(* Appends [x >= 0] as a LEB128 varint: seven bits a byte, low first,
   the high bit set on every byte but the last. *)
let rec add_varint buf x =
  if x < 0x80 then Buffer.add_char buf (Char.unsafe_chr x)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (x land 0x7f)));
    add_varint buf (x lsr 7)
  end

(* Union-find root, with path compression. *)
let rec find parent i =
  if parent.(i) = i then i
  else begin
    parent.(i) <- find parent parent.(i);
    parent.(i)
  end

(* Per canonical position, the op index and two operand codes, which
   is all the canonical block's text varies in:

   - a data operand is its canonical producer position + 1, or 0 for an
     immediate or no operand.  A binary op's pair is the {e set} of its
     producers, ascending and padded with 0: the DAG keeps one Data
     edge per (producer, consumer) pair and never sees operand sides
     ([Or t1, t1] and [Or 3, t1] are structurally identical, and Omega
     treats operands symmetrically);
   - a memory operand (a [Load]'s, or a [Store]'s first) is its group
     number + 1, or 0 for a private variable.  Canonical variables must
     be a function of the DAG alone, not of source-variable sharing the
     DAG cannot see: an anti dependence (load x before store x) whose
     pair already carries a data edge is recorded as [Data] by
     [Dag.of_block] (first kind wins), so two stores can share a
     variable with a load textually while being structurally
     indistinguishable.  So the memory ops connected by the memory-kind
     edges the DAG recorded form groups (union-find), numbered by first
     canonical occurrence; a memory op with no recorded memory edge
     gets a private variable (unordered loads carry no constraint, so
     splitting them is invisible to Omega and maximizes dedup), which
     reproduces the original edge set exactly, since any relation to
     its old var-mates either never existed or survives as the data
     edge.

   The op fixes how the two codes read, so the key and the canonical
   block (see [materialize]) determine each other. *)
let pack dag opix perm placed =
  let n = Array.length perm in
  let load = Op.index Op.Load and store = Op.index Op.Store in
  let parent = Array.init n Fun.id in
  let find = find parent in
  for v = 0 to n - 1 do
    let ps = Dag.preds_arr dag v and ks = Dag.pred_kinds dag v in
    for i = 0 to Array.length ps - 1 do
      match ks.(i) with
      | Dag.Mem_flow | Dag.Mem_anti | Dag.Mem_output ->
        let ru = find ps.(i) and rv = find v in
        if ru <> rv then parent.(ru) <- rv
      | Dag.Data -> ()
    done
  done;
  (* [group.(r)]: for a root [r] of a group of two or more, [-1] until
     the group's first member is packed, then its number + 1; [0] for
     a private variable. *)
  let group = Array.make n 0 in
  for v = 0 to n - 1 do
    let r = find v in
    if r <> v then group.(r) <- -1
  done;
  let groups = ref 0 in
  let buf = Buffer.create ((3 * n) + 8) in
  for j = 0 to n - 1 do
    let v = perm.(j) in
    let op = opix.(v) in
    Buffer.add_char buf (Char.unsafe_chr op);
    (* The producers of [v]'s data operands, ascending: at most two. *)
    let lo = ref 0 and hi = ref 0 in
    let ps = Dag.preds_arr dag v and ks = Dag.pred_kinds dag v in
    for i = 0 to Array.length ps - 1 do
      if ks.(i) = Dag.Data then begin
        let c = placed.(ps.(i)) + 1 in
        if !lo = 0 then lo := c
        else if c < !lo then begin
          hi := !lo;
          lo := c
        end
        else hi := c
      end
    done;
    if op = load || op = store then begin
      let r = find v in
      if group.(r) < 0 then begin
        incr groups;
        group.(r) <- !groups
      end;
      add_varint buf group.(r);
      add_varint buf !lo
    end
    else begin
      add_varint buf !lo;
      add_varint buf !hi
    end
  done;
  Buffer.contents buf

let label dag =
  let blk = Dag.block dag in
  let n = Dag.length dag in
  let opix = Array.init n (fun i -> Op.index (Block.tuple_at blk i).Tuple.op) in
  let color = Array.map (fun o -> mix 0x9e37 o land max_int) opix in
  let sc = scratch n in
  refine dag sc color;
  let perm, placed = canonical_order dag sc opix color in
  let key = pack dag opix perm placed in
  ({ perm; key; hash = hash_string key } : labeling)

(* ------------------------------------------------------------------ *)
(* Materialization: the canonical block, read back from the key.       *)

let materialize (l : labeling) =
  let key = l.key in
  let pos = ref 0 in
  let byte () =
    let b = Char.code key.[!pos] in
    incr pos;
    b
  in
  let rec varint shift acc =
    let b = byte () in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else varint (shift + 7) acc
  in
  let tagged c k =
    let buf = Buffer.create 4 in
    Buffer.add_char buf c;
    Pipesched_prelude.Decimal.add_int buf k;
    Operand.Var (Buffer.contents buf)
  in
  let value c = if c = 0 then Operand.Imm 0 else Operand.Ref c in
  (* Explicit left-to-right loop: the codes are read in key order, and
     [List.init]'s evaluation order is unspecified. *)
  let acc = ref [] in
  for j = 0 to Array.length l.perm - 1 do
    let op = ops.(byte ()) in
    let a = varint 0 0 in
    let b = varint 0 0 in
    let id = j + 1 in
    (* Group [k]'s variable is [s<k>]; a private one is [w<pos>] for a
       store and [l<pos>] for a load. *)
    let var c =
      if c > 0 then tagged 's' (c - 1)
      else tagged (if op = Op.Store then 'w' else 'l') j
    in
    let tu =
      match op with
      | Op.Const -> Tuple.make ~id Op.Const (Operand.Imm 0) Operand.Null
      | Op.Load -> Tuple.make ~id Op.Load (var a) Operand.Null
      | Op.Store -> Tuple.make ~id Op.Store (var a) (value b)
      | op when Op.value_arity op = 1 ->
        Tuple.make ~id op (value a) Operand.Null
      | op -> Tuple.make ~id op (value a) (value b)
    in
    acc := tu :: !acc
  done;
  Block.of_tuples_exn (List.rev !acc)

let of_dag dag =
  let l = label dag in
  { block = materialize l; perm = l.perm; key = l.key; hash = l.hash }

let of_block blk = of_dag (Dag.of_block blk)

let apply (t : t) corder = Array.map (fun cpos -> t.perm.(cpos)) corder

let apply_labeling (l : labeling) corder =
  Array.map (fun cpos -> l.perm.(cpos)) corder
