open Pipesched_ir
open Pipesched_machine
module Rng = Pipesched_prelude.Rng
module Bitset = Pipesched_prelude.Bitset

type heuristic =
  | Max_distance
  | Latency_weighted of Machine.t
  | Source_order
  | Random_order of int

(* The word width of the private bit rows below: a literal, so that
   dividing by it compiles to a multiply (the dev profile builds with
   -opaque, which hides [Bitset.bits_per_word]'s value). *)
let bits = 63

(* Primary key: height (the heaviest dependence chain below, each edge
   [u -> v] weighing [weight u]); secondary: the number of transitive
   descendants.  Packed into one int.  Both come from one backward pass,
   since block order is a topological order: each node's descendant set
   is a row of [words] bit words in one flat array, the union of its
   successors' rows and the successors themselves. *)
let by_height dag weight =
  let n = Dag.length dag in
  let words = (n + bits - 1) / bits in
  let desc = Array.make (n * words) 0 in
  let height = Array.make n 0 in
  let prio = Array.make n 0 in
  for u = n - 1 downto 0 do
    let succs = Dag.succs_arr dag u in
    let row = u * words in
    let w = weight u in
    for i = 0 to Array.length succs - 1 do
      let v = succs.(i) in
      if w + height.(v) > height.(u) then height.(u) <- w + height.(v);
      let cell = row + (v / bits) in
      desc.(cell) <- desc.(cell) lor (1 lsl (v mod bits));
      let vrow = v * words in
      for j = 0 to words - 1 do
        desc.(row + j) <- desc.(row + j) lor desc.(vrow + j)
      done
    done;
    let count = ref 0 in
    for j = 0 to words - 1 do
      count := !count + Bitset.popcount desc.(row + j)
    done;
    prio.(u) <- (height.(u) * (n + 1)) + !count
  done;
  prio

let priorities heuristic dag =
  let n = Dag.length dag in
  match heuristic with
  | Max_distance -> by_height dag (fun _ -> 1)
  | Latency_weighted machine ->
    let blk = Dag.block dag in
    by_height dag (fun u ->
        Machine.latency machine (Block.tuple_at blk u).Tuple.op)
  | Source_order -> Array.init n (fun i -> n - i)
  | Random_order seed ->
    let rng = Rng.create seed in
    Array.init n (fun _ -> Rng.bits rng)

(* Insertion sort of the positions in block order: each one goes after
   every position already placed whose priority is at least its own, so
   ties keep block order.  The order is total, so this is the one
   permutation any correct sort by (descending priority, position)
   returns.  Allocation-free but for the result.  [prio] is annotated so
   that the comparison compiles inline, not to a polymorphic C call. *)
let rank_order (prio : int array) =
  let n = Array.length prio in
  let order = Array.make n 0 in
  for pos = 0 to n - 1 do
    let p = prio.(pos) in
    let j = ref pos in
    while !j > 0 && prio.(order.(!j - 1)) < p do
      order.(!j) <- order.(!j - 1);
      decr j
    done;
    order.(!j) <- pos
  done;
  order

let add words r =
  words.(r / bits) <- words.(r / bits) lor (1 lsl (r mod bits))

(* The ready set holds ranks, one bit each, so its lowest member is the
   ready position of greatest priority, the smallest on ties.  A
   successor can outrank the position that freed it (under
   [Random_order], say), so each step searches from word 0.  Every edge
   runs forward in block order (see Dag), so some position is always
   ready until all are emitted. *)
let walk dag order =
  let n = Dag.length dag in
  let words = (n + bits - 1) / bits in
  let rank = Array.make n 0 in
  for r = 0 to n - 1 do
    rank.(order.(r)) <- r
  done;
  let ready = Array.make words 0 in
  let pending = Array.make n 0 in
  for pos = 0 to n - 1 do
    let k = Array.length (Dag.preds_arr dag pos) in
    pending.(pos) <- k;
    if k = 0 then add ready rank.(pos)
  done;
  let sched = Array.make n 0 in
  for k = 0 to n - 1 do
    let w = ref 0 in
    while ready.(!w) = 0 do
      incr w
    done;
    let x = ready.(!w) in
    let b = x land (-x) in
    ready.(!w) <- x lxor b;
    let pos = order.((!w * bits) + Bitset.ntz b) in
    sched.(k) <- pos;
    let succs = Dag.succs_arr dag pos in
    for i = 0 to Array.length succs - 1 do
      let s = succs.(i) in
      pending.(s) <- pending.(s) - 1;
      if pending.(s) = 0 then add ready rank.(s)
    done
  done;
  sched

let schedule heuristic dag = walk dag (rank_order (priorities heuristic dag))
