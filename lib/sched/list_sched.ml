open Pipesched_ir
open Pipesched_machine
module Rng = Pipesched_prelude.Rng
module Bitset = Pipesched_prelude.Bitset

type heuristic =
  | Max_distance
  | Latency_weighted of Machine.t
  | Source_order
  | Random_order of int

(* Transitive descendant counts: one backward pass of bitset unions,
   since block order is a topological order. *)
let descendant_counts dag =
  let n = Dag.length dag in
  let desc = Array.init n (fun _ -> Bitset.create n) in
  for u = n - 1 downto 0 do
    Array.iter
      (fun v ->
        Bitset.add desc.(u) v;
        Bitset.union_into ~into:desc.(u) desc.(v))
      (Dag.succs_arr dag u)
  done;
  Array.map Bitset.cardinal desc

let priorities heuristic dag =
  let n = Dag.length dag in
  (* Primary key: height (longest dependence chain below, per edge
     weight); secondary: number of transitive descendants.  Packed into
     one int. *)
  let by_height edge_weight =
    let h = Dag.heights dag ~edge_weight in
    let desc = descendant_counts dag in
    Array.init n (fun i -> (h.(i) * (n + 1)) + desc.(i))
  in
  match heuristic with
  | Max_distance -> by_height (fun ~src:_ ~dst:_ -> 1)
  | Latency_weighted machine ->
    let blk = Dag.block dag in
    let lat pos = Machine.latency machine (Block.tuple_at blk pos).Tuple.op in
    by_height (fun ~src ~dst:_ -> lat src)
  | Source_order -> Array.init n (fun i -> n - i)
  | Random_order seed ->
    let rng = Rng.create seed in
    Array.init n (fun _ -> Rng.bits rng)

let schedule_by_priorities prio dag =
  let n = Dag.length dag in
  let unsched_preds =
    Array.init n (fun i -> Array.length (Dag.preds_arr dag i))
  in
  let emitted = Array.make n false in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    (* Pick the ready position with the greatest priority; ties go to the
       smallest original position. *)
    let best = ref (-1) in
    for i = n - 1 downto 0 do
      if (not emitted.(i)) && unsched_preds.(i) = 0
         && (!best = -1 || prio.(i) >= prio.(!best))
      then best := i
    done;
    if !best = -1 then begin
      (* Unemitted instructions remain but none is ready: every one of
         them waits on another unemitted one, i.e. the dependence graph
         has a cycle.  Walk unemitted-predecessor links until a node
         repeats and report that cycle (by original position and tuple
         id) so the offending input is identifiable. *)
      let blk = Dag.block dag in
      let name i = Printf.sprintf "%d(t%d)" i (Block.tuple_at blk i).Tuple.id in
      let next i =
        List.find_opt (fun u -> not emitted.(u)) (Dag.preds dag i)
      in
      let start =
        let s = ref (-1) in
        for i = n - 1 downto 0 do
          if (not emitted.(i)) && next i <> None then s := i
        done;
        !s
      in
      let witness =
        if start < 0 then "unavailable"
        else begin
          let rec chase seen i =
            if List.mem i seen then
              (* Drop the walk-in prefix: the cycle is the path from the
                 first occurrence of [i] back to [i]. *)
              let rec from_first = function
                | [] -> []
                | j :: rest -> if j = i then j :: rest else from_first rest
              in
              from_first (List.rev (i :: seen))
            else
              match next i with
              | Some u -> chase (i :: seen) u
              | None -> List.rev (i :: seen)
          in
          String.concat " -> " (List.map name (chase [] start))
        end
      in
      invalid_arg
        (Printf.sprintf
           "List_sched.schedule: cyclic DAG — %d of %d instructions \
            scheduled, no ready candidate; cycle witness: %s"
           k n witness)
    end;
    order.(k) <- !best;
    emitted.(!best) <- true;
    let succs = Dag.succs_arr dag !best in
    for i = 0 to Array.length succs - 1 do
      unsched_preds.(succs.(i)) <- unsched_preds.(succs.(i)) - 1
    done
  done;
  order

let schedule heuristic dag =
  schedule_by_priorities (priorities heuristic dag) dag

let order_of_priorities prio =
  let n = Array.length prio in
  let idx = Array.init n (fun i -> i) in
  (* Stable sort by descending priority; equal priorities keep block order. *)
  let cmp a b =
    if prio.(a) <> prio.(b) then compare prio.(b) prio.(a) else compare a b
  in
  Array.sort cmp idx;
  idx

let order_by_priority heuristic dag =
  order_of_priorities (priorities heuristic dag)
