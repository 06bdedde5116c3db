(* Tests for Pipesched_sched: List_sched and Baselines. *)

open Pipesched_ir
open Pipesched_machine
open Pipesched_sched
module Rng = Pipesched_prelude.Rng
open Helpers

let heuristics =
  [ ("max_distance", List_sched.Max_distance);
    ("latency_weighted", List_sched.Latency_weighted machine);
    ("source_order", List_sched.Source_order);
    ("random_order", List_sched.Random_order 17) ]

(* ------------------------------------------------------------------ *)
(* List scheduler                                                      *)

let list_sched_legal =
  qtest ~count:300 "every heuristic yields a legal order"
    (block_gen ~max_size:16 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      List.for_all
        (fun (_, h) -> Dag.is_legal_order dag (List_sched.schedule h dag))
        heuristics)

let test_source_order_is_identity () =
  let rng = Rng.create 5 in
  let blk = random_block rng 12 in
  let dag = Dag.of_block blk in
  check (Alcotest.array int_t) "identity"
    (Array.init 12 (fun i -> i))
    (List_sched.schedule List_sched.Source_order dag)

let test_max_distance_spreads () =
  (* Load a; Add(load); Load b; Add(load b): max-distance interleaves the
     loads before the adds, hiding latency. *)
  let blk =
    Block.of_tuples_exn
      [ Tuple.make ~id:1 Op.Load (Operand.Var "a") Operand.Null;
        Tuple.make ~id:2 Op.Add (Operand.Ref 1) (Operand.Imm 1);
        Tuple.make ~id:3 Op.Load (Operand.Var "b") Operand.Null;
        Tuple.make ~id:4 Op.Add (Operand.Ref 3) (Operand.Imm 1);
        Tuple.make ~id:5 Op.Store (Operand.Var "x") (Operand.Ref 2);
        Tuple.make ~id:6 Op.Store (Operand.Var "y") (Operand.Ref 4) ]
  in
  let dag = Dag.of_block blk in
  let order = List_sched.schedule List_sched.Max_distance dag in
  let r = Omega.evaluate machine dag ~order in
  let src = Omega.evaluate machine dag ~order:(Omega.identity_order 6) in
  check bool_t "beats source order" true (r.Omega.nops <= src.Omega.nops);
  check int_t "hides the load latency entirely" 0 r.Omega.nops

let test_priorities_machine_independent () =
  (* §4.1: the list scheduler does not examine the pipeline tables. *)
  let rng = Rng.create 11 in
  let blk = random_block rng 14 in
  let dag = Dag.of_block blk in
  let p = List_sched.priorities List_sched.Max_distance dag in
  check (Alcotest.array int_t) "no machine parameter involved" p
    (List_sched.priorities List_sched.Max_distance dag)

let test_random_order_deterministic () =
  let rng = Rng.create 12 in
  let blk = random_block rng 10 in
  let dag = Dag.of_block blk in
  check (Alcotest.array int_t) "same seed, same order"
    (List_sched.schedule (List_sched.Random_order 3) dag)
    (List_sched.schedule (List_sched.Random_order 3) dag)

let order_by_priority_sorted =
  qtest ~count:200 "order_by_priority is sorted by descending priority"
    (block_gen ~max_size:14 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let prio = List_sched.priorities List_sched.Max_distance dag in
      let idx = List_sched.rank_order prio in
      let ok = ref true in
      for k = 1 to Array.length idx - 1 do
        if prio.(idx.(k - 1)) < prio.(idx.(k)) then ok := false
      done;
      !ok)

(* The model list scheduler: priorities from [Dag.heights] and one
   descendant set per position, the candidate order from a
   closure-compared sort, and a scan of every position at each step of
   the seed. *)
let model_priorities heuristic dag =
  let n = Dag.length dag in
  let by_height edge_weight =
    let h = Dag.heights dag ~edge_weight in
    Array.init n (fun i ->
        (h.(i) * (n + 1))
        + Pipesched_prelude.Bitset.cardinal (Dag.descendants dag i))
  in
  match heuristic with
  | List_sched.Max_distance -> by_height (fun ~src:_ ~dst:_ -> 1)
  | List_sched.Latency_weighted m ->
    let blk = Dag.block dag in
    by_height (fun ~src ~dst:_ ->
        Machine.latency m (Block.tuple_at blk src).Tuple.op)
  | List_sched.Source_order | List_sched.Random_order _ ->
    List_sched.priorities heuristic dag

let model_order prio =
  let idx = Array.init (Array.length prio) (fun i -> i) in
  Array.sort
    (fun a b ->
      if prio.(a) <> prio.(b) then compare prio.(b) prio.(a) else compare a b)
    idx;
  idx

let model_schedule prio dag =
  let n = Dag.length dag in
  let unsched_preds =
    Array.init n (fun i -> Array.length (Dag.preds_arr dag i))
  in
  let emitted = Array.make n false in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    (* The greatest priority; ties to the smallest position. *)
    let best = ref (-1) in
    for i = n - 1 downto 0 do
      if (not emitted.(i)) && unsched_preds.(i) = 0
         && (!best = -1 || prio.(i) >= prio.(!best))
      then best := i
    done;
    order.(k) <- !best;
    emitted.(!best) <- true;
    Array.iter
      (fun s -> unsched_preds.(s) <- unsched_preds.(s) - 1)
      (Dag.succs_arr dag !best)
  done;
  order

(* Up to 150 instructions, so ready sets and descendant rows span one,
   two and three words. *)
let rank_order_matches_model =
  qtest ~count:300 "rank order and walk match the sort-and-scan model"
    QCheck2.Gen.(
      map3
        (fun seed n rseed ->
          (random_block_with (Rng.create seed) n (1 + (seed mod 16)), rseed))
        (int_bound 1_000_000) (int_range 1 150) (int_bound 1_000_000))
    (fun (blk, rseed) ->
      Printf.sprintf "Random_order %d on\n%s" rseed (block_print blk))
    (fun (blk, rseed) ->
      let dag = Dag.of_block blk in
      List.for_all
        (fun h ->
          let prio = List_sched.priorities h dag in
          let order = List_sched.rank_order prio in
          let seed = model_schedule prio dag in
          prio = model_priorities h dag
          && order = model_order prio
          && List_sched.walk dag order = seed
          && List_sched.schedule h dag = seed)
        [ List_sched.Max_distance;
          List_sched.Latency_weighted machine;
          List_sched.Latency_weighted Machine.Presets.deep;
          List_sched.Source_order;
          List_sched.Random_order rseed ])

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)

let test_factorial () =
  check bool_t "8!" true (Baselines.factorial_float 8 = 40320.0);
  check bool_t "0!" true (Baselines.factorial_float 0 = 1.0);
  check bool_t "20! approx" true
    (abs_float (Baselines.factorial_float 20 -. 2.43e18) < 0.01e18)

let test_count_legal_chain_and_free () =
  (* A pure chain has exactly one legal order. *)
  let chain =
    Block.of_tuples_exn
      [ Tuple.make ~id:1 Op.Const (Operand.Imm 1) Operand.Null;
        Tuple.make ~id:2 Op.Neg (Operand.Ref 1) Operand.Null;
        Tuple.make ~id:3 Op.Neg (Operand.Ref 2) Operand.Null ]
  in
  check bool_t "chain" true
    (Baselines.count_legal_schedules (Dag.of_block chain) = `Exact 1);
  (* n independent tuples have n! legal orders. *)
  let free =
    Block.of_tuples_exn
      (List.init 5 (fun i ->
           Tuple.make ~id:(i + 1) Op.Const (Operand.Imm i) Operand.Null))
  in
  check bool_t "independent" true
    (Baselines.count_legal_schedules (Dag.of_block free) = `Exact 120)

let test_count_cutoff () =
  let free =
    Block.of_tuples_exn
      (List.init 8 (fun i ->
           Tuple.make ~id:(i + 1) Op.Const (Operand.Imm i) Operand.Null))
  in
  check bool_t "cutoff" true
    (Baselines.count_legal_schedules ~cutoff:100 (Dag.of_block free)
     = `At_least 100)

let count_matches_enumeration =
  qtest ~count:100 "legal-schedule count matches explicit enumeration"
    (block_gen ~max_size:7 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      Baselines.count_legal_schedules dag
      = `Exact (List.length (all_legal_orders dag)))

let legal_only_search_is_optimal =
  qtest ~count:100 "legal-only search finds the minimum over all orders"
    (block_gen ~max_size:7 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let r = Baselines.legal_only_search machine dag in
      let brute =
        List.fold_left
          (fun acc order ->
            min acc (Omega.evaluate machine dag ~order).Omega.nops)
          max_int (all_legal_orders dag)
      in
      r.Baselines.complete
      && r.Baselines.best.Omega.nops = brute
      && r.Baselines.schedules_tried
         = List.length (all_legal_orders dag))

let greedy_and_gross_legal =
  qtest ~count:300 "greedy and gross produce legal orders"
    (block_gen ~max_size:16 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      Dag.is_legal_order dag (Baselines.greedy machine dag)
      && Dag.is_legal_order dag (Baselines.gross machine dag))

let heuristics_not_worse_than_chaos =
  qtest ~count:150 "greedy never loses to the worst legal order"
    (block_gen ~max_size:7 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let worst =
        List.fold_left
          (fun acc order ->
            max acc (Omega.evaluate machine dag ~order).Omega.nops)
          0 (all_legal_orders dag)
      in
      let g =
        Omega.evaluate machine dag ~order:(Baselines.greedy machine dag)
      in
      g.Omega.nops <= worst)

(* ------------------------------------------------------------------ *)
(* Stochastic baseline                                                 *)

let anneal_legal_and_bounded =
  qtest ~count:150 "annealer results are legal and never worse than seed"
    (block_gen ~max_size:14 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let o = Stochastic.anneal ~budget:200 machine dag in
      Dag.is_legal_order dag o.Stochastic.best.Omega.order
      && o.Stochastic.best.Omega.nops <= o.Stochastic.initial.Omega.nops
      && o.Stochastic.evaluations <= 200)

let anneal_deterministic_per_seed =
  qtest ~count:80 "annealer is deterministic per seed"
    (block_gen ~max_size:12 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let a = Stochastic.anneal ~seed:9 ~budget:150 machine dag in
      let b = Stochastic.anneal ~seed:9 ~budget:150 machine dag in
      a.Stochastic.best.Omega.order = b.Stochastic.best.Omega.order)

let anneal_reaches_optimum_on_tiny_blocks =
  qtest ~count:60 "a generous budget finds the optimum on tiny blocks"
    (block_gen ~min_size:2 ~max_size:5 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let brute =
        List.fold_left
          (fun acc order ->
            min acc (Omega.evaluate machine dag ~order).Omega.nops)
          max_int (all_legal_orders dag)
      in
      let o = Stochastic.anneal ~budget:3_000 machine dag in
      o.Stochastic.best.Omega.nops = brute)

let test_anneal_single_instruction () =
  let blk =
    Block.of_tuples_exn
      [ Tuple.make ~id:1 Op.Const (Operand.Imm 1) Operand.Null ]
  in
  let o = Stochastic.anneal machine (Dag.of_block blk) in
  check int_t "one evaluation" 1 o.Stochastic.evaluations

let () =
  Alcotest.run "sched"
    [ ( "list_sched",
        [ list_sched_legal;
          Alcotest.test_case "source order" `Quick
            test_source_order_is_identity;
          Alcotest.test_case "max distance hides latency" `Quick
            test_max_distance_spreads;
          Alcotest.test_case "machine independence" `Quick
            test_priorities_machine_independent;
          Alcotest.test_case "random determinism" `Quick
            test_random_order_deterministic;
          order_by_priority_sorted;
          rank_order_matches_model ] );
      ( "baselines",
        [ Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "count: chain and independent" `Quick
            test_count_legal_chain_and_free;
          Alcotest.test_case "count: cutoff" `Quick test_count_cutoff;
          count_matches_enumeration;
          legal_only_search_is_optimal;
          greedy_and_gross_legal;
          heuristics_not_worse_than_chaos ] );
      ( "stochastic",
        [ anneal_legal_and_bounded;
          anneal_deterministic_per_seed;
          anneal_reaches_optimum_on_tiny_blocks;
          Alcotest.test_case "single instruction" `Quick
            test_anneal_single_instruction ] ) ]
