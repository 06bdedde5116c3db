(* Tests for Pipesched_parallel.Pool and the determinism contracts that
   rest on it: the parallel study driver (Study.run is record-for-record
   identical at any job count, modulo wall-clock time) and the search run
   on concurrent domains. *)

open Pipesched_ir
module Pool = Pipesched_parallel.Pool
module Rng = Pipesched_prelude.Rng
module Study = Pipesched_harness.Study
open Helpers

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)

let test_empty () =
  check bool_t "empty list" true (Pool.parallel_map ~jobs:4 succ [] = [])

let test_singleton () =
  check bool_t "one item" true (Pool.parallel_map ~jobs:4 succ [ 41 ] = [ 42 ])

let test_order_preserved () =
  let xs = List.init 1000 (fun i -> i) in
  List.iter
    (fun jobs ->
      check bool_t
        (Printf.sprintf "order at jobs=%d" jobs)
        true
        (Pool.parallel_map ~jobs (fun x -> x * x) xs
         = List.map (fun x -> x * x) xs))
    [ 1; 2; 3; 8 ]

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      match
        Pool.parallel_map ~jobs
          (fun x -> if x = 37 then raise (Boom x) else x)
          (List.init 100 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 37 -> ())
    [ 1; 4 ]

let test_nested_no_deadlock () =
  (* A worker calling parallel_map again must fall back to the serial
     path rather than spawn (or wait on) further domains. *)
  let inner x = Pool.parallel_map ~jobs:4 succ [ x; x + 1 ] in
  let got = Pool.parallel_map ~jobs:4 inner [ 10; 20; 30 ] in
  check bool_t "nested result" true
    (got = [ [ 11; 12 ]; [ 21; 22 ]; [ 31; 32 ] ])

let test_resolve_jobs () =
  check bool_t "explicit wins" true (Pool.resolve_jobs (Some 3) = 3);
  check bool_t "floor of 1" true (Pool.resolve_jobs (Some 0) >= 1);
  check bool_t "default positive" true (Pool.resolve_jobs None >= 1)

(* ------------------------------------------------------------------ *)
(* Determinism of the parallel study (the acceptance criterion)        *)

let strip r = { r with Study.time_s = 0.0 }
let stripped results = List.map strip (Study.records results)

let test_study_jobs_1_vs_4 () =
  let a = stripped (Study.run ~jobs:1 ~seed:1990 ~count:40 machine) in
  let b = stripped (Study.run ~jobs:4 ~seed:1990 ~count:40 machine) in
  check int_t "record count" 40 (List.length a);
  check bool_t "jobs=1 equals jobs=4" true (a = b)

let study_jobs_invariance =
  qtest ~count:8 "study records are independent of the job count"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 8))
    (fun (seed, jobs) -> Printf.sprintf "seed=%d jobs=%d" seed jobs)
    (fun (seed, jobs) ->
      let serial = stripped (Study.run ~jobs:1 ~seed ~count:12 machine) in
      let par = stripped (Study.run ~jobs ~seed ~count:12 machine) in
      serial = par)

(* ------------------------------------------------------------------ *)
(* One serial search, run on any domain                                *)

module Optimal = Pipesched_core.Optimal
module Generator = Pipesched_synth.Generator

(* The study's pool and the daemon's workers run searches on separate
   domains at once, so a search may share no mutable state with searches
   on other domains: concurrent domains must reproduce the calling
   domain's outcome byte for byte.  lambda counts Omega calls, not time,
   so this holds for curtailed searches too; the small lambda makes both
   kinds occur. *)
let domain_options = { Optimal.default_options with Optimal.lambda = 500 }

(* Every entry point of the search on one (machine, block). *)
let all_entry_points m dag =
  let options = domain_options in
  ( Optimal.schedule ~options m dag,
    Optimal.schedule_multi ~options m dag,
    Optimal.schedule_bounded ~options ~registers:3 m dag )

let team_reproduces_serial =
  qtest ~count:40 "team workers reproduce the serial search"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 9))
    (fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let m = Generator.random_machine rng in
      let dag = Dag.of_block (random_block rng n) in
      let serial = all_entry_points m dag in
      List.init 3 (fun _ -> Domain.spawn (fun () -> all_entry_points m dag))
      |> List.map Domain.join
      |> List.for_all (fun got -> got = serial))

(* ------------------------------------------------------------------ *)
(* Flattened adjacency agrees with the list API                        *)

let adjacency_agreement =
  qtest ~count:300 "preds_arr/succs_arr match preds/succs"
    (block_gen ~max_size:16 ())
    block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let n = Dag.length dag in
      let ok = ref true in
      for i = 0 to n - 1 do
        let pa = Array.to_list (Dag.preds_arr dag i) in
        let sa = Array.to_list (Dag.succs_arr dag i) in
        ok :=
          !ok
          && List.sort compare pa = List.sort compare (Dag.preds dag i)
          && List.sort compare sa = List.sort compare (Dag.succs dag i)
          (* arrays are sorted increasing *)
          && pa = List.sort compare pa
          && sa = List.sort compare sa
      done;
      !ok)

(* Progress callbacks: cumulative, reach exactly [n] on both the serial
   and the parallel path, and a raising callback never corrupts the
   map.  At jobs 4 the default chunk is 2000 / 128 = 15 and
   2000 = 133 * 15 + 5, so the parallel count advances by whole chunks
   and then by one short last chunk. *)
let test_progress_callback () =
  List.iter
    (fun jobs ->
      let n = 2000 in
      let counts = ref [] in
      let mu = Mutex.create () in
      let note c =
        Mutex.lock mu;
        counts := c :: !counts;
        Mutex.unlock mu
      in
      let ys =
        Pool.parallel_map ~jobs ~progress:note succ
          (List.init n Fun.id)
      in
      check bool_t
        (Printf.sprintf "map unchanged by progress (jobs %d)" jobs)
        true
        (ys = List.init n (fun i -> i + 1));
      let cs = List.rev !counts in
      check bool_t
        (Printf.sprintf "final cumulative count is n (jobs %d)" jobs)
        true
        (List.fold_left max 0 cs = n);
      check bool_t
        (Printf.sprintf "counts within range (jobs %d)" jobs)
        true
        (List.for_all (fun c -> c > 0 && c <= n) cs);
      (* Serial delivery is strictly increasing (parallel may race). *)
      if jobs = 1 then
        check bool_t "serial counts are 1..n" true
          (cs = List.init n (fun i -> i + 1)))
    [ 1; 4 ];
  (* A raising callback is contained. *)
  let ys =
    Pool.parallel_map ~jobs:4 ~progress:(fun _ -> failwith "boom") succ
      (List.init 50 Fun.id)
  in
  check bool_t "raising progress contained" true
    (ys = List.init 50 (fun i -> i + 1))

let test_progress_result () =
  let hi = ref 0 in
  let mu = Mutex.create () in
  let note c =
    Mutex.lock mu;
    if c > !hi then hi := c;
    Mutex.unlock mu
  in
  let rs =
    Pool.parallel_map_result ~jobs:4 ~progress:note
      (fun i -> if i = 13 then failwith "unlucky" else i)
      (List.init 100 Fun.id)
  in
  check int_t "faulted items still count as completed" 100 !hi;
  check int_t "one contained failure" 1
    (List.length (List.filter Result.is_error rs))

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested no deadlock" `Quick
            test_nested_no_deadlock;
          Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
          Alcotest.test_case "progress callback" `Quick
            test_progress_callback;
          Alcotest.test_case "progress with contained faults" `Quick
            test_progress_result ] );
      ( "determinism",
        [ Alcotest.test_case "jobs 1 vs 4" `Quick test_study_jobs_1_vs_4;
          study_jobs_invariance ] );
      ("search parity", [ team_reproduces_serial ]);
      ( "adjacency", [ adjacency_agreement ] ) ]
