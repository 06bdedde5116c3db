(* Tests for Pipesched_verify.Certify, Machine.validate and the
   fault-contained study driver.  The certifier is exercised in both
   directions: every real scheduler output must certify clean, and each
   class of deliberately corrupted schedule must be rejected with a
   structured violation (never an escaping exception). *)

open Pipesched_ir
open Pipesched_machine
open Pipesched_sched
open Pipesched_core
module Rng = Pipesched_prelude.Rng
module Generator = Pipesched_synth.Generator
module Certify = Pipesched_verify.Certify
module Study = Pipesched_harness.Study
open Helpers

(* ------------------------------------------------------------------ *)
(* Every scheduler's output certifies clean                            *)

let certify_clean label m blk (r : Omega.result) =
  let vs = Certify.check m blk r in
  if not (Certify.certified vs) then
    Alcotest.failf "%s failed certification on %s:\n%s" label
      (Block.to_string blk) (Certify.explain_all vs)

let all_schedulers_certify m blk =
  let dag = Dag.of_block blk in
  let options = { Optimal.default_options with Optimal.lambda = 5_000 } in
  let opt = Optimal.schedule ~options m dag in
  certify_clean "optimal best" m blk opt.Optimal.best;
  certify_clean "optimal initial" m blk opt.Optimal.initial;
  let multi, _ = Optimal.schedule_multi ~options m dag in
  certify_clean "optimal-multi" m blk multi.Optimal.best;
  (match Optimal.schedule_bounded ~options ~registers:16 m dag with
   | Ok o -> certify_clean "bounded" m blk o.Optimal.best
   | Error () -> ());
  let win = Windowed.schedule ~options ~window:4 m dag in
  certify_clean "windowed" m blk win.Windowed.best;
  let eval label order =
    certify_clean label m blk (Omega.evaluate m dag ~order)
  in
  eval "list" (List_sched.schedule List_sched.Max_distance dag);
  eval "greedy" (Baselines.greedy m dag);
  eval "gross" (Baselines.gross m dag);
  eval "source" (Omega.identity_order (Block.length blk));
  (* Orderings that hold unconditionally (both searches seed from the
     list schedule). *)
  let list_nops =
    (Omega.evaluate m dag
       ~order:(List_sched.schedule List_sched.Max_distance dag))
      .Omega.nops
  in
  check bool_t "optimal <= list" true
    (Certify.certified
       (Certify.check_ordering
          [ ("optimal", opt.Optimal.best.Omega.nops); ("list", list_nops) ]));
  check bool_t "windowed <= list" true
    (Certify.certified
       (Certify.check_ordering
          [ ("windowed", win.Windowed.best.Omega.nops); ("list", list_nops) ]));
  (* Semantic equivalence of the reordered block. *)
  let sem = Certify.check_semantics blk ~order:opt.Optimal.best.Omega.order in
  if sem <> [] then
    Alcotest.failf "semantics violated on %s:\n%s" (Block.to_string blk)
      (Certify.explain_all sem);
  true

let schedulers_clean_presets =
  qtest ~count:120 "all schedulers certify clean on the presets"
    QCheck2.Gen.(
      pair (block_gen ~max_size:12 ()) (int_bound 2))
    (fun (blk, mi) -> Printf.sprintf "machine %d, %s" mi (Block.to_string blk))
    (fun (blk, mi) ->
      let m =
        match mi with
        | 0 -> Machine.Presets.simulation
        | 1 -> Machine.Presets.demo
        | _ -> Machine.Presets.throttled
      in
      all_schedulers_certify m blk)

let schedulers_clean_random_machines =
  qtest ~count:120 "all schedulers certify clean on random machines"
    QCheck2.Gen.(pair (int_bound 1_000_000) (block_gen ~max_size:10 ()))
    (fun (seed, blk) ->
      Printf.sprintf "machine seed %d, %s" seed (Block.to_string blk))
    (fun (seed, blk) ->
      let m = Generator.random_machine (Rng.create seed) in
      all_schedulers_certify m blk)

(* ------------------------------------------------------------------ *)
(* Mutation rejection: each corruption class yields its violation      *)

(* A fixture with a real dependence and a real pipeline: t1 = Load x0;
   t2 = Neg t1; t3 = Mul t1, t2.  On the simulation machine the Load
   (latency 2) and the Mul (multiplier) both constrain the schedule. *)
let fixture () =
  let blk =
    Block.of_tuples_exn
      [ Tuple.make ~id:1 Op.Load (Operand.Var "x0") Operand.Null;
        Tuple.make ~id:2 Op.Neg (Operand.Ref 1) Operand.Null;
        Tuple.make ~id:3 Op.Mul (Operand.Ref 1) (Operand.Ref 2) ]
  in
  let dag = Dag.of_block blk in
  (blk, dag, Omega.evaluate machine dag ~order:(Omega.identity_order 3))

let has p vs = List.exists p vs

let test_mutation_swapped_dependents () =
  let blk, _dag, r = fixture () in
  (* Swap producer (slot 0, the Load) and consumer (slot 1, the Neg). *)
  let order = Array.copy r.Omega.order in
  let tmp = order.(0) in
  order.(0) <- order.(1);
  order.(1) <- tmp;
  let vs = Certify.check machine blk { r with Omega.order } in
  check bool_t "rejected" false (Certify.certified vs);
  check bool_t "as Dependence_order" true
    (has (function Certify.Dependence_order _ -> true | _ -> false) vs)

let test_mutation_underreported_nops () =
  let blk, _dag, r = fixture () in
  let vs = Certify.check machine blk { r with Omega.nops = r.Omega.nops - 1 } in
  check bool_t "rejected" false (Certify.certified vs);
  check bool_t "as Nop_mismatch" true
    (has (function Certify.Nop_mismatch _ -> true | _ -> false) vs)

let test_mutation_illegal_pipe () =
  let blk, _dag, r = fixture () in
  (* Slot 0 is the Load; the multiplier (pipe 1) is not a candidate. *)
  let pipes = Array.copy r.Omega.pipes in
  pipes.(0) <- 1;
  let vs = Certify.check machine blk { r with Omega.pipes } in
  check bool_t "rejected" false (Certify.certified vs);
  check bool_t "as Illegal_pipe" true
    (has (function Certify.Illegal_pipe _ -> true | _ -> false) vs)

let test_mutation_compressed_issue () =
  (* Claim every instruction issues back-to-back: the Load->Neg latency
     stall disappears, which must surface as a dependence-stall (and the
     claimed etas no longer match the replay). *)
  let blk, _dag, r = fixture () in
  let n = Array.length r.Omega.order in
  let issue = Array.init n (fun i -> i) in
  let eta = Array.make n 0 in
  let vs =
    Certify.check machine blk
      { r with Omega.issue = issue; Omega.eta = eta; Omega.nops = 0 }
  in
  check bool_t "rejected" false (Certify.certified vs);
  check bool_t "as Dependence_stall" true
    (has (function Certify.Dependence_stall _ -> true | _ -> false) vs)

let test_mutation_never_raises () =
  (* Garbage in every field: the certifier must return violations, not
     raise. *)
  let blk, _dag, r = fixture () in
  let garbage =
    [ { r with Omega.order = [| 7; -1; 0 |] };
      { r with Omega.order = [| 0; 0; 0 |] };
      { r with Omega.eta = [||] };
      { r with Omega.pipes = [| 99; -3; 1 |] };
      { r with Omega.issue = [| 5; 1; 0 |] } ]
  in
  List.iter
    (fun bad ->
      let vs = Certify.check machine blk bad in
      check bool_t "some violation" false (Certify.certified vs))
    garbage

let test_ordering_check () =
  check bool_t "violated pair found" false
    (Certify.certified
       (Certify.check_ordering [ ("optimal", 5); ("list", 3) ]));
  check bool_t "ordered pair clean" true
    (Certify.certified
       (Certify.check_ordering
          [ ("optimal", 2); ("windowed", 2); ("list", 4) ]))

let test_semantics_detects_illegal_reorder () =
  (* Permuting dependents violates block validity; the certifier reports
     it (as a crash-contained violation) instead of raising. *)
  let blk, _dag, _r = fixture () in
  let vs = Certify.check_semantics blk ~order:[| 1; 0; 2 |] in
  check bool_t "rejected" false (Certify.certified vs)

(* The semantic check as it ran before it was moved onto prepared
   arrays: the block and its reordering, each run by the reference
   interpreter.  The model for the check below. *)
let semantics_model blk ~order =
  try
    let scheduled = Block.permute blk order in
    List.concat_map
      (fun seed ->
        let env v = Hashtbl.hash (seed, v) mod 1000 in
        let reference = Pipesched_frontend.Interp.run_block blk ~env in
        let result = Pipesched_frontend.Interp.run_block scheduled ~env in
        List.filter_map
          (fun (var, x) ->
            match List.assoc_opt var result with
            | Some y when y = x -> None
            | Some y ->
              Some (Certify.Semantics_diverged { var; reference = x; scheduled = y })
            | None ->
              Some
                (Certify.Semantics_diverged
                   { var; reference = x; scheduled = env var }))
          reference)
      [ 1; 2; 3 ]
  with exn -> [ Certify.Check_crashed { what = Printexc.to_string exn } ]

(* Orders of every kind: legal ones, ones that keep only the value
   references in order (memory operations reorder, so values diverge),
   permutations that break a reference, repeats, out of range and short
   ones; and blocks with tuples the interpreter rejects or whose unused
   operand holds a reference. *)
let semantics_case_gen =
  QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 14) (int_bound 10))

let semantics_matches_model =
  qtest ~count:1000 "semantic check matches the two-block check"
    semantics_case_gen
    (fun (seed, n, kind) -> Printf.sprintf "seed=%d n=%d kind=%d" seed n kind)
    (fun (seed, n, kind) ->
      let rng = Rng.create seed in
      let source = random_block_with rng n (1 + Rng.int rng 3) in
      let blk =
        let tus = Array.to_list (Block.tuples source) in
        let last = ref None in
        let edit (tu : Tuple.t) =
          let tu =
            match (kind, tu.Tuple.op, !last) with
            (* A shape the interpreter rejects. *)
            | 9, Op.Load, _ -> { tu with Tuple.a = Operand.Imm 3 }
            (* A reference the interpreter never reads, which a
               reordering must still keep after its producer. *)
            | 10, Op.Const, Some id -> { tu with Tuple.b = Operand.Ref id }
            | _ -> tu
          in
          if Tuple.produces_value tu then last := Some tu.Tuple.id;
          tu
        in
        if kind < 9 then source else Block.of_tuples_exn (List.map edit tus)
      in
      let shuffled () =
        let a = Array.init n Fun.id in
        Rng.shuffle rng a;
        a
      in
      (* Keeps the references of [source], not the ones kind 10 adds. *)
      let by_references () =
        let tus = Block.tuples source in
        let placed = Hashtbl.create n in
        let left = ref (List.init n Fun.id) in
        Array.init n (fun _ ->
            let ready =
              List.filter
                (fun i ->
                  List.for_all (Hashtbl.mem placed) (Tuple.value_refs tus.(i)))
                !left
            in
            let pick = List.nth ready (Rng.int rng (List.length ready)) in
            Hashtbl.replace placed tus.(pick).Tuple.id ();
            left := List.filter (fun i -> i <> pick) !left;
            pick)
      in
      let order =
        match kind with
        | 0 | 1 | 2 ->
          List_sched.schedule
            (List_sched.Random_order (Rng.bits rng))
            (Dag.of_block blk)
        | 3 | 4 | 5 -> by_references ()
        | 6 | 9 -> shuffled ()
        | 10 -> if Rng.bool rng then by_references () else shuffled ()
        | 7 -> Array.init n (fun i -> if i = 0 then n - 1 else i)
        | _ ->
          if n mod 2 = 0 then Array.init n (fun i -> if i = 0 then n else i)
          else Array.init (n - 1) Fun.id
      in
      Certify.check_semantics blk ~order = semantics_model blk ~order)

(* ------------------------------------------------------------------ *)
(* Machine.validate                                                    *)

let test_validate_presets_clean () =
  List.iter
    (fun (name, m) ->
      check int_t ("preset " ^ name) 0 (List.length (Machine.validate m)))
    Machine.Presets.all

let test_validate_no_pipes () =
  let m = Machine.make ~name:"empty" [||] ~assign:[] in
  check bool_t "No_pipes" true
    (List.exists
       (function Machine.No_pipes -> true | _ -> false)
       (Machine.validate m))

let test_validate_no_candidates () =
  let m =
    Machine.make ~name:"m"
      [| Pipe.make ~label:"p" ~latency:2 ~enqueue:1 |]
      ~assign:[ (Op.Load, []) ]
  in
  check bool_t "No_candidates" true
    (List.exists
       (function
         | Machine.No_candidates { op } -> op = Op.Load
         | _ -> false)
       (Machine.validate m))

let test_validate_duplicate_candidate () =
  let m =
    Machine.make ~name:"m"
      [| Pipe.make ~label:"p" ~latency:2 ~enqueue:1 |]
      ~assign:[ (Op.Load, [ 0; 0 ]) ]
  in
  check bool_t "Duplicate_candidate" true
    (List.exists
       (function
         | Machine.Duplicate_candidate { op; pipe } ->
           op = Op.Load && pipe = 0
         | _ -> false)
       (Machine.validate m))

let test_diagnostic_strings () =
  List.iter
    (fun d -> check bool_t "nonempty" true
        (String.length (Machine.diagnostic_to_string d) > 0))
    [ Machine.No_pipes;
      Machine.Bad_latency { pipe = 0; label = "p"; latency = 0 };
      Machine.Bad_enqueue { pipe = 0; label = "p"; enqueue = 0 };
      Machine.No_candidates { op = Op.Load };
      Machine.Duplicate_candidate { op = Op.Load; pipe = 0 } ]

(* ------------------------------------------------------------------ *)
(* Fault containment in the study driver                               *)

exception Boom

let test_run_protected_contains () =
  let f x = if x = 2 then raise Boom else Study.run_block machine (random_block (Rng.create x) 6) in
  let results = Study.run_protected ~jobs:2 f [ 0; 1; 2; 3; 4 ] in
  check int_t "five results" 5 (List.length results);
  check int_t "one failure" 1 (List.length (Study.failures results));
  check int_t "four records" 4 (List.length (Study.records results));
  (* The failure sits at the crashing input's position. *)
  (match List.nth results 2 with
   | Study.Failed { exn; _ } ->
     check bool_t "names the exception" true
       (String.length exn > 0)
   | Study.Scheduled _ -> Alcotest.fail "expected Failed at position 2")

let test_run_protected_strict_raises () =
  let f x = if x = 2 then raise Boom else Study.run_block machine (random_block (Rng.create x) 6) in
  match Study.run_protected ~strict:true ~jobs:1 f [ 0; 1; 2; 3; 4 ] with
  | _ -> Alcotest.fail "expected Boom to propagate under strict"
  | exception Boom -> ()

let test_study_certified_run () =
  let results = Study.run ~certify:true ~seed:11 ~count:20 machine in
  check int_t "all scheduled" 20 (List.length (Study.records results));
  check int_t "no failures" 0 (List.length (Study.failures results))

let test_run_block_certify_flag () =
  let blk = random_block (Rng.create 5) 10 in
  let r = Study.run_block ~certify:true machine blk in
  check bool_t "record produced" true (r.Study.size = 10)

let () =
  Alcotest.run "verify"
    [ ( "clean",
        [ schedulers_clean_presets; schedulers_clean_random_machines ] );
      ( "mutations",
        [ Alcotest.test_case "swapped dependents" `Quick
            test_mutation_swapped_dependents;
          Alcotest.test_case "under-reported NOPs" `Quick
            test_mutation_underreported_nops;
          Alcotest.test_case "illegal pipe" `Quick test_mutation_illegal_pipe;
          Alcotest.test_case "compressed issue ticks" `Quick
            test_mutation_compressed_issue;
          Alcotest.test_case "garbage never raises" `Quick
            test_mutation_never_raises;
          Alcotest.test_case "ordering check" `Quick test_ordering_check;
          Alcotest.test_case "illegal reorder semantics" `Quick
            test_semantics_detects_illegal_reorder;
          semantics_matches_model ] );
      ( "machine-validate",
        [ Alcotest.test_case "presets clean" `Quick test_validate_presets_clean;
          Alcotest.test_case "no pipes" `Quick test_validate_no_pipes;
          Alcotest.test_case "no candidates" `Quick test_validate_no_candidates;
          Alcotest.test_case "duplicate candidate" `Quick
            test_validate_duplicate_candidate;
          Alcotest.test_case "diagnostic strings" `Quick
            test_diagnostic_strings ] );
      ( "containment",
        [ Alcotest.test_case "run_protected contains" `Quick
            test_run_protected_contains;
          Alcotest.test_case "strict fail-fast" `Quick
            test_run_protected_strict_raises;
          Alcotest.test_case "certified study" `Quick test_study_certified_run;
          Alcotest.test_case "run_block --certify" `Quick
            test_run_block_certify_flag ] ) ]
