(* Conformance suite for the common SCHEDULER interface
   (Pipesched_core.Scheduler): every registered backend — exact
   searches, the cp solver, the portfolio, the heuristic seed — must
   honor the same outcome contract (see scheduler.mli).  The properties
   here are backend-generic on purpose: adding a backend to the
   registry automatically puts it under this suite. *)

open Pipesched_ir
open Pipesched_machine
open Pipesched_core
module Budget = Pipesched_prelude.Budget
module Certify = Pipesched_verify.Certify
open Helpers

let exact = [ "bnb"; "cp"; "portfolio" ]
let is_exact name = List.mem name exact

let backend name =
  match Scheduler.find name with
  | Some b -> b
  | None -> Alcotest.failf "backend %S not registered" name

let schedule ?options ?(name = "bnb") blk =
  let (module B : Scheduler.S) = backend name in
  B.schedule ?options machine (Dag.of_block blk)

let all_clean what vs =
  if not (Certify.certified vs) then
    Alcotest.failf "%s: %s" what (Certify.explain_all vs);
  true

(* ------------------------------------------------------------------ *)
(* Registry shape                                                      *)

let registry_is_complete () =
  Alcotest.(check (list string))
    "registry names" [ "bnb"; "cp"; "portfolio"; "list" ]
    Scheduler.names;
  List.iter
    (fun name ->
      let (module B : Scheduler.S) = backend name in
      Alcotest.(check string) "find is name-consistent" name B.name;
      Alcotest.(check bool) "describe nonempty" true (B.describe <> ""))
    Scheduler.names;
  Alcotest.(check (option reject)) "unknown name" None
    (Option.map ignore (Scheduler.find "no-such-backend"))

(* ------------------------------------------------------------------ *)
(* Certification: best and initial are legal, best-first ordered       *)

let outcomes_certify =
  qtest ~count:100 "every backend's best and initial certify clean"
    (block_gen ~min_size:1 ~max_size:8 ()) block_print
    (fun blk ->
      List.for_all
        (fun name ->
          let o = schedule ~name blk in
          all_clean (name ^ " best") (Certify.check machine blk o.Scheduler.best)
          && all_clean (name ^ " initial")
               (Certify.check machine blk o.Scheduler.initial)
          && all_clean (name ^ " ordering")
               (Certify.check_ordering
                  [ (name ^ " best", o.Scheduler.best.Omega.nops);
                    (name ^ " initial", o.Scheduler.initial.Omega.nops) ]))
        Scheduler.names)

(* ------------------------------------------------------------------ *)
(* The completed / status / proved contract                            *)

let contract_holds =
  qtest ~count:100 "completed iff Complete iff proved (exact backends)"
    (block_gen ~min_size:1 ~max_size:8 ()) block_print
    (fun blk ->
      List.for_all
        (fun name ->
          let o = schedule ~name blk in
          if is_exact name then
            o.Scheduler.completed = (o.Scheduler.status = Budget.Complete)
            && o.Scheduler.completed = (o.Scheduler.proved <> None)
            && (match o.Scheduler.proved with
                | Some p -> p = o.Scheduler.best.Omega.nops
                | None -> true)
            && o.Scheduler.calls >= 0
          else
            (* Heuristics terminate naturally but never claim a proof. *)
            (not o.Scheduler.completed)
            && o.Scheduler.status = Budget.Complete
            && o.Scheduler.proved = None)
        Scheduler.names)

(* ------------------------------------------------------------------ *)
(* Exact backends agree with the trusted bnb optimum                   *)

let exact_backends_agree =
  qtest ~count:100 "cp and portfolio proofs name the bnb optimum"
    (block_gen ~min_size:1 ~max_size:7 ()) block_print
    (fun blk ->
      let reference = schedule ~name:"bnb" blk in
      if not reference.Scheduler.completed then QCheck2.assume_fail ()
      else
        let opt = reference.Scheduler.best.Omega.nops in
        List.for_all
          (fun name ->
            let o = schedule ~name blk in
            match o.Scheduler.proved with
            | Some p -> p = opt
            | None -> o.Scheduler.best.Omega.nops >= opt)
          [ "cp"; "portfolio" ])

(* ------------------------------------------------------------------ *)
(* Each exact backend is needed                                        *)

(* Two committed blocks, each proved by one exact backend while the
   other is still curtailed, so no fixed backend choice serves both and
   the portfolio must prove both.  Count budgets only (Omega calls for
   bnb, decisions + conflicts for cp), no deadline: the verdicts do not
   depend on the host's speed.

   The cp-favoured block weaves 8 mutually independent multiplies with
   6 independent loads.  Free-slot equivalence cannot collapse piped
   instructions, so the branch-and-bound tree is genuinely large (bnb is
   still curtailed after 500,000 Omega calls), while cp's packing bound
   proves the optimum within 2,000 decisions + conflicts.  The
   bnb-favoured block is generator seed 28 on a random machine: bnb
   proves it in about 560,000 Omega calls, while cp is curtailed at
   2,000 and still at 2,000,000, tens of seconds later. *)
let weave_mul8_load6 =
  let mul i id = Tuple.make ~id Op.Mul (Operand.Imm i) (Operand.Imm (i + 1)) in
  let load j id =
    Tuple.make ~id Op.Load (Operand.Var (Printf.sprintf "v%d" j)) Operand.Null
  in
  let rec weave a b =
    match (a, b) with
    | [], r | r, [] -> r
    | x :: xs, y :: ys -> x :: y :: weave xs ys
  in
  Dag.of_block
    (Block.of_tuples_exn
       (List.mapi
          (fun k x ->
            let id = k + 1 in
            match x with `M i -> mul i id | `L j -> load j id)
          (weave
             (List.init 8 (fun i -> `M (i + 1)))
             (List.init 6 (fun j -> `L (j + 1))))))

let each_exact_backend_is_needed () =
  let module Generator = Pipesched_synth.Generator in
  let run name ~lambda m dag =
    let (module B : Scheduler.S) = backend name in
    B.schedule
      ~options:{ Optimal.default_options with Optimal.lambda }
      m dag
  in
  let proves what expected (o : Scheduler.outcome) =
    Alcotest.(check (option int)) (what ^ " proves") (Some expected)
      o.Scheduler.proved
  in
  let curtailed what (o : Scheduler.outcome) =
    Alcotest.(check (option int)) (what ^ " proves nothing") None
      o.Scheduler.proved;
    Alcotest.(check string) (what ^ " status") "Curtailed_lambda"
      (Budget.status_to_string o.Scheduler.status)
  in
  let weave = weave_mul8_load6 in
  proves "weave: cp at 2,000" 1 (run "cp" ~lambda:2_000 machine weave);
  curtailed "weave: bnb at 500,000" (run "bnb" ~lambda:500_000 machine weave);
  let seed28 = Dag.of_block (Generator.of_seed 28) in
  let m28 = Generator.random_machine (Pipesched_prelude.Rng.create (28 * 7919)) in
  proves "seed 28: bnb at 2,000,000" 45 (run "bnb" ~lambda:2_000_000 m28 seed28);
  curtailed "seed 28: cp at 2,000" (run "cp" ~lambda:2_000 m28 seed28);
  proves "weave: portfolio" 1 (run "portfolio" ~lambda:2_000_000 machine weave);
  proves "seed 28: portfolio" 45
    (run "portfolio" ~lambda:2_000_000 m28 seed28)

(* ------------------------------------------------------------------ *)
(* Anytime behavior: tiny budgets and pre-cancelled tokens             *)

let anytime_under_tiny_lambda =
  qtest ~count:80 "a starved budget still yields a legal incumbent"
    (block_gen ~min_size:2 ~max_size:8 ()) block_print
    (fun blk ->
      let options = { Optimal.default_options with Optimal.lambda = 3 } in
      List.for_all
        (fun name ->
          let o = schedule ~options ~name blk in
          (o.Scheduler.status = Budget.Complete
          || o.Scheduler.status = Budget.Curtailed_lambda)
          && (o.Scheduler.status = Budget.Complete || not o.Scheduler.completed)
          && all_clean (name ^ " starved best")
               (Certify.check machine blk o.Scheduler.best))
        exact)

let anytime_under_cancellation =
  qtest ~count:50 "a pre-cancelled token stops the search, legally"
    (block_gen ~min_size:2 ~max_size:8 ()) block_print
    (fun blk ->
      List.for_all
        (fun name ->
          let t = Budget.token () in
          Budget.cancel t;
          let options =
            { Optimal.default_options with Optimal.cancel = Some t }
          in
          let o = schedule ~options ~name blk in
          (o.Scheduler.status = Budget.Cancelled
          || o.Scheduler.status = Budget.Complete)
          && all_clean (name ^ " cancelled best")
               (Certify.check machine blk o.Scheduler.best))
        exact)

(* The rounds before the last give bnb 500, 2,000, ... Omega calls while
   4s <= lambda, so they add at most lambda/3 to the last round's
   lambda.  At lambda 20,000 no round proves generator seed 28 on its
   random machine, so every round runs to its budget: bnb spends
   500 + 2,000 + 20,000 calls, and cp at least 31 + 125 + 20,000 units
   (a conflict spends before the budget is checked). *)
let portfolio_rounds_bounded () =
  let module Generator = Pipesched_synth.Generator in
  let dag = Dag.of_block (Generator.of_seed 28) in
  let m = Generator.random_machine (Pipesched_prelude.Rng.create (28 * 7919)) in
  let lambda = 20_000 in
  let o =
    Portfolio.run ~options:{ Optimal.default_options with Optimal.lambda } m dag
  in
  Alcotest.(check (option int)) "no proof" None o.Portfolio.proved;
  Alcotest.(check string) "status" "Curtailed_lambda"
    (Budget.status_to_string o.Portfolio.status);
  Alcotest.(check int) "bnb calls" (500 + 2_000 + lambda)
    o.Portfolio.bnb.Portfolio.calls;
  Alcotest.(check bool) "within lambda + lambda/3" true
    (o.Portfolio.bnb.Portfolio.calls <= lambda + (lambda / 3));
  Alcotest.(check bool) "cp ran every round" true
    (o.Portfolio.cp.Portfolio.calls >= 31 + 125 + lambda)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)

let deterministic_schedules =
  qtest ~count:60 "serial backends reproduce the same schedule"
    (block_gen ~min_size:1 ~max_size:7 ()) block_print
    (fun blk ->
      List.for_all
        (fun name ->
          let a = schedule ~name blk in
          let b = schedule ~name blk in
          a.Scheduler.best.Omega.order = b.Scheduler.best.Omega.order
          && a.Scheduler.best.Omega.nops = b.Scheduler.best.Omega.nops)
        [ "bnb"; "cp"; "portfolio"; "list" ])

(* The rounds run on one domain with count budgets, so two runs give
   equal outcomes in every field: the winner, the witness (order and
   pipes), the seed, both sides' calls, the status and the proof.  The
   small lambda makes curtailed runs and cp's rounds occur too. *)
let portfolio_deterministic_value =
  qtest ~count:60 "the portfolio's proved value does not depend on the race"
    (block_gen ~min_size:1 ~max_size:7 ()) block_print
    (fun blk ->
      List.for_all
        (fun lambda ->
          let options = { Optimal.default_options with Optimal.lambda } in
          let run () = Portfolio.run ~options machine (Dag.of_block blk) in
          run () = run ())
        [ Optimal.default_options.Optimal.lambda; 40 ])

let () =
  Alcotest.run "scheduler"
    [ ( "registry",
        [ Alcotest.test_case "names and lookup" `Quick registry_is_complete ] );
      ( "conformance",
        [ outcomes_certify; contract_holds; exact_backends_agree;
          Alcotest.test_case "each exact backend is needed" `Quick
            each_exact_backend_is_needed ] );
      ( "anytime",
        [ anytime_under_tiny_lambda; anytime_under_cancellation;
          Alcotest.test_case "the portfolio's rounds add at most lambda/3"
            `Quick portfolio_rounds_bounded ] );
      ("determinism", [ deterministic_schedules; portfolio_deterministic_value ])
    ]
