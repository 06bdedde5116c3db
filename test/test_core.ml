(* Tests for Pipesched_core.Optimal: the branch-and-bound scheduler. *)

open Pipesched_ir
open Pipesched_machine
open Pipesched_sched
open Pipesched_core
module Rng = Pipesched_prelude.Rng
open Helpers

let tu ~id op a b = Tuple.make ~id op a b

let options_variants =
  let base = Optimal.default_options in
  [ ("paper", base);
    ("no-equivalence", { base with Optimal.equivalence = false });
    ("strong-equivalence", { base with Optimal.strong_equivalence = true });
    ("critical-path", { base with Optimal.lower_bound = Optimal.Critical_path });
    ( "all-extensions",
      { base with
        Optimal.strong_equivalence = true;
        Optimal.lower_bound = Optimal.Critical_path } );
    ("source-seed", { base with Optimal.seed = List_sched.Source_order });
    ("random-seed", { base with Optimal.seed = List_sched.Random_order 5 });
    (* The dominance memo, forced on from the first Omega call (the
       default activation threshold would never trigger on oracle-sized
       blocks) and fully off. *)
    ( "memo-eager",
      { base with
        Optimal.memo =
          { base.Optimal.memo with Optimal.memo_activation = 0 } } );
    ( "no-memo",
      { base with
        Optimal.memo =
          { base.Optimal.memo with Optimal.memo_enabled = false } } ) ]

(* ------------------------------------------------------------------ *)
(* Optimality against the exhaustive oracle                            *)

let brute_force_nops dag =
  List.fold_left
    (fun acc order ->
      min acc (Omega.evaluate machine dag ~order).Omega.nops)
    max_int (all_legal_orders dag)

let optimal_matches_brute_force =
  qtest ~count:150 "search finds the exhaustive optimum (all option sets)"
    (block_gen ~min_size:1 ~max_size:7 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let brute = brute_force_nops dag in
      List.for_all
        (fun (_, options) ->
          let o = Optimal.schedule ~options machine dag in
          o.Optimal.stats.Optimal.completed
          && o.Optimal.best.Omega.nops = brute)
        options_variants)

let optimal_on_deep_machine =
  qtest ~count:100 "optimum also holds on the deep and demo machines"
    (block_gen ~min_size:1 ~max_size:6 ()) block_print
    (fun blk ->
      List.for_all
        (fun m ->
          let dag = Dag.of_block blk in
          let brute =
            List.fold_left
              (fun acc order ->
                min acc (Omega.evaluate m dag ~order).Omega.nops)
              max_int (all_legal_orders dag)
          in
          List.for_all
            (fun (_, options) ->
              (Optimal.schedule ~options m dag).Optimal.best.Omega.nops
              = brute)
            options_variants)
        [ Machine.Presets.deep; Machine.Presets.demo;
          Machine.Presets.throttled ])

let optimal_result_is_legal =
  qtest ~count:200 "the returned schedule is a legal order with its cost"
    (block_gen ~min_size:1 ~max_size:12 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let o = Optimal.schedule machine dag in
      Dag.is_legal_order dag o.Optimal.best.Omega.order
      && (Omega.evaluate machine dag ~order:o.Optimal.best.Omega.order)
           .Omega.nops
         = o.Optimal.best.Omega.nops)

let optimal_never_worse_than_seed =
  qtest ~count:200 "best schedule never has more NOPs than the seed"
    (block_gen ~min_size:1 ~max_size:12 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let o = Optimal.schedule machine dag in
      o.Optimal.best.Omega.nops <= o.Optimal.initial.Omega.nops)

let seed_choice_does_not_change_optimum =
  qtest ~count:100 "optimum is independent of the seed heuristic"
    (block_gen ~min_size:1 ~max_size:8 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let nops_with seed =
        (Optimal.schedule
           ~options:{ Optimal.default_options with Optimal.seed }
           machine dag)
          .Optimal.best
          .Omega.nops
      in
      let a = nops_with List_sched.Max_distance in
      let b = nops_with List_sched.Source_order in
      let c = nops_with (List_sched.Random_order 33) in
      a = b && b = c)

(* ------------------------------------------------------------------ *)
(* Every search entry point, pinned                                    *)

(* One line per outcome: best order, pipes and NOPs, the seed's NOPs,
   and every stats field but [elapsed_s].  The digest below was recorded
   before the search's inner loop was rewritten; a change that alters
   any search tree (Omega calls, memo hits, completed schedules) or any
   answer moves it. *)
let pin_outcome buf (o : Optimal.outcome) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let s = o.Optimal.stats in
  Printf.bprintf buf "%s|%s|%d|%d|%d %d %d %b %s %d %d %d %d\n"
    (ints o.Optimal.best.Omega.order) (ints o.Optimal.best.Omega.pipes)
    o.Optimal.best.Omega.nops o.Optimal.initial.Omega.nops
    s.Optimal.omega_calls s.Optimal.schedules_completed s.Optimal.improvements
    s.Optimal.completed
    (Pipesched_prelude.Budget.status_to_string s.Optimal.status)
    s.Optimal.memo_hits s.Optimal.memo_misses s.Optimal.memo_entries
    s.Optimal.memo_evictions

let entry_points_digest = "df824b99fda2643010c393c5fd595b86"

let test_entry_points_pinned () =
  let module Generator = Pipesched_synth.Generator in
  let buf = Buffer.create 65536 in
  let lambda options = { options with Optimal.lambda = 20_000 } in
  (* Study-shaped blocks, ten of them hard (thousands of Omega calls,
     the memo past its first growth, curtailment at lambda), and small
     random ones. *)
  let study seed =
    let rng = Rng.create seed in
    Generator.block rng (Generator.sample_params rng)
  in
  let blocks =
    List.init 24 (fun i -> study (7_000 + i))
    @ List.map study
        [ 7046; 7103; 7209; 7452; 7669; 7953; 7984; 8242; 8305; 8641 ]
    @ List.init 24 (fun i -> random_block (Rng.create (9_000 + i)) (4 + i))
  in
  let dags = List.map Dag.of_block blocks in
  let small_memo =
    { Optimal.default_memo with
      Optimal.memo_capacity = 16;
      Optimal.memo_activation = 0 }
  in
  let variants =
    options_variants
    @ [ ("small-memo", { Optimal.default_options with Optimal.memo = small_memo });
        ("deep", Optimal.default_options) ]
  in
  List.iter
    (fun (name, options) ->
      let m = if name = "deep" then Machine.Presets.deep else machine in
      List.iter
        (fun dag ->
          pin_outcome buf (Optimal.schedule ~options:(lambda options) m dag))
        dags)
    variants;
  let multi_options =
    { Optimal.default_options with
      Optimal.lambda = 5_000;
      Optimal.lower_bound = Optimal.Critical_path }
  in
  List.iteri
    (fun i dag ->
      let rng = Rng.create (11_000 + i) in
      List.iter
        (fun m ->
          let o, choice = Optimal.schedule_multi ~options:multi_options m dag in
          pin_outcome buf o;
          Array.iter
            (function
              | Some p -> Printf.bprintf buf "%d " p
              | None -> Buffer.add_string buf "- ")
            choice;
          Buffer.add_char buf '\n')
        [ Machine.Presets.demo; Pipesched_synth.Generator.random_machine rng ])
    dags;
  List.iter
    (fun dag ->
      List.iter
        (fun registers ->
          match
            Optimal.schedule_bounded
              ~options:(lambda Optimal.default_options) ~registers machine dag
          with
          | Ok o -> pin_outcome buf o
          | Error () -> Buffer.add_string buf "infeasible\n")
        [ 2; 4 ])
    dags;
  let throttled = Machine.Presets.throttled in
  let region =
    Region.schedule ~options:(lambda Optimal.default_options) throttled dags
  in
  List.iter
    (fun (b : Region.block_outcome) ->
      pin_outcome buf b.Region.outcome;
      Array.iter (Printf.bprintf buf "%d ") b.Region.entry.Omega.pipe_last_use;
      Buffer.add_char buf '\n')
    region.Region.blocks;
  Printf.bprintf buf "region %d %d %d %d\n" region.Region.total_nops
    region.Region.cold_total_nops region.Region.cold_claimed_nops
    region.Region.cold_hazards;
  List.iter
    (fun dag ->
      let o, proved =
        Optimal.schedule_shared ~options:(lambda Optimal.default_options)
          ~bound:max_int machine dag
      in
      pin_outcome buf o;
      Printf.bprintf buf "proved %s\n"
        (match proved with Some p -> string_of_int p | None -> "-"))
    dags;
  check Alcotest.string "digest of every entry point's outcomes"
    entry_points_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)
(* The paper's Figure 3 block                                          *)

let test_fig3_optimal () =
  let blk =
    Block.of_tuples_exn
      [ tu ~id:1 Op.Const (Operand.Imm 15) Operand.Null;
        tu ~id:2 Op.Store (Operand.Var "b") (Operand.Ref 1);
        tu ~id:3 Op.Load (Operand.Var "a") Operand.Null;
        tu ~id:4 Op.Mul (Operand.Ref 1) (Operand.Ref 3);
        tu ~id:5 Op.Store (Operand.Var "a") (Operand.Ref 4) ]
  in
  let dag = Dag.of_block blk in
  let o = Optimal.schedule machine dag in
  (* Load@0, anything, Mul@2, anything, Store a >= 6: two NOPs minimum. *)
  check int_t "optimal NOPs" 2 o.Optimal.best.Omega.nops;
  check bool_t "completed" true o.Optimal.stats.Optimal.completed;
  check bool_t "verified against exhaustive" true
    (Optimal.verify_optimal machine dag o)

(* The literal paper condition [5c] would prune the optimum here: at the
   root both `Store x3` and `Sub` are resource-free with no predecessors,
   but only schedules placing the Store in third position reach 2 NOPs.
   Found by the qcheck oracle; kept as a regression test for the
   successor-free refinement. *)
let test_5c_counterexample () =
  let blk =
    Block.of_tuples_exn
      [ tu ~id:1 Op.Store (Operand.Var "x3") (Operand.Imm 32);
        tu ~id:2 Op.Sub (Operand.Imm 13) (Operand.Imm 77);
        tu ~id:3 Op.Div (Operand.Ref 2) (Operand.Imm 99);
        tu ~id:4 Op.And (Operand.Imm 16) (Operand.Ref 3) ]
  in
  let dag = Dag.of_block blk in
  check int_t "exhaustive optimum" 2 (brute_force_nops dag);
  List.iter
    (fun (name, options) ->
      let o = Optimal.schedule ~options machine dag in
      check int_t ("optimal under " ^ name) 2 o.Optimal.best.Omega.nops)
    options_variants

(* ------------------------------------------------------------------ *)
(* Curtailment                                                         *)

let test_lambda_curtails () =
  let rng = Rng.create 4242 in
  (* A biggish block so the search cannot finish in 5 calls. *)
  let blk = random_block rng 20 in
  let dag = Dag.of_block blk in
  let o =
    Optimal.schedule
      ~options:{ Optimal.default_options with Optimal.lambda = 5 }
      machine dag
  in
  check bool_t "curtailed" false o.Optimal.stats.Optimal.completed;
  check bool_t "respected lambda" true
    (o.Optimal.stats.Optimal.omega_calls <= 5);
  (* Even curtailed, the incumbent (the seed) is a valid answer. *)
  check bool_t "still legal" true
    (Dag.is_legal_order dag o.Optimal.best.Omega.order)

let lambda_monotone =
  qtest ~count:80 "larger lambda never yields a worse schedule"
    (block_gen ~min_size:4 ~max_size:12 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let nops_at lambda =
        (Optimal.schedule
           ~options:{ Optimal.default_options with Optimal.lambda }
           machine dag)
          .Optimal.best
          .Omega.nops
      in
      let a = nops_at 10 in
      let b = nops_at 100 in
      let c = nops_at 10_000 in
      a >= b && b >= c)

module Budget = Pipesched_prelude.Budget

(* Anytime mode: with an effectively unlimited lambda and a short
   wall-clock deadline, every entry point must come back promptly with a
   complete legal schedule and a [Curtailed_deadline] status.  The block
   is far too large for the search to finish inside the deadline. *)
let test_deadline_anytime () =
  (* 36 mutually independent, pairwise distinct instructions: the search
     space is astronomically large and equivalence pruning cannot
     collapse it, so no budget this side of the deadline finishes. *)
  let blk =
    let ops = [| Op.Load; Op.Mul; Op.Div; Op.Mod |] in
    Block.of_tuples_exn
      (List.init 36 (fun i ->
           match ops.(i mod 4) with
           | Op.Load ->
             tu ~id:(i + 1) Op.Load
               (Operand.Var (Printf.sprintf "v%d" i))
               Operand.Null
           | op -> tu ~id:(i + 1) op (Operand.Imm (i + 1)) (Operand.Imm (i + 2))))
  in
  let dag = Dag.of_block blk in
  let deadline = 0.05 in
  let options =
    { Optimal.default_options with
      Optimal.lambda = max_int;
      Optimal.deadline_s = Some deadline }
  in
  let run name f =
    let t0 = Unix.gettimeofday () in
    let status, order = f () in
    let wall = Unix.gettimeofday () -. t0 in
    check bool_t (name ^ ": curtailed by the deadline") true
      (status = Budget.Curtailed_deadline);
    check bool_t (name ^ ": legal complete schedule") true
      (Dag.is_legal_order dag order);
    check bool_t (name ^ ": within twice the deadline") true
      (wall <= 2.0 *. deadline)
  in
  run "schedule" (fun () ->
      let o = Optimal.schedule ~options machine dag in
      (o.Optimal.stats.Optimal.status, o.Optimal.best.Omega.order));
  run "schedule_bounded" (fun () ->
      match Optimal.schedule_bounded ~options ~registers:64 machine dag with
      | Ok o -> (o.Optimal.stats.Optimal.status, o.Optimal.best.Omega.order)
      | Error () -> Alcotest.fail "bounded search found no schedule");
  run "windowed" (fun () ->
      let w = Windowed.schedule ~options ~window:18 machine dag in
      (w.Windowed.status, w.Windowed.best.Omega.order))

(* The determinism contract behind byte-identical deadline-free runs:
   without a deadline the searches never consult the clock. *)
let test_no_deadline_reads_no_clock () =
  Budget.set_clock (fun () ->
      Alcotest.fail "clock read by a deadline-free search");
  Fun.protect
    ~finally:(fun () -> Budget.set_clock Unix.gettimeofday)
    (fun () ->
      let rng = Rng.create 51 in
      let blk = random_block rng 12 in
      let dag = Dag.of_block blk in
      let o = Optimal.schedule machine dag in
      check bool_t "elapsed not measured" true
        (o.Optimal.stats.Optimal.elapsed_s = 0.0);
      check bool_t "status agrees with completed" true
        (Budget.is_complete o.Optimal.stats.Optimal.status
         = o.Optimal.stats.Optimal.completed);
      let w = Windowed.schedule ~window:4 machine dag in
      check bool_t "windowed status" true
        (Budget.is_complete w.Windowed.status
         = w.Windowed.all_windows_completed))

(* An Omega call allocates nothing: ten times the lambda on a block no
   entry point finishes (and on which each finds its last improvement
   early) costs no more minor-heap words.  The memo is off, since its
   table grows with the search. *)
let test_omega_call_allocates_nothing () =
  let module Generator = Pipesched_synth.Generator in
  let rng = Rng.create 7209 in
  let dag = Dag.of_block (Generator.block rng (Generator.sample_params rng)) in
  let options lambda =
    { Optimal.default_options with
      Optimal.lambda;
      Optimal.memo = { Optimal.default_memo with Optimal.memo_enabled = false } }
  in
  let words run =
    let w0 = Gc.minor_words () in
    run ();
    Gc.minor_words () -. w0
  in
  let check_entry name run =
    let small = words (fun () -> run (options 100_000)) in
    let large = words (fun () -> run (options 1_000_000)) in
    check bool_t (Printf.sprintf "%s: %.0f words, then %.0f" name small large)
      true (large -. small < 1_000.)
  in
  check_entry "schedule" (fun options ->
      ignore (Optimal.schedule ~options machine dag));
  check_entry "schedule_multi" (fun options ->
      ignore (Optimal.schedule_multi ~options Machine.Presets.demo dag));
  check_entry "schedule_bounded" (fun options ->
      ignore (Optimal.schedule_bounded ~options ~registers:6 machine dag))

(* Arrays of more than 256 words (Max_young_wosize) skip the minor heap
   and go straight to the major one, which no later minor collection
   frees.  A search's setup stays under that size for every block of up
   to 63 instructions (the largest study blocks have about 56): a
   curtailed lambda = 1 search there allocates nothing directly in the
   major heap. *)
let test_setup_stays_in_minor_heap () =
  let module Generator = Pipesched_synth.Generator in
  let options = { Optimal.default_options with Optimal.lambda = 1 } in
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let rng = Rng.create 6301 in
  let blocks =
    List.init 63 (fun i -> random_block_with rng (i + 1) (1 + (i mod 12)))
    @ List.init 40 (fun _ -> Generator.block rng (Generator.sample_params rng))
  in
  List.iter
    (fun blk ->
      let dag = Dag.of_block blk in
      let n = Dag.length dag in
      if n <= 63 then begin
        let before = direct () in
        ignore (Optimal.schedule ~options machine dag);
        check (Alcotest.float 0.)
          (Printf.sprintf "%d instructions: words allocated in the major heap"
             n)
          0. (direct () -. before)
      end)
    blocks

let test_stats_consistency () =
  let rng = Rng.create 99 in
  let blk = random_block rng 10 in
  let dag = Dag.of_block blk in
  let o = Optimal.schedule machine dag in
  let s = o.Optimal.stats in
  check bool_t "calls positive" true (s.Optimal.omega_calls >= 0);
  check bool_t "improvements bounded" true
    (s.Optimal.improvements <= s.Optimal.schedules_completed);
  check bool_t "within lambda" true
    (s.Optimal.omega_calls <= Optimal.default_options.Optimal.lambda)

(* ------------------------------------------------------------------ *)
(* Pruning soundness under adversarial option mixes                    *)

let pruning_off_matches_pruning_on =
  qtest ~count:80 "disabling alpha-beta does not change the optimum"
    (block_gen ~min_size:1 ~max_size:6 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let on = Optimal.schedule machine dag in
      let off =
        Optimal.schedule
          ~options:{ Optimal.default_options with Optimal.alpha_beta = false }
          machine dag
      in
      (not (on.Optimal.stats.Optimal.completed
            && off.Optimal.stats.Optimal.completed))
      || on.Optimal.best.Omega.nops = off.Optimal.best.Omega.nops)

let alpha_beta_reduces_calls =
  qtest ~count:80 "alpha-beta pruning never increases omega calls"
    (block_gen ~min_size:2 ~max_size:7 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let on = Optimal.schedule machine dag in
      let off =
        Optimal.schedule
          ~options:{ Optimal.default_options with Optimal.alpha_beta = false }
          machine dag
      in
      (not off.Optimal.stats.Optimal.completed)
      || on.Optimal.stats.Optimal.omega_calls
         <= off.Optimal.stats.Optimal.omega_calls)

(* ------------------------------------------------------------------ *)
(* Dominance memoization                                               *)

let memo_eager = { Optimal.default_memo with Optimal.memo_activation = 0 }

let memo_off = { Optimal.default_memo with Optimal.memo_enabled = false }

let memo_preserves_optimum =
  qtest ~count:120 "memo on/off agree on the optimum (schedule)"
    (block_gen ~min_size:1 ~max_size:10 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let run memo =
        Optimal.schedule
          ~options:{ Optimal.default_options with Optimal.memo = memo }
          machine dag
      in
      let on = run memo_eager and off = run memo_off in
      on.Optimal.stats.Optimal.completed
      && off.Optimal.stats.Optimal.completed
      && on.Optimal.best.Omega.nops = off.Optimal.best.Omega.nops
      && off.Optimal.stats.Optimal.memo_hits = 0
      (* exhaustive cross-check where it is affordable *)
      && (Dag.length dag > 7 || Optimal.verify_optimal machine dag on))

let memo_preserves_optimum_multi =
  qtest ~count:60 "memo on/off agree on the optimum (schedule_multi)"
    (block_gen ~min_size:1 ~max_size:6 ()) block_print
    (fun blk ->
      (* Critical-path bound keeps the demo machine's multi-pipe space
         tractable (see the dot4 regression below). *)
      let m = Machine.Presets.demo in
      let dag = Dag.of_block blk in
      let run memo =
        fst
          (Optimal.schedule_multi
             ~options:
               { Optimal.default_options with
                 Optimal.lower_bound = Optimal.Critical_path;
                 Optimal.memo = memo }
             m dag)
      in
      let on = run memo_eager and off = run memo_off in
      (not
         (on.Optimal.stats.Optimal.completed
          && off.Optimal.stats.Optimal.completed))
      || on.Optimal.best.Omega.nops = off.Optimal.best.Omega.nops)

let memo_preserves_bounded_result =
  qtest ~count:80 "memo on/off agree for the register-bounded search"
    QCheck2.Gen.(pair (block_gen ~min_size:1 ~max_size:7 ()) (int_range 1 4))
    (fun (blk, k) -> Printf.sprintf "registers=%d\n%s" k (block_print blk))
    (fun (blk, k) ->
      let dag = Dag.of_block blk in
      let run memo =
        Optimal.schedule_bounded
          ~options:{ Optimal.default_options with Optimal.memo = memo }
          ~registers:k machine dag
      in
      match (run memo_eager, run memo_off) with
      | Error (), Error () -> true
      | Ok on, Ok off ->
        on.Optimal.best.Omega.nops = off.Optimal.best.Omega.nops
      | Ok _, Error () | Error (), Ok _ -> false)

(* The dense fingerprint the memo stored before its rows were made
   compact, copied as the reference model: mu(Phi), each pipe's last use
   relative to the next issue slot (clamped at -enqueue), and one
   residual per position (0 unless positive with a consumer still
   unscheduled). *)
let dense_fingerprint machine dag st =
  let n = Dag.length dag in
  let npipes = Machine.pipe_count machine in
  let enqueue p = (Machine.pipe machine p).Pipe.enqueue in
  let max_prod_lat =
    let m = ref 1 in
    for p = 0 to npipes - 1 do
      let l = (Machine.pipe machine p).Pipe.latency in
      if l > !m then m := l
    done;
    !m
  in
  let depth = Omega.State.depth st in
  let base =
    if depth = 0 then 0
    else Omega.State.issue_of st (Omega.State.at_depth st (depth - 1)) + 1
  in
  let fp = Array.make (1 + npipes + n) 0 in
  fp.(0) <- Omega.State.nops st;
  for p = 0 to npipes - 1 do
    fp.(1 + p) <- max (Omega.State.last_use st p - base) (-enqueue p)
  done;
  let k = ref (depth - 1) in
  let live = ref true in
  while !live && !k >= 0 do
    let v = Omega.State.at_depth st !k in
    if Omega.State.issue_of st v + max_prod_lat <= base then live := false
    else begin
      let residual = Omega.State.avail_of st v - base in
      if residual > 0 then begin
        let pending =
          List.exists
            (fun s -> not (Omega.State.is_scheduled st s))
            (Dag.succs dag v)
        in
        if pending then fp.(1 + npipes + v) <- residual
      end;
      decr k
    end
  done;
  fp

let dense_leq a b =
  let ok = ref true in
  Array.iteri (fun i x -> if x > b.(i) then ok := false) a;
  !ok

(* Random push/pop walks (random pipe choices and entry states
   included) visit many orders of the same scheduled sets; every pair
   of visited states over one set must get the dense model's verdict. *)
let fingerprint_matches_dense_model =
  qtest ~count:300 "compact fingerprint verdicts equal the dense model"
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 12) (int_bound 3))
    (fun (seed, n, mi) -> Printf.sprintf "seed=%d n=%d machine=%d" seed n mi)
    (fun (seed, n, mi) ->
      let rng = Rng.create seed in
      let m =
        match mi with
        | 0 -> machine
        | 1 -> Machine.Presets.demo
        | 2 -> Machine.Presets.deep
        | _ -> Pipesched_synth.Generator.random_machine rng
      in
      let dag = Dag.of_block (random_block rng n) in
      let entry =
        if Rng.int rng 3 > 0 then None
        else
          Some
            { Omega.pipe_last_use =
                Array.init (Machine.pipe_count m) (fun _ -> -Rng.int rng 12) }
      in
      let st = Omega.State.create ?entry m dag in
      let fp = Optimal.Fingerprint.create m dag in
      let visits = Hashtbl.create 64 in
      let record () =
        let row = Array.make (Optimal.Fingerprint.width fp) 0 in
        Optimal.Fingerprint.write fp st row;
        let key =
          List.filter (Omega.State.is_scheduled st) (List.init n Fun.id)
        in
        Hashtbl.add visits key
          ( Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout row,
            row,
            dense_fingerprint m dag st )
      in
      record ();
      for _ = 1 to 400 do
        let ready = Array.of_list (Omega.State.ready_list st) in
        if Array.length ready > 0 && (Omega.State.depth st = 0 || Rng.int rng 3 > 0)
        then begin
          let pos = Rng.choose rng ready in
          let op = (Block.tuple_at (Dag.block dag) pos).Tuple.op in
          (match Machine.candidates m op with
           | [] -> Omega.State.push_on st pos ~pipe:None
           | pids ->
             Omega.State.push_on st pos
               ~pipe:(Some (Rng.choose rng (Array.of_list pids))));
          record ()
        end
        else if Omega.State.depth st > 0 then begin
          Omega.State.pop st;
          record ()
        end
      done;
      List.for_all
        (fun key ->
          let states = Hashtbl.find_all visits key in
          List.for_all
            (fun (stored_a, _, dense_a) ->
              List.for_all
                (fun (_, row_b, dense_b) ->
                  Optimal.Fingerprint.dominates fp stored_a 0 row_b
                  = dense_leq dense_a dense_b)
                states)
            states)
        (List.sort_uniq compare (List.of_seq (Hashtbl.to_seq_keys visits))))

let test_memo_reduces_calls () =
  (* The memo only fires on searches that revisit scheduled sets — easy
     blocks (0-NOP optimum) alpha-beta-cut to nothing first.  Scan a
     deterministic population for a block where it fires; on the way,
     every block must satisfy the one-sided invariant that a memoized
     search never explores more than the unmemoized one (a cut subtree
     can contain no incumbent improvement — see optimal.ml). *)
  let module Generator = Pipesched_synth.Generator in
  let run dag memo =
    Optimal.schedule
      ~options:
        { Optimal.default_options with
          Optimal.lambda = 500_000;
          Optimal.memo = memo }
      machine dag
  in
  let rec find seed witnessed =
    if seed > 2030 then witnessed
    else begin
      let rng = Rng.create seed in
      let blk = Generator.block rng (Generator.sample_params rng) in
      let dag = Dag.of_block blk in
      let on = run dag memo_eager and off = run dag memo_off in
      check bool_t "both complete" true
        (on.Optimal.stats.Optimal.completed
         && off.Optimal.stats.Optimal.completed);
      check int_t "same optimum" off.Optimal.best.Omega.nops
        on.Optimal.best.Omega.nops;
      check bool_t "memo never explores more" true
        (on.Optimal.stats.Optimal.omega_calls
         <= off.Optimal.stats.Optimal.omega_calls);
      check int_t "disabled memo records nothing" 0
        (off.Optimal.stats.Optimal.memo_hits
         + off.Optimal.stats.Optimal.memo_entries);
      let witnessed =
        witnessed
        || (on.Optimal.stats.Optimal.memo_hits > 0
            && on.Optimal.stats.Optimal.memo_entries > 0
            && on.Optimal.stats.Optimal.omega_calls
               < off.Optimal.stats.Optimal.omega_calls)
      in
      find (seed + 1) witnessed
    end
  in
  check bool_t "memo fires and strictly saves calls on some block" true
    (find 2000 false)

let test_memo_activation_threshold () =
  (* Below the activation threshold no table is ever created, so a tiny
     search reports zero memo traffic even with the memo enabled. *)
  let rng = Rng.create 7 in
  let blk = random_block rng 6 in
  let dag = Dag.of_block blk in
  let o =
    Optimal.schedule
      ~options:
        { Optimal.default_options with
          Optimal.memo =
            { Optimal.default_memo with Optimal.memo_activation = 1_000_000 }
        }
      machine dag
  in
  check bool_t "completed" true o.Optimal.stats.Optimal.completed;
  check int_t "no memo traffic" 0
    (o.Optimal.stats.Optimal.memo_hits
     + o.Optimal.stats.Optimal.memo_misses
     + o.Optimal.stats.Optimal.memo_entries)

(* A capacity below 1 is refused as the search starts, whatever lambda
   is: not midway, by the first search to reach the activation
   threshold.  With the memo off the capacity is never used. *)
let test_memo_capacity_refused () =
  let dag = Dag.of_block (random_block (Rng.create 7) 6) in
  let options enabled =
    { Optimal.default_options with
      Optimal.lambda = 0;
      Optimal.memo =
        { Optimal.default_memo with
          Optimal.memo_enabled = enabled;
          Optimal.memo_capacity = 0 } }
  in
  Alcotest.check_raises "capacity 0 at lambda 0"
    (Invalid_argument "Optimal: memo_capacity must be >= 1") (fun () ->
      ignore (Optimal.schedule ~options:(options true) machine dag));
  let o = Optimal.schedule ~options:(options false) machine dag in
  check int_t "memo off: curtailed at once" 0
    o.Optimal.stats.Optimal.omega_calls

(* ------------------------------------------------------------------ *)
(* Multi-pipe search                                                   *)

(* Brute force over order x pipe assignment for small blocks. *)
let brute_force_multi m dag =
  let blk = Dag.block dag in
  let n = Dag.length dag in
  let candidates pos =
    match Machine.candidates m (Block.tuple_at blk pos).Tuple.op with
    | [] -> [ None ]
    | pids -> List.map (fun p -> Some p) pids
  in
  let rec assignments pos acc =
    if pos = n then [ Array.of_list (List.rev acc) ]
    else
      List.concat_map
        (fun c -> assignments (pos + 1) (c :: acc))
        (candidates pos)
  in
  let choices = assignments 0 [] in
  List.fold_left
    (fun best order ->
      List.fold_left
        (fun best choice ->
          min best
            (Omega.evaluate_with_pipes m dag ~order ~choice).Omega.nops)
        best choices)
    max_int (all_legal_orders dag)

let multi_matches_brute_force =
  qtest ~count:60 "multi-pipe search matches order x assignment brute force"
    (block_gen ~min_size:1 ~max_size:5 ()) block_print
    (fun blk ->
      let m = Machine.Presets.demo in
      let dag = Dag.of_block blk in
      let o, choice = Optimal.schedule_multi m dag in
      let brute = brute_force_multi m dag in
      (* Returned choice must reproduce the claimed cost. *)
      let replay =
        Omega.evaluate_with_pipes m dag ~order:o.Optimal.best.Omega.order
          ~choice
      in
      o.Optimal.best.Omega.nops = brute
      && (o.Optimal.best.Omega.nops = replay.Omega.nops
          || o.Optimal.stats.Optimal.schedules_completed = 0))

let multi_never_worse_than_single =
  qtest ~count:80 "multi-pipe optimum <= single-pipe optimum"
    (block_gen ~min_size:1 ~max_size:6 ()) block_print
    (fun blk ->
      let m = Machine.Presets.demo in
      let dag = Dag.of_block blk in
      let single = Optimal.schedule m dag in
      let multi, _ = Optimal.schedule_multi m dag in
      multi.Optimal.best.Omega.nops <= single.Optimal.best.Omega.nops)

let test_multi_uses_second_loader () =
  (* Two independent loads + their consumers: one loader forces serial
     loads on the demo machine only via enqueue=1, so both machines do
     fine; but two loads with a bigger enqueue benefit.  Use a machine
     with one slow-enqueue loader vs two. *)
  let one =
    Machine.make ~name:"one-loader"
      [| Pipe.make ~label:"loader" ~latency:2 ~enqueue:3 |]
      ~assign:[ (Op.Load, [ 0 ]) ]
  in
  let two =
    Machine.make ~name:"two-loaders"
      [| Pipe.make ~label:"loader" ~latency:2 ~enqueue:3;
         Pipe.make ~label:"loader" ~latency:2 ~enqueue:3 |]
      ~assign:[ (Op.Load, [ 0; 1 ]) ]
  in
  let blk =
    Block.of_tuples_exn
      [ tu ~id:1 Op.Load (Operand.Var "a") Operand.Null;
        tu ~id:2 Op.Load (Operand.Var "b") Operand.Null;
        tu ~id:3 Op.Add (Operand.Ref 1) (Operand.Ref 2);
        tu ~id:4 Op.Store (Operand.Var "c") (Operand.Ref 3) ]
  in
  let dag = Dag.of_block blk in
  let o1, _ = Optimal.schedule_multi one dag in
  let o2, choice2 = Optimal.schedule_multi two dag in
  check bool_t "second loader helps" true
    (o2.Optimal.best.Omega.nops < o1.Optimal.best.Omega.nops);
  (* Both loads end up on different pipes. *)
  check bool_t "loads spread" true (choice2.(0) <> choice2.(1))

(* ------------------------------------------------------------------ *)
(* Register-pressure-bounded search                                    *)

module Regalloc = Pipesched_regalloc

let feasible blk order registers =
  Result.is_ok
    (Regalloc.Alloc.allocate (Block.permute blk order) ~registers)

(* Minimum NOPs over all legal orders that allocate within [registers];
   None when no order is feasible. *)
let brute_force_bounded blk dag registers =
  List.fold_left
    (fun acc order ->
      if feasible blk order registers then
        let n = (Omega.evaluate machine dag ~order).Omega.nops in
        match acc with Some m -> Some (min m n) | None -> Some n
      else acc)
    None (all_legal_orders dag)

let bounded_matches_brute_force =
  qtest ~count:120 "bounded search matches the pressure-filtered optimum"
    QCheck2.Gen.(pair (block_gen ~min_size:1 ~max_size:7 ()) (int_range 1 4))
    (fun (blk, k) -> Printf.sprintf "registers=%d\n%s" k (block_print blk))
    (fun (blk, k) ->
      let dag = Dag.of_block blk in
      let brute = brute_force_bounded blk dag k in
      match (Optimal.schedule_bounded ~registers:k machine dag, brute) with
      | Error (), None -> true
      | Ok o, Some m ->
        o.Optimal.stats.Optimal.completed
        && o.Optimal.best.Omega.nops = m
        && feasible blk o.Optimal.best.Omega.order k
      | Ok _, None | Error (), Some _ -> false)

let bounded_never_beats_unbounded =
  qtest ~count:120 "pressure bound never improves the optimum"
    QCheck2.Gen.(pair (block_gen ~min_size:1 ~max_size:8 ()) (int_range 1 5))
    (fun (blk, k) -> Printf.sprintf "registers=%d\n%s" k (block_print blk))
    (fun (blk, k) ->
      let dag = Dag.of_block blk in
      let unbounded = (Optimal.schedule machine dag).Optimal.best.Omega.nops in
      match Optimal.schedule_bounded ~registers:k machine dag with
      | Error () -> true
      | Ok o -> o.Optimal.best.Omega.nops >= unbounded)

let bounded_with_ample_registers_is_unbounded =
  qtest ~count:120 "a large register file reproduces the plain optimum"
    (block_gen ~min_size:1 ~max_size:8 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let unbounded = (Optimal.schedule machine dag).Optimal.best.Omega.nops in
      match Optimal.schedule_bounded ~registers:64 machine dag with
      | Error () -> false
      | Ok o -> o.Optimal.best.Omega.nops = unbounded)

let test_bounded_reorders_to_fit () =
  (* The accumulation [(c1+c2)+c3] needs 3 registers in source order but
     only 2 when the search interleaves the constants with the adds —
     the reordering freedom §3.4 gains by allocating after scheduling. *)
  let blk =
    Block.of_tuples_exn
      [ tu ~id:1 Op.Const (Operand.Imm 1) Operand.Null;
        tu ~id:2 Op.Const (Operand.Imm 2) Operand.Null;
        tu ~id:3 Op.Const (Operand.Imm 3) Operand.Null;
        tu ~id:4 Op.Add (Operand.Ref 1) (Operand.Ref 2);
        tu ~id:5 Op.Add (Operand.Ref 4) (Operand.Ref 3);
        tu ~id:6 Op.Store (Operand.Var "x") (Operand.Ref 5) ]
  in
  let dag = Dag.of_block blk in
  check bool_t "source order needs 3" true
    (Result.is_error (Regalloc.Alloc.allocate blk ~registers:2));
  match Optimal.schedule_bounded ~registers:2 machine dag with
  | Ok o -> check bool_t "found a 2-register order" true
              (feasible blk o.Optimal.best.Omega.order 2)
  | Error () -> Alcotest.fail "a 2-register order exists"

let test_bounded_infeasible () =
  (* Three values combined pairwise: whichever combination goes first,
     both its operands still have later uses, so 2 operands + 1 result
     are simultaneously live in every legal order. *)
  let blk =
    Block.of_tuples_exn
      [ tu ~id:1 Op.Const (Operand.Imm 1) Operand.Null;
        tu ~id:2 Op.Const (Operand.Imm 2) Operand.Null;
        tu ~id:3 Op.Const (Operand.Imm 3) Operand.Null;
        tu ~id:4 Op.Xor (Operand.Ref 1) (Operand.Ref 2);
        tu ~id:5 Op.Xor (Operand.Ref 1) (Operand.Ref 3);
        tu ~id:6 Op.Xor (Operand.Ref 2) (Operand.Ref 3);
        tu ~id:7 Op.Store (Operand.Var "x") (Operand.Ref 4);
        tu ~id:8 Op.Store (Operand.Var "y") (Operand.Ref 5);
        tu ~id:9 Op.Store (Operand.Var "z") (Operand.Ref 6) ]
  in
  let dag = Dag.of_block blk in
  (match Optimal.schedule_bounded ~registers:2 machine dag with
   | Error () -> ()
   | Ok _ -> Alcotest.fail "claimed feasibility with 2 registers");
  match Optimal.schedule_bounded ~registers:3 machine dag with
  | Ok _ -> ()
  | Error () -> Alcotest.fail "three registers are enough"

let test_bounded_trades_nops_for_registers () =
  (* Hiding load latency wants both loads in flight (2 registers just for
     loads); with a tight file the scheduler must serialize and stall. *)
  let blk =
    Block.of_tuples_exn
      [ tu ~id:1 Op.Load (Operand.Var "a") Operand.Null;
        tu ~id:2 Op.Load (Operand.Var "b") Operand.Null;
        tu ~id:3 Op.Neg (Operand.Ref 1) Operand.Null;
        tu ~id:4 Op.Neg (Operand.Ref 2) Operand.Null;
        tu ~id:5 Op.Store (Operand.Var "x") (Operand.Ref 3);
        tu ~id:6 Op.Store (Operand.Var "y") (Operand.Ref 4) ]
  in
  let dag = Dag.of_block blk in
  let nops k =
    match Optimal.schedule_bounded ~registers:k machine dag with
    | Ok o -> o.Optimal.best.Omega.nops
    | Error () -> Alcotest.fail "feasible schedule exists"
  in
  check bool_t "tight file costs stalls" true (nops 1 > nops 2)

let test_bounded_rejects_zero_registers () =
  let dag = Dag.of_block (Block.of_tuples_exn []) in
  Alcotest.check_raises "zero registers"
    (Invalid_argument "Optimal.schedule_bounded: registers must be >= 1")
    (fun () -> ignore (Optimal.schedule_bounded ~registers:0 machine dag))

(* Regression for the kernel-study finding: the multi-pipe search on the
   demo machine does not finish dot4 under the paper's mu(Phi)-only bound
   (>10M calls), but the critical-path bound + strong equivalence prove
   the optimum in a few thousand. *)
let test_multi_extensions_tame_dot4 () =
  let k = Option.get (Pipesched_synth.Kernels.find "dot4") in
  let blk =
    Pipesched_frontend.Compile.compile k.Pipesched_synth.Kernels.source
  in
  let dag = Dag.of_block blk in
  let demo = Machine.Presets.demo in
  let strong =
    { Optimal.default_options with
      Optimal.lower_bound = Optimal.Critical_path;
      Optimal.strong_equivalence = true;
      Optimal.lambda = 200_000 }
  in
  let o, _ = Optimal.schedule_multi ~options:strong demo dag in
  check bool_t "completes" true o.Optimal.stats.Optimal.completed;
  check bool_t "well under budget" true
    (o.Optimal.stats.Optimal.omega_calls < 50_000);
  check int_t "proves 7 NOPs" 7 o.Optimal.best.Omega.nops;
  (* Paper-mode bound with the same budget does not finish. *)
  let paper =
    { Optimal.default_options with Optimal.lambda = 200_000 }
  in
  let p, _ = Optimal.schedule_multi ~options:paper demo dag in
  check bool_t "paper bound curtails" false p.Optimal.stats.Optimal.completed

let test_verify_optimal_detects_suboptimal () =
  let rng = Rng.create 1234 in
  (* Find a block whose source order is strictly suboptimal. *)
  let rec find n =
    if n = 0 then None
    else
      let blk = random_block rng 8 in
      let dag = Dag.of_block blk in
      let o = Optimal.schedule machine dag in
      if o.Optimal.initial.Omega.nops > o.Optimal.best.Omega.nops then
        Some (dag, o)
      else find (n - 1)
  in
  match find 200 with
  | None -> Alcotest.fail "could not build a suboptimal example"
  | Some (dag, o) ->
    check bool_t "optimal outcome verifies" true
      (Optimal.verify_optimal machine dag o);
    let fake = { o with Optimal.best = o.Optimal.initial } in
    check bool_t "suboptimal outcome rejected" false
      (Optimal.verify_optimal machine dag fake)

(* ------------------------------------------------------------------ *)
(* The portfolio's entry point, outside the rounds                     *)

let shared_case_gen =
  QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 12))

let shared_case_print (seed, n) = Printf.sprintf "seed=%d n=%d" seed n

(* A random machine and block drawn from one seed. *)
let shared_case (seed, n) =
  let rng = Rng.create seed in
  let m = Pipesched_synth.Generator.random_machine rng in
  (m, Dag.of_block (random_block rng n))

(* A small lambda, so both completed and curtailed searches occur. *)
let shared_options = { Optimal.default_options with Optimal.lambda = 2_000 }

let shared_alone_is_schedule =
  qtest ~count:200 "schedule_shared with no peer is schedule" shared_case_gen
    shared_case_print (fun case ->
      let m, dag = shared_case case in
      let o = Optimal.schedule ~options:shared_options m dag in
      let s, proved =
        Optimal.schedule_shared ~options:shared_options ~bound:max_int m dag
      in
      let timeless st = { st with Optimal.elapsed_s = 0.0 } in
      s.Optimal.best = o.Optimal.best
      && s.Optimal.initial = o.Optimal.initial
      && timeless s.Optimal.stats = timeless o.Optimal.stats
      && proved
         = (if o.Optimal.stats.Optimal.completed then
              Some o.Optimal.best.Omega.nops
            else None))

(* The bound is exclusive: given the optimum as its bound, the search
   proves it without returning a schedule that only ties it, so the
   witness stays the caller's and [best] is the seed. *)
let shared_proves_peer_optimum =
  qtest ~count:200 "schedule_shared proves an optimum a peer found first"
    shared_case_gen shared_case_print (fun case ->
      let m, dag = shared_case case in
      let o = Optimal.schedule m dag in
      QCheck2.assume o.Optimal.stats.Optimal.completed;
      let opt = o.Optimal.best.Omega.nops in
      let s, proved = Optimal.schedule_shared ~bound:opt m dag in
      proved = Some opt
      && s.Optimal.best.Omega.nops >= opt
      && s.Optimal.best = s.Optimal.initial)

let () =
  Alcotest.run "core"
    [ ( "optimality",
        [ optimal_matches_brute_force;
          optimal_on_deep_machine;
          optimal_result_is_legal;
          optimal_never_worse_than_seed;
          seed_choice_does_not_change_optimum;
          Alcotest.test_case "figure 3 block" `Quick test_fig3_optimal;
          Alcotest.test_case "[5c] counterexample" `Quick
            test_5c_counterexample;
          Alcotest.test_case "entry points pinned" `Quick
            test_entry_points_pinned ] );
      ( "curtailment",
        [ Alcotest.test_case "lambda stops the search" `Quick
            test_lambda_curtails;
          lambda_monotone;
          Alcotest.test_case "deadline anytime" `Quick test_deadline_anytime;
          Alcotest.test_case "no deadline, no clock" `Quick
            test_no_deadline_reads_no_clock;
          Alcotest.test_case "stats consistency" `Quick
            test_stats_consistency;
          Alcotest.test_case "an Omega call allocates nothing" `Quick
            test_omega_call_allocates_nothing;
          Alcotest.test_case "setup stays in the minor heap" `Quick
            test_setup_stays_in_minor_heap ] );
      ( "pruning",
        [ pruning_off_matches_pruning_on; alpha_beta_reduces_calls ] );
      ( "memoization",
        [ memo_preserves_optimum;
          memo_preserves_optimum_multi;
          memo_preserves_bounded_result;
          Alcotest.test_case "memo fires and reduces calls" `Quick
            test_memo_reduces_calls;
          Alcotest.test_case "activation threshold" `Quick
            test_memo_activation_threshold;
          fingerprint_matches_dense_model;
          Alcotest.test_case "capacity below 1 refused" `Quick
            test_memo_capacity_refused ] );
      ( "pressure-bounded",
        [ bounded_matches_brute_force;
          bounded_never_beats_unbounded;
          bounded_with_ample_registers_is_unbounded;
          Alcotest.test_case "reorders to fit the file" `Quick
            test_bounded_reorders_to_fit;
          Alcotest.test_case "infeasible detection" `Quick
            test_bounded_infeasible;
          Alcotest.test_case "NOPs vs registers trade-off" `Quick
            test_bounded_trades_nops_for_registers;
          Alcotest.test_case "rejects zero registers" `Quick
            test_bounded_rejects_zero_registers ] );
      ( "multi-pipe",
        [ multi_matches_brute_force;
          multi_never_worse_than_single;
          Alcotest.test_case "second loader helps" `Quick
            test_multi_uses_second_loader;
          Alcotest.test_case "extensions tame dot4" `Quick
            test_multi_extensions_tame_dot4;
          Alcotest.test_case "verify_optimal" `Quick
            test_verify_optimal_detects_suboptimal ] );
      ( "shared incumbent",
        [ shared_alone_is_schedule; shared_proves_peer_optimum ] ) ]
