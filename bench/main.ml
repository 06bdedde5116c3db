(* Benchmark harness: one Bechamel micro-benchmark per table/figure
   workload of the paper, followed by the full regeneration of every
   table and figure (paper-vs-measured).  Besides the human-readable
   output, the estimates are written to BENCH_results.json so the perf
   trajectory is machine-checkable across PRs.

   Run with:  dune exec bench/main.exe -- [--jobs N]
   Environment:
     PIPESCHED_STUDY_COUNT   blocks in the main study (default 16000)
     PIPESCHED_BENCH_QUOTA   seconds per micro-benchmark (default 0.5)
     PIPESCHED_JOBS          worker domains for the study (default: the
                             recommended domain count; --jobs wins) *)

(* Alias before [open Toolkit], which shadows [Monotonic_clock] with the
   bechamel measure of the same name. *)
module Mclock = Monotonic_clock

open Bechamel
open Toolkit
open Pipesched_ir
open Pipesched_machine
open Pipesched_sched
open Pipesched_core
module Rng = Pipesched_prelude.Rng
module Generator = Pipesched_synth.Generator
module Harness = Pipesched_harness

let machine = Machine.Presets.simulation

(* Deterministic fixture: a block whose optimized size is exactly [n]. *)
let block_of_size seed n =
  let rng = Rng.create seed in
  let rec go attempts best =
    if attempts = 0 then snd (Option.get best)
    else
      let blk = Generator.block rng (Generator.sample_params rng) in
      let d = abs (Block.length blk - n) in
      let best =
        match best with
        | Some (d0, _) when d0 <= d -> best
        | _ -> Some (d, blk)
      in
      if d = 0 then blk else go (attempts - 1) best
  in
  go 3000 None

let dag_of n = Dag.of_block (block_of_size (1000 + n) n)

let dag10 = dag_of 10
let dag15 = dag_of 15
let dag16 = dag_of 16
let dag20 = dag_of 20
let dag30 = dag_of 30
let dag11 = dag_of 11

(* The portfolio's cp-favoured hard block: 8 mutually independent
   multiplies interleaved with 6 independent loads.  Wide independent
   blocks are the hard case for the branch-and-bound — the free-slot
   equivalence pruning cannot collapse piped instructions, so the tree
   is genuinely large — while cp proves it in well under a millisecond. *)
let cp_favoured_weave_dag =
  let mul i id = Tuple.make ~id Op.Mul (Operand.Imm i) (Operand.Imm (i + 1)) in
  let load j id =
    Tuple.make ~id Op.Load (Operand.Var (Printf.sprintf "v%d" j)) Operand.Null
  in
  let rec weave a b =
    match (a, b) with
    | [], r | r, [] -> r
    | x :: xs, y :: ys -> x :: y :: weave xs ys
  in
  let seq =
    weave
      (List.init 8 (fun i -> `M (i + 1)))
      (List.init 6 (fun j -> `L (j + 1)))
  in
  Dag.of_block
    (Block.of_tuples_exn
       (List.mapi
          (fun k x ->
            let id = k + 1 in
            match x with `M i -> mul i id | `L j -> load j id)
          seq))

(* The unseeded search (Source_order) has to discover the optimum on its
   own, which is what makes the incumbent sharing measurable; lambda is
   set well above the ~8M calls the branch-and-bound needs, so it
   completes. *)
let cp_favoured_weave_options =
  { Optimal.default_options with
    Optimal.lambda = 30_000_000;
    Optimal.seed = List_sched.Source_order }

let order15 = List_sched.schedule List_sched.Max_distance dag15

let search ?(options = Optimal.default_options) dag () =
  ignore (Optimal.schedule ~options machine dag)

let with_options o =
  { Optimal.default_options with Optimal.lambda = 50_000 } |> o

let tests =
  [ (* §2.3: the cost of one Omega call on a typical 15-instruction
       block (the paper measured 0.12 ms on a Gould NP1). *)
    Test.make ~name:"omega/evaluate-n15"
      (Staged.stage (fun () ->
           ignore (Omega.evaluate machine dag15 ~order:order15)));
    (* Table 1 workloads: the proposed pruned search, and the legal-only
       enumeration it is compared against. *)
    Test.make ~name:"table1/proposed-search-n16"
      (Staged.stage (search dag16));
    Test.make ~name:"table1/legal-only-count-n11"
      (Staged.stage (fun () ->
           ignore (Baselines.count_legal_schedules ~cutoff:200_000 dag11)));
    (* Table 7: one full study step — generate, compile, schedule. *)
    Test.make ~name:"table7/study-step"
      (Staged.stage
         (let rng = Rng.create 7 in
          fun () ->
            let blk = Generator.block rng (Generator.sample_params rng) in
            ignore (Harness.Study.run_block machine blk)));
    (* Figures 1 and 6: search cost across block sizes. *)
    Test.make ~name:"fig1-fig6/search-n10" (Staged.stage (search dag10));
    Test.make ~name:"fig1-fig6/search-n20" (Staged.stage (search dag20));
    Test.make ~name:"fig1-fig6/search-n30" (Staged.stage (search dag30));
    (* Figure 4: the list-schedule seed (initial NOPs) vs the search. *)
    Test.make ~name:"fig4/list-schedule-n20"
      (Staged.stage (fun () ->
           ignore (List_sched.schedule List_sched.Max_distance dag20)));
    (* Figure 5: the synthetic generator itself. *)
    Test.make ~name:"fig5/generate-block"
      (Staged.stage
         (let rng = Rng.create 5 in
          fun () ->
            ignore (Generator.block rng (Generator.sample_params rng))));
    (* Figure 7: a curtailed search (lambda = 1000). *)
    Test.make ~name:"fig7/curtailed-search-n30"
      (Staged.stage
         (search
            ~options:{ Optimal.default_options with Optimal.lambda = 1_000 }
            dag30));
    (* Ablations (DESIGN.md §5): the two optimality-preserving extensions
       and the machine-aware seed. *)
    Test.make ~name:"ablation/critical-path-bound-n20"
      (Staged.stage
         (search
            ~options:
              (with_options (fun o ->
                   { o with Optimal.lower_bound = Optimal.Critical_path }))
            dag20));
    Test.make ~name:"ablation/strong-equivalence-n20"
      (Staged.stage
         (search
            ~options:
              (with_options (fun o ->
                   { o with Optimal.strong_equivalence = true }))
            dag20));
    Test.make ~name:"ablation/no-list-seed-n20"
      (Staged.stage
         (search
            ~options:
              (with_options (fun o ->
                   { o with Optimal.seed = List_sched.Source_order }))
            dag20));
    (* Dominance memoization on a deep search: same block, memo forced
       on from the first Omega call vs fully off. *)
    Test.make ~name:"memo/search-n30-on"
      (Staged.stage
         (search
            ~options:
              (with_options (fun o ->
                   { o with
                     Optimal.memo =
                       { o.Optimal.memo with Optimal.memo_activation = 0 } }))
            dag30));
    Test.make ~name:"memo/search-n30-off"
      (Staged.stage
         (search
            ~options:
              (with_options (fun o ->
                   { o with
                     Optimal.memo =
                       { o.Optimal.memo with Optimal.memo_enabled = false } }))
            dag30));
    (* Baseline one-pass schedulers. *)
    Test.make ~name:"baseline/greedy-n20"
      (Staged.stage (fun () -> ignore (Baselines.greedy machine dag20)));
    Test.make ~name:"baseline/gross-n20"
      (Staged.stage (fun () -> ignore (Baselines.gross machine dag20)));
    (* Multi-pipe extension on the demo machine. *)
    Test.make ~name:"extension/multi-pipe-n10"
      (Staged.stage (fun () ->
           ignore (Optimal.schedule_multi Machine.Presets.demo dag10)));
    (* Windowed scheduling of a large block (§5.3). *)
    Test.make ~name:"extension/windowed-w8-n30"
      (Staged.stage (fun () ->
           ignore (Windowed.schedule ~window:8 machine dag30)));
    (* Region scheduling with entry-state threading (footnote 1). *)
    Test.make ~name:"extension/region-3-blocks"
      (Staged.stage
         (let dags = [ dag10; dag_of 12; dag_of 9 ] in
          fun () -> ignore (Region.schedule machine dags)));
    (* Whole-program compilation with control flow (§6). *)
    Test.make ~name:"extension/cflow-compile+schedule"
      (Staged.stage
         (let prog =
            Pipesched_synth.Generator.structured_program (Rng.create 44)
              { Pipesched_synth.Generator.statements = 12; variables = 5;
                constants = 3 }
              ~depth:2
          in
          fun () ->
            let cfg =
              Pipesched_cflow.Cfg.merge_chains
                (Pipesched_cflow.Lower.lower prog)
            in
            ignore (Pipesched_cflow.Schedule.schedule machine cfg)))
  ]

let run_benchmarks () =
  let quota =
    match Sys.getenv_opt "PIPESCHED_BENCH_QUOTA" with
    | Some s -> float_of_string s
    | None -> 0.5
  in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second quota)
      ~kde:None ~stabilize:true ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Printf.printf
    "Micro-benchmarks (one per table/figure workload; ns per run):\n";
  Printf.printf "  %-36s %14s\n" "benchmark" "ns/run";
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            estimates := (name, est) :: !estimates;
            Printf.printf "  %-36s %14.1f\n" name est
          | Some _ | None -> Printf.printf "  %-36s %14s\n" name "n/a")
        analyzed)
    tests;
  Printf.printf "\n%!";
  List.rev !estimates

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                            *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Deterministic evidence that the dominance memo is a pure search
   accelerator: the deep fixture searched with the memo forced on vs
   off must agree on the optimum while spending fewer Omega calls. *)
let memo_evidence () =
  let outcome memo =
    Optimal.schedule
      ~options:
        { Optimal.default_options with Optimal.lambda = 50_000;
          Optimal.memo = memo }
      machine dag30
  in
  let on =
    outcome { Optimal.default_memo with Optimal.memo_activation = 0 }
  in
  let off =
    outcome { Optimal.default_memo with Optimal.memo_enabled = false }
  in
  if on.Optimal.best.Omega.nops <> off.Optimal.best.Omega.nops then
    failwith "memo changed the reported optimum on the n30 fixture";
  (on, off)

(* Anytime evidence: with a 50 ms wall-clock deadline and an effectively
   unlimited lambda, every entry point must come back promptly with a
   complete legal incumbent; the recorded status says whether the
   deadline (rather than lambda) is what stopped the search.  The
   fixture is 36 mutually independent, pairwise distinct instructions —
   a search space equivalence pruning cannot collapse, so no budget this
   side of the deadline proves the optimum. *)
let deadline_evidence () =
  let deadline_s = 0.05 in
  let hard_dag =
    let ops = [| Op.Load; Op.Mul; Op.Div; Op.Mod |] in
    Dag.of_block
      (Block.of_tuples_exn
         (List.init 36 (fun i ->
              match ops.(i mod 4) with
              | Op.Load ->
                Tuple.make ~id:(i + 1) Op.Load
                  (Operand.Var (Printf.sprintf "v%d" i))
                  Operand.Null
              | op ->
                Tuple.make ~id:(i + 1) op (Operand.Imm (i + 1))
                  (Operand.Imm (i + 2)))))
  in
  let options =
    { Optimal.default_options with
      Optimal.lambda = max_int;
      Optimal.deadline_s = Some deadline_s }
  in
  let timed f =
    let t0 = Mclock.now () in
    let status, nops = f () in
    let wall_s = Int64.to_float (Int64.sub (Mclock.now ()) t0) /. 1e9 in
    (status, nops, wall_s)
  in
  ( deadline_s,
    [ ("schedule",
       timed (fun () ->
           let o = Optimal.schedule ~options machine hard_dag in
           (o.Optimal.stats.Optimal.status, o.Optimal.best.Omega.nops)));
      ("schedule_bounded",
       timed (fun () ->
           match
             Optimal.schedule_bounded ~options ~registers:16 machine hard_dag
           with
           | Ok o -> (o.Optimal.stats.Optimal.status, o.Optimal.best.Omega.nops)
           | Error () -> (Pipesched_prelude.Budget.Curtailed_deadline, -1)));
      ("windowed",
       timed (fun () ->
           let o = Windowed.schedule ~options ~window:20 machine hard_dag in
           (o.Windowed.status, o.Windowed.best.Omega.nops))) ] )

(* Portfolio evidence (DESIGN.md §14), two claims:

   (1) Corpus race: both exact backends over a seeded mixed corpus
   (alternating the simulation machine with random machines).  The
   backends search the same space under the same Omega semantics, so a
   proved-optimum disagreement is a solver bug and fails the bench
   outright; and each backend must prove-first on at least one block,
   or racing them would be pointless.

   (2) Hard-block wall clock, over a committed pair chosen so each
   backend dominates one block: the cp-favored mul8-load6 weave (cp
   proves in sub-ms where bnb burns seconds) and the bnb-favored
   gen-seed-28 block (bnb proves in ~0.2s where cp runs to its
   deadline).  No fixed backend choice is right for both — that is the
   point of the portfolio — so the gated ratio is total portfolio wall
   over the pair versus the better FIXED single backend (the oracle
   per-block minimum is unreachable on one core, where the two race
   domains timeshare).  The inline CP presolve keeps the portfolio at
   epsilon over bare cp on cp-easy blocks.

   PIPESCHED_PORTFOLIO_COUNT sets the corpus size (default 200). *)
type pf_hard = {
  ph_name : string;
  ph_bnb : float;
  ph_cp : float;
  ph_portfolio : float;
}

type portfolio_evidence = {
  pf_corpus : int;
  pf_wins_bnb : int;
  pf_wins_cp : int;
  pf_neither : int;
  pf_proved : int;
  pf_hard : pf_hard list;
  pf_total_bnb : float;
  pf_total_cp : float;
  pf_total_portfolio : float;
  pf_overhead : float;
      (* total_portfolio / min(total_bnb, total_cp) over the hard pair *)
}

let portfolio_evidence () =
  let corpus =
    match Sys.getenv_opt "PIPESCHED_PORTFOLIO_COUNT" with
    | Some s -> int_of_string s
    | None -> 200
  in
  let options = { Optimal.default_options with Optimal.lambda = 50_000 } in
  let wins_bnb = ref 0 and wins_cp = ref 0 and neither = ref 0 in
  let proved = ref 0 and disagreements = ref 0 in
  for i = 1 to corpus do
    let m =
      if i mod 2 = 0 then machine
      else Generator.random_machine (Rng.create ((2026 + i) * 7919))
    in
    let dag = Dag.of_block (Generator.of_seed (2026 + i)) in
    match Portfolio.run ~options m dag with
    | o ->
      (match o.Portfolio.winner with
       | Some Portfolio.Bnb -> incr wins_bnb
       | Some Portfolio.Cp -> incr wins_cp
       | None -> incr neither);
      if o.Portfolio.proved <> None then incr proved
    | exception Portfolio.Disagreement msg ->
      incr disagreements;
      prerr_endline ("portfolio disagreement: " ^ msg)
  done;
  if !disagreements > 0 then
    failwith
      (Printf.sprintf "portfolio: %d bnb-vs-cp disagreements" !disagreements);
  if !wins_bnb = 0 || !wins_cp = 0 then
    failwith
      (Printf.sprintf
         "portfolio: a backend never proved first (bnb %d, cp %d of %d) — \
          the race is pointless on this corpus"
         !wins_bnb !wins_cp corpus);
  let timed f =
    let best = ref infinity in
    for _rep = 1 to 2 do
      let t0 = Mclock.now () in
      f ();
      let s = Int64.to_float (Int64.sub (Mclock.now ()) t0) /. 1e9 in
      if s < !best then best := s
    done;
    !best
  in
  let backend name options m dag =
    let (module B : Scheduler.S) = Option.get (Scheduler.find name) in
    timed (fun () -> ignore (B.schedule ~options m dag))
  in
  let hard_pair =
    [
      ("weave-mul8-load6-n14", machine, cp_favoured_weave_dag,
       cp_favoured_weave_options);
      (let s = 28 in
       ( Printf.sprintf "gen-seed-%d-n26" s,
         Generator.random_machine (Rng.create (s * 7919)),
         Dag.of_block (Generator.of_seed s),
         { Optimal.default_options with
           Optimal.lambda = 2_000_000;
           Optimal.deadline_s = Some 3.0 } ));
    ]
  in
  let pf_hard =
    List.map
      (fun (ph_name, m, dag, options) ->
        let ph_bnb = backend "bnb" options m dag in
        let ph_cp = backend "cp" options m dag in
        let ph_portfolio = backend "portfolio" options m dag in
        Printf.printf
          "Portfolio hard block %s: bnb %.3fs cp %.3fs portfolio %.3fs\n%!"
          ph_name ph_bnb ph_cp ph_portfolio;
        { ph_name; ph_bnb; ph_cp; ph_portfolio })
      hard_pair
  in
  let total f = List.fold_left (fun acc h -> acc +. f h) 0. pf_hard in
  let pf_total_bnb = total (fun h -> h.ph_bnb) in
  let pf_total_cp = total (fun h -> h.ph_cp) in
  let pf_total_portfolio = total (fun h -> h.ph_portfolio) in
  let pf_overhead =
    pf_total_portfolio /. Float.min pf_total_bnb pf_total_cp
  in
  Printf.printf
    "Portfolio: %d blocks raced, 0 disagreements; first proof bnb %d / cp \
     %d / neither %d; hard pair bnb %.3fs cp %.3fs portfolio %.3fs \
     (%.2fx the best fixed single backend)\n%!"
    corpus !wins_bnb !wins_cp !neither pf_total_bnb pf_total_cp
    pf_total_portfolio pf_overhead;
  {
    pf_corpus = corpus;
    pf_wins_bnb = !wins_bnb;
    pf_wins_cp = !wins_cp;
    pf_neither = !neither;
    pf_proved = !proved;
    pf_hard;
    pf_total_bnb;
    pf_total_cp;
    pf_total_portfolio;
    pf_overhead;
  }

(* Serving evidence: a duplicate-heavy request stream (90% of requests
   are isomorphic re-presentations of an earlier block) replayed against
   the scheduling service twice — cache disabled ("cold": every request
   is a fresh search) and cache enabled ("hot": repeats answered from
   the canonical-form LRU).  Because both paths render the stored
   canonical solution through the request's own permutation, the two
   response streams must be byte-identical — asserted here, gated in
   CI. *)
let server_evidence () =
  let module Server = Pipesched_serve.Server in
  let module Json = Pipesched_prelude.Json in
  let uniques = 20 and copies = 10 in
  (* Isomorphic re-presentation k of a block: fresh ids, renamed
     virtual registers, shifted immediates — canonically equal, not
     textually equal. *)
  let relabel k blk =
    Block.of_tuples_exn
      (List.map
         (fun (tu : Tuple.t) ->
           let operand = function
             | Operand.Ref id -> Operand.Ref (id + (10_000 * k))
             | Operand.Var s -> Operand.Var (Printf.sprintf "%s~%d" s k)
             | Operand.Imm i -> Operand.Imm (i + k)
             | Operand.Null -> Operand.Null
           in
           Tuple.make
             ~id:(tu.Tuple.id + (10_000 * k))
             tu.Tuple.op (operand tu.Tuple.a) (operand tu.Tuple.b))
         (Array.to_list (Block.tuples blk)))
  in
  let rng = Rng.create 2026 in
  (* Moderately hard uniques: each miss must cost a real search (a few
     ms), while a hit costs one canonicalization + render (~50 us) —
     otherwise the hot/cold ratio just measures JSON plumbing.  Blocks
     are screened deterministically: kept only if the default search
     completes (curtailed results are never cached) after a nontrivial
     number of Omega calls. *)
  let base =
    let acc = ref [] and kept = ref 0 and drawn = ref 0 in
    while !kept < uniques && !drawn < 50 * uniques do
      incr drawn;
      let blk =
        Generator.block ~freq:Pipesched_synth.Frequency.mul_heavy rng
          { Generator.statements = 15 + Rng.int rng 4;
            variables = 5 + Rng.int rng 3;
            constants = 2 + Rng.int rng 2 }
      in
      let stats =
        (Optimal.schedule machine (Dag.of_block blk)).Optimal.stats
      in
      if stats.Optimal.completed && stats.Optimal.omega_calls >= 2000 then begin
        incr kept;
        acc := blk :: !acc
      end
    done;
    if !kept < uniques then failwith "server: too few qualifying fixtures";
    List.rev !acc
  in
  (* Interleave the classes so hits and misses mix the way a serving
     workload would, rather than solving everything up front. *)
  let requests =
    List.concat
      (List.init copies (fun k ->
           List.mapi
             (fun i blk ->
               let id = (k * uniques) + i in
               Json.to_string
                 (Json.Assoc
                    [ ("id", Json.Int id);
                      ("machine", Json.String "simulation");
                      ("block",
                       Json.String (Block.to_string (relabel k blk))) ]))
             base))
  in
  let n = List.length requests in
  let replay server =
    let lat = ref [] in
    let responses =
      List.map
        (fun line ->
          let t0 = Mclock.now () in
          let r = Server.handle_line server line in
          let ms =
            Int64.to_float (Int64.sub (Mclock.now ()) t0) /. 1e6
          in
          lat := ms :: !lat;
          r)
        requests
    in
    (responses, List.rev !lat)
  in
  let cold_server = Server.create ~cache_capacity:0 () in
  let t0 = Mclock.now () in
  let cold_responses, _ = replay cold_server in
  let cold_s = Int64.to_float (Int64.sub (Mclock.now ()) t0) /. 1e9 in
  let hot_server = Server.create ~cache_capacity:4096 () in
  let t0 = Mclock.now () in
  let hot_responses, hot_lat = replay hot_server in
  let hot_s = Int64.to_float (Int64.sub (Mclock.now ()) t0) /. 1e9 in
  if not (List.for_all2 String.equal cold_responses hot_responses) then
    failwith "server: cached response differed from a fresh solve";
  List.iter
    (fun r ->
      if not (Json.member "ok" (Result.get_ok (Json.parse r)) = Some (Json.Bool true))
      then failwith ("server: request failed: " ^ r))
    hot_responses;
  let hits = Server.cache_hits hot_server in
  let misses = Server.cache_misses hot_server in
  let hit_rate = float_of_int hits /. float_of_int n in
  let evidence =
    [ ("requests", float_of_int n);
      ("unique_blocks", float_of_int uniques);
      ("hit_rate", hit_rate);
      ("hits", float_of_int hits);
      ("misses", float_of_int misses);
      ("req_per_s_cold", float_of_int n /. cold_s);
      ("req_per_s_hot", float_of_int n /. hot_s);
      ("speedup_hot_vs_cold", cold_s /. hot_s);
      ("p50_ms", Harness.Stats.percentile 50.0 hot_lat);
      ("p99_ms", Harness.Stats.percentile 99.0 hot_lat) ]
  in
  Printf.printf
    "Server: %d requests (%d unique), hit rate %.2f, %.0f req/s hot vs \
     %.0f req/s cold (%.1fx), byte-identical responses\n%!"
    n uniques hit_rate
    (float_of_int n /. hot_s)
    (float_of_int n /. cold_s)
    (cold_s /. hot_s);
  evidence

let bench_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then (
          close_in_noerr ic;
          let digits =
            String.to_seq line
            |> Seq.filter (fun c -> c >= '0' && c <= '9')
            |> String.of_seq
          in
          try int_of_string digits with _ -> 0)
        else go ()
      | exception End_of_file ->
        close_in_noerr ic;
        0
    in
    go ()
  with Sys_error _ -> 0

(* Overload evidence: the same admission/supervision/degradation
   machinery the real daemon binary runs, driven in-process at roughly
   three times its measured capacity (estimated from the healthy run's
   fresh-solve p50, two workers).  Three properties of the overload
   contract are gated outright:

   - every request gets exactly one answer (unanswered == 0) — shed
     requests are answered inline by the certified list scheduler
     (--degrade), never silently dropped;
   - resident memory stays bounded (max_rss_ratio <= 2.0 across the
     run) — the 64-entry queue bound is what makes this hold at any
     offered rate;
   - degraded answers are cheap: their p99 under full overload stays
     under the healthy-mode optimal-solve p99 over the same block
     distribution (measured by a quiet serial probe), i.e. shedding to
     the list scheduler really is graceful degradation, not a slower
     path. *)
let overload_evidence ~healthy:(_ : Harness.Loadgen.report) =
  let module Server = Pipesched_serve.Server in
  let module Daemon = Pipesched_serve.Daemon in
  let module Loadgen = Harness.Loadgen in
  let module Json = Pipesched_prelude.Json in
  let stat stages field stage =
    List.fold_left
      (fun acc (s : Loadgen.stage_summary) ->
        if s.Loadgen.stage = stage then field s else acc)
      0.0 stages
  in
  (* Quiet probe: solve a sample of the very same seeded fresh-block
     stream serially on an idle server.  Its mean fixes the capacity
     estimate; its p99 is the healthy-mode optimal baseline the
     degraded path must beat. *)
  let probe_plan =
    Loadgen.plan ~hot:8 ~lambda:200_000 ~dup_rate:0.0 ~seed:2027
      ~shape:Loadgen.Soak ~rps:100.0 ~duration:2.0 ()
  in
  let probe_server = Server.create ~cache_capacity:4096 () in
  let probe_lat =
    Array.map
      (fun (r : Loadgen.request) ->
        let t0 = Unix.gettimeofday () in
        ignore (Server.handle_line probe_server r.Loadgen.line);
        1000.0 *. (Unix.gettimeofday () -. t0))
      probe_plan.Loadgen.requests
  in
  let probe_lat = Array.to_list probe_lat in
  let healthy_mean_ms =
    List.fold_left ( +. ) 0.0 probe_lat
    /. float_of_int (List.length probe_lat)
  in
  let healthy_optimal_p99 = Harness.Stats.percentile 99.0 probe_lat in
  (* One solver domain: capacity is deliberately constrained so the
     3x-overload point is reachable and reproducible on 2-core CI
     runners, and so solver-domain GC pressure does not swamp the
     inline degraded path whose latency is being gated. *)
  let jobs = 1 in
  let capacity_rps =
    float_of_int jobs *. 1000.0 /. Float.max 0.05 healthy_mean_ms
  in
  let offered_rps = 3.0 *. capacity_rps in
  let duration = Float.min 2.0 (2000.0 /. offered_rps) in
  let plan =
    Loadgen.plan ~hot:8 ~lambda:200_000 ~dup_rate:0.0 ~seed:2028
      ~shape:Loadgen.Soak ~rps:offered_rps ~duration ()
  in
  let n = Array.length plan.Loadgen.requests in
  let rss0 = Float.max 1.0 (float_of_int (bench_rss_kb ())) in
  let server = Server.create ~cache_capacity:4096 ~degrade:true () in
  let st = Daemon.create ~max_queue:64 ~degrade:true server in
  let o = Loadgen.outcome () in
  let lock = Mutex.create () in
  let answered = ref 0 in
  let send_times = Array.make (max n 1) 0.0 in
  let write response =
    let now = Unix.gettimeofday () in
    let id =
      match Json.parse response with
      | Ok j -> (
        match Json.member "id" j with Some (Json.Int i) -> i | _ -> -1)
      | Error _ -> -1
    in
    let latency_s =
      if id >= 0 && id < n then now -. send_times.(id) else 0.0
    in
    let stage = Loadgen.classify response in
    Mutex.lock lock;
    Loadgen.record o stage ~latency_s;
    incr answered;
    Mutex.unlock lock
  in
  let sup = Thread.create (fun () -> Daemon.supervise st ~jobs) () in
  let start = Unix.gettimeofday () in
  Array.iter
    (fun (r : Loadgen.request) ->
      let slack = start +. r.Loadgen.time -. Unix.gettimeofday () in
      if slack > 0.0005 then Thread.delay slack;
      send_times.(r.Loadgen.index) <- Unix.gettimeofday ();
      match
        Daemon.submit st ~line:r.Loadgen.line ~write ~on_done:(fun () -> ())
      with
      | Daemon.Accepted | Daemon.Answered -> ()
      | Daemon.Draining ->
        Mutex.lock lock;
        Loadgen.record o Loadgen.Dropped ~latency_s:0.0;
        Mutex.unlock lock)
    plan.Loadgen.requests;
  Daemon.begin_shutdown st;
  Thread.join sup;
  let wall_s = Unix.gettimeofday () -. start in
  let rss1 = float_of_int (bench_rss_kb ()) in
  let rss_ratio = rss1 /. rss0 in
  let unanswered = n - !answered in
  let report = Loadgen.summarize ~plan ~conns:1 ~wall_s o in
  let degraded_p99 =
    stat report.Loadgen.r_stages (fun s -> s.Loadgen.p99_ms) Loadgen.Degraded
  in
  if unanswered <> 0 then
    failwith
      (Printf.sprintf "overload: %d of %d request(s) never answered"
         unanswered n);
  if report.Loadgen.r_degraded = 0 then
    failwith
      (Printf.sprintf
         "overload: offered %.0f rps (3x estimated capacity) never \
          triggered degradation"
         offered_rps);
  if report.Loadgen.r_errors > 0 then
    failwith
      (Printf.sprintf "overload: %d request(s) errored"
         report.Loadgen.r_errors);
  if rss_ratio > 2.0 then
    failwith
      (Printf.sprintf "overload: RSS grew %.2fx (gate: <= 2.0)" rss_ratio);
  (* Two caveats on this comparison.  The relative bound breaks down
     when the optimal path itself gets faster (the growing-memo fix cut
     the healthy baseline ~3x, which says nothing about the degrade
     path), so a 2 ms absolute ceiling — an order of magnitude under
     pre-degradation hard-block solve tails — also counts as cheap.
     And on a single-core host the open-loop sender answers sheds
     inline while timesharing with the solver domain, so send-to-answer
     latency measures sender backlog (multiples of the 0.15 ms
     inter-arrival slot), not the degrade path: a direct probe of the
     path under a busy solver shows p99 < 0.1 ms.  There the gate is
     only a 25 ms sanity bound; the strict gate needs the second core
     this section was calibrated for (see the jobs comment above). *)
  let strict = Stdlib.Domain.recommended_domain_count () >= 2 in
  if strict && not (degraded_p99 < Float.max healthy_optimal_p99 2.0) then
    failwith
      (Printf.sprintf
         "overload: degraded p99 %.2f ms not under healthy optimal p99 \
          %.2f ms (nor the 2 ms absolute ceiling)"
         degraded_p99 healthy_optimal_p99);
  if not (degraded_p99 < 25.0) then
    failwith
      (Printf.sprintf "overload: degraded p99 %.2f ms fails 25 ms sanity"
         degraded_p99);
  Printf.printf
    "Server overload: offered %.0f rps (~3x capacity) for %.2f s, %d \
     requests: %d optimal / %d degraded / %d rejected, 0 unanswered, RSS \
     x%.2f, degraded p99 %.3f ms vs healthy optimal p99 %.2f ms\n\
     %!"
    offered_rps duration n
    (report.Loadgen.r_hits + report.Loadgen.r_fresh
   + report.Loadgen.r_curtailed)
    report.Loadgen.r_degraded report.Loadgen.r_rejected rss_ratio
    degraded_p99 healthy_optimal_p99;
  Json.Assoc
    [ ("offered_rps", Json.Float offered_rps);
      ("capacity_est_rps", Json.Float capacity_rps);
      ("duration_s", Json.Float duration);
      ("requests", Json.Int n);
      ("served_optimal",
       Json.Int
         (report.Loadgen.r_hits + report.Loadgen.r_fresh
        + report.Loadgen.r_curtailed));
      ("degraded", Json.Int report.Loadgen.r_degraded);
      ("rejected", Json.Int report.Loadgen.r_rejected);
      ("unanswered", Json.Int unanswered);
      ("max_rss_ratio", Json.Float rss_ratio);
      ("p99_degraded_ms", Json.Float degraded_p99);
      ("p99_healthy_optimal_ms", Json.Float healthy_optimal_p99) ]

(* Load-replay evidence: a Loadgen plan (the same seeded, DSL-shaped
   stream `pipesched_load` sends over a socket) replayed serially
   against a fresh caching server.  The per-stage counts and hit rate
   are a pure function of the plan seed and the server's deterministic
   behavior, so they are gated outright: any error, any drop, or a hit
   rate at or below 0.5 fails the bench.  The percentiles in the
   emitted report are wall-clock and informational. *)
let server_load_evidence () =
  let module Server = Pipesched_serve.Server in
  let module Loadgen = Harness.Loadgen in
  let module Json = Pipesched_prelude.Json in
  let plan =
    Loadgen.plan ~hot:8 ~lambda:200_000 ~dup_rate:0.9 ~seed:2026
      ~shape:Loadgen.Ramp ~rps:30.0 ~duration:4.0 ()
  in
  let server = Server.create ~cache_capacity:4096 () in
  let report =
    Loadgen.run_sync
      ~handle:(fun line -> Some (Server.handle_line server line))
      plan
  in
  if report.Loadgen.r_errors > 0 then
    failwith
      (Printf.sprintf "server_load: %d request(s) errored"
         report.Loadgen.r_errors);
  if report.Loadgen.r_drops > 0 then
    failwith
      (Printf.sprintf "server_load: %d request(s) dropped"
         report.Loadgen.r_drops);
  if not (report.Loadgen.r_hit_rate > 0.5) then
    failwith
      (Printf.sprintf "server_load: hit rate %.2f did not clear 0.5"
         report.Loadgen.r_hit_rate);
  let stage_stat field stage =
    List.fold_left
      (fun acc (s : Loadgen.stage_summary) ->
        if s.Loadgen.stage = stage then field s else acc)
      0.0 report.Loadgen.r_stages
  in
  let p50 = stage_stat (fun s -> s.Loadgen.p50_ms) in
  Printf.printf
    "Server load: %s seed %d, %d requests, hit rate %.2f (%d hit / %d \
     fresh), p50 %.2f ms hit vs %.2f ms fresh\n%!"
    (Loadgen.shape_to_string report.Loadgen.r_shape)
    report.Loadgen.r_seed report.Loadgen.r_requests
    report.Loadgen.r_hit_rate report.Loadgen.r_hits report.Loadgen.r_fresh
    (p50 Loadgen.Hit) (p50 Loadgen.Fresh);
  let overload = overload_evidence ~healthy:report in
  match Loadgen.report_json report with
  | Json.Assoc fields ->
    Json.to_string (Json.Assoc (fields @ [ ("overload", overload) ]))
  | j -> Json.to_string j

(* Mega-study evidence: the sharded engine's headline numbers, plus its
   two correctness claims asserted outright — the aggregate is
   byte-identical at shard counts 1/2/4, and a SIGKILLed-then-resumed
   run's aggregate is byte-identical to an uninterrupted one.  A third,
   soft claim rides along: worker RSS at the end of the run over RSS at
   its first checkpoint (max across shards) stays near 1, i.e. streaming
   aggregation really is constant-memory.

   PIPESCHED_MEGA_COUNT sets the corpus size (default 20000; the
   committed baseline uses 100000). *)
let mega_evidence () =
  let count =
    match Sys.getenv_opt "PIPESCHED_MEGA_COUNT" with
    | Some s -> int_of_string s
    | None -> 20_000
  in
  let dir = "_mega_bench" in
  let cfg shards =
    {
      Harness.Mega.default with
      Harness.Mega.seed = 2026;
      count;
      shards;
      jobs = 1;
      dedup_capacity = 4096;
      checkpoint_every = max 1 (count / 16);
      checkpoint_dir = dir;
    }
  in
  let run ?(resume = false) shards =
    match Harness.Mega.run ~resume (cfg shards) with
    | Error m -> failwith ("mega: " ^ m)
    | Ok (agg, stats) -> (Harness.Aggregate.render agg, stats)
  in
  let r1, s1 = run 1 in
  let r2, s2 = run 2 in
  let r4, s4 = run 4 in
  if not (String.equal r1 r2 && String.equal r1 r4) then
    failwith "mega: aggregate differs across shard counts";
  (* Kill shard 1 of 2 partway into its slice — deliberately between
     checkpoints — then resume and demand the uninterrupted bytes. *)
  Unix.putenv "PIPESCHED_MEGA_CRASH"
    (Printf.sprintf "1:%d" ((count / 4) + 3));
  let crashed =
    match Harness.Mega.run ~resume:false (cfg 2) with
    | Ok _ -> false
    | Error _ -> true
  in
  Unix.putenv "PIPESCHED_MEGA_CRASH" "";
  if not crashed then failwith "mega: injected crash did not fail the run";
  let r_resumed, s_resumed = run ~resume:true 2 in
  if not (String.equal r_resumed r1) then
    failwith "mega: resumed aggregate differs from uninterrupted run";
  if s_resumed.Harness.Mega.resumed = 0 then
    failwith "mega: resume replayed no checkpointed blocks";
  let max_rss_ratio =
    List.fold_left
      (fun m (s : Harness.Mega.stats) -> Float.max m s.Harness.Mega.max_rss_ratio)
      0.0 [ s1; s2; s4 ]
  in
  (* 0 = /proc unavailable; otherwise a growing ratio means per-block
     state is accumulating somewhere and the constant-memory claim is
     broken. *)
  if max_rss_ratio > 2.0 then
    failwith
      (Printf.sprintf "mega: worker RSS grew %.2fx over the run"
         max_rss_ratio);
  Printf.printf
    "Mega: %d blocks; %.0f / %.0f / %.0f blocks/s at 1/2/4 shards, \
     byte-identical; kill+resume byte-identical (replayed %d); max RSS \
     ratio %.2f\n%!"
    count s1.Harness.Mega.blocks_per_s s2.Harness.Mega.blocks_per_s
    s4.Harness.Mega.blocks_per_s s_resumed.Harness.Mega.resumed
    max_rss_ratio;
  (count, [ (1, s1); (2, s2); (4, s4) ], max_rss_ratio)

let write_results_json ~path ~jobs ~study_count ~study_failures ~study_wall_s
    ~study_dedup estimates =
  let memo_on, memo_off = memo_evidence () in
  let deadline_s, deadline_entries = deadline_evidence () in
  let server = server_evidence () in
  let server_load = server_load_evidence () in
  (* The portfolio corpus race spawns hundreds of short-lived domains
     and runs a multi-million-call search, which permanently grows the
     process major heap; run it after the server/overload sections so
     the overload gate's degraded-p99-vs-healthy-p99 comparison is
     measured under the same heap conditions it was calibrated on. *)
  let pf = portfolio_evidence () in
  let mega_count, mega_runs, mega_rss_ratio = mega_evidence () in
  let dedup_uniq, _, dedup_rate = study_dedup in
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": 1,\n";
  p "  \"jobs\": %d,\n" jobs;
  p
    "  \"study\": { \"count\": %d, \"failures\": %d, \"wall_s\": %.6f, \
     \"blocks_per_s\": %.1f, \"unique_blocks\": %d, \"dedup_rate\": %.4f },\n"
    study_count study_failures study_wall_s
    (float_of_int study_count /. study_wall_s)
    dedup_uniq dedup_rate;
  let best_rate =
    List.fold_left
      (fun m (_, (s : Harness.Mega.stats)) ->
        Float.max m s.Harness.Mega.blocks_per_s)
      0.0 mega_runs
  in
  p
    "  \"mega\": { \"count\": %d, \"shards\": %d, \"blocks_per_s\": %.1f, \
     \"resume_identical\": true, \"max_rss_ratio\": %.3f"
    mega_count
    (List.fold_left (fun m (sh, _) -> max m sh) 0 mega_runs)
    best_rate mega_rss_ratio;
  List.iter
    (fun (sh, (s : Harness.Mega.stats)) ->
      p ", \"shards%d\": { \"blocks_per_s\": %.1f, \"wall_s\": %.6f }" sh
        s.Harness.Mega.blocks_per_s s.Harness.Mega.wall_s)
    mega_runs;
  p " },\n";
  p "  \"server\": {";
  List.iteri
    (fun i (k, v) ->
      p "%s \"%s\": %s"
        (if i = 0 then "" else ",")
        k
        (if Float.is_integer v then Printf.sprintf "%.0f" v
         else Printf.sprintf "%.4f" v))
    server;
  p " },\n";
  p "  \"server_load\": %s,\n" server_load;
  p
    "  \"memo\": { \"nops\": %d, \"calls_on\": %d, \"calls_off\": %d, \
     \"hits\": %d, \"entries\": %d, \"evictions\": %d },\n"
    memo_on.Optimal.best.Omega.nops memo_on.Optimal.stats.Optimal.omega_calls
    memo_off.Optimal.stats.Optimal.omega_calls
    memo_on.Optimal.stats.Optimal.memo_hits
    memo_on.Optimal.stats.Optimal.memo_entries
    memo_on.Optimal.stats.Optimal.memo_evictions;
  p
    "  \"portfolio\": { \"corpus\": %d, \"disagreements\": 0, \
     \"wins_bnb\": %d, \"wins_cp\": %d, \"neither\": %d, \"proved\": %d,\n"
    pf.pf_corpus pf.pf_wins_bnb pf.pf_wins_cp pf.pf_neither pf.pf_proved;
  p "    \"hard_blocks\": [";
  List.iteri
    (fun i h ->
      p
        "%s { \"name\": \"%s\", \"wall_bnb_s\": %.6f, \"wall_cp_s\": %.6f, \
         \"wall_portfolio_s\": %.6f }"
        (if i = 0 then "" else ",")
        (json_escape h.ph_name) h.ph_bnb h.ph_cp h.ph_portfolio)
    pf.pf_hard;
  p " ],\n";
  p
    "    \"wall_bnb_s\": %.6f, \"wall_cp_s\": %.6f, \
     \"wall_portfolio_s\": %.6f, \"overhead_vs_best\": %.3f },\n"
    pf.pf_total_bnb pf.pf_total_cp pf.pf_total_portfolio pf.pf_overhead;
  p "  \"deadline\": { \"deadline_s\": %.3f" deadline_s;
  List.iter
    (fun (name, (status, nops, wall_s)) ->
      p ", \"%s\": { \"status\": \"%s\", \"nops\": %d, \"wall_s\": %.6f }"
        (json_escape name)
        (Pipesched_prelude.Budget.status_to_string status)
        nops wall_s)
    deadline_entries;
  p " },\n";
  p "  \"benchmarks\": {\n";
  List.iteri
    (fun i (name, est) ->
      p "    \"%s\": %.1f%s\n" (json_escape name) est
        (if i = List.length estimates - 1 then "" else ","))
    estimates;
  p "  }\n";
  p "}\n";
  close_out oc;
  Printf.printf "Wrote %s\n%!" path

let () =
  (* A [--mega-worker] invocation is a shard of the mega evidence
     re-executing this binary; it must never fall through into the
     benchmarks. *)
  Harness.Mega.run_if_worker ();
  (* Larger per-domain minor heaps (4M words = 32 MB): a minor collection
     in OCaml 5 is a stop-the-world barrier across every domain, so with
     several domains running (the study at --jobs > 1, the portfolio's
     race) collection frequency is directly wall-clock.  Set before any
     domain spawns; applies identically at every job count. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let jobs_flag = ref 0 in
  Arg.parse
    [ ("--jobs", Arg.Set_int jobs_flag,
       "N  worker domains for the study (default: PIPESCHED_JOBS or the \
        recommended domain count)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "dune exec bench/main.exe -- [--jobs N]";
  let jobs =
    if !jobs_flag > 0 then !jobs_flag
    else Pipesched_parallel.Pool.default_jobs ()
  in
  let estimates = run_benchmarks () in
  let count =
    match Sys.getenv_opt "PIPESCHED_STUDY_COUNT" with
    | Some s -> int_of_string s
    | None -> 16_000
  in
  (* The headline wall-clock number: the §5.3 study, timed with the
     monotonic clock, on [jobs] domains. *)
  let t0 = Mclock.now () in
  let study = Harness.Experiments.run_study ~count ~jobs () in
  let t1 = Mclock.now () in
  let study_wall_s = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
  let study_failures = List.length (Harness.Study.failures study) in
  Printf.printf
    "Study: scheduled %d blocks (%d contained failures) in %.2f s on %d \
     domain%s\n%!"
    count study_failures study_wall_s jobs
    (if jobs = 1 then "" else "s");
  write_results_json ~path:"BENCH_results.json" ~jobs ~study_count:count
    ~study_failures ~study_wall_s
    ~study_dedup:(Harness.Study.dedup_stats study)
    estimates;
  Harness.Experiments.run_all ~count ~jobs ~study
    Format.std_formatter
