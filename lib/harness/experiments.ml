open Pipesched_ir
open Pipesched_machine
open Pipesched_sched
open Pipesched_core
module Rng = Pipesched_prelude.Rng
module Generator = Pipesched_synth.Generator
module Frequency = Pipesched_synth.Frequency

type study = Study.result list

let machine = Machine.Presets.simulation

let run_study ?(seed = 1990) ?(count = 16_000) ?(lambda = 50_000)
    ?(strong = false) ?(memo = Optimal.default_memo) ?deadline_s
    ?block_deadline_s ?jobs ?strict ?certify ?backend ?progress () =
  let options =
    { Optimal.default_options with
      Optimal.lambda;
      Optimal.strong_equivalence = strong;
      Optimal.memo = memo }
  in
  Study.run ~options ?deadline_s ?block_deadline_s ?jobs ?strict ?certify
    ?backend ?progress ~seed ~count machine

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

(* Generate a block whose optimized size is exactly [target]; widen the
   statement count until we hit it (bounded attempts, then nearest). *)
let block_of_size rng target =
  let best = ref None in
  let attempts = 4000 in
  let rec go i =
    if i >= attempts then
      match !best with
      | Some (_, b) -> b
      | None ->
        (* Unreachable — the first attempt always records a candidate —
           but name the failing request instead of asserting, so a
           future generator change surfaces as an actionable error. *)
        invalid_arg
          (Printf.sprintf
             "Experiments.block_of_size: no synthetic block near %d \
              instructions after %d attempts"
             target attempts)
    else begin
      let p = Generator.sample_params rng in
      let blk = Generator.block rng p in
      let d = abs (Block.length blk - target) in
      (match !best with
       | Some (d0, _) when d0 <= d -> ()
       | _ -> best := Some (d, blk));
      if d = 0 then blk else go (i + 1)
    end
  in
  go 0

let print_table1 ?(seed = 7) ?(legal_cutoff = 10_000_000) fmt () =
  Format.fprintf fmt
    "@.Table 1: Search Space for Representative Examples@.";
  Format.fprintf fmt
    "  (paper columns in parentheses; blocks regenerated at the same sizes)@.";
  Format.fprintf fmt "  %5s  %12s  %22s  %22s@." "insns" "exhaustive"
    "legal-only calls (paper)" "proposed calls (paper)";
  let rng = Rng.create seed in
  List.iter
    (fun (row : Paper.table1_row) ->
      let blk = block_of_size rng row.Paper.insns in
      let dag = Dag.of_block blk in
      let legal =
        match Baselines.count_legal_schedules ~cutoff:legal_cutoff dag with
        | `Exact n -> string_of_int n
        | `At_least _ -> Printf.sprintf ">%d" (legal_cutoff - 1)
      in
      let outcome =
        Optimal.schedule
          ~options:{ Optimal.default_options with Optimal.lambda = legal_cutoff }
          machine dag
      in
      let paper_legal =
        match row.Paper.legal_calls with
        | Some n -> string_of_int n
        | None -> ">9999000"
      in
      Format.fprintf fmt "  %5d  %12.3g  %12s (%9s)  %12d (%9d)@."
        (Block.length blk)
        (Baselines.factorial_float (Block.length blk))
        legal paper_legal outcome.Optimal.stats.Optimal.omega_calls
        row.Paper.proposed_calls)
    Paper.table1

(* ------------------------------------------------------------------ *)
(* Machine tables and Table 6                                          *)

let print_machines fmt =
  Format.fprintf fmt
    "@.Tables 2/3 (illustrative machine) and 4/5 (simulation machine):@.";
  Machine.pp_tables fmt Machine.Presets.demo;
  Machine.pp_tables fmt Machine.Presets.simulation

let print_table6 fmt =
  Format.fprintf fmt
    "@.Table 6: synthetic statement-type frequencies (reconstruction):@.";
  Frequency.pp fmt Frequency.default

(* ------------------------------------------------------------------ *)
(* Table 7                                                             *)

let print_table7 fmt study =
  let total = List.length study in
  let failed = List.length (Study.failures study) in
  let completed, truncated =
    List.partition (fun r -> r.Study.completed) (Study.records study)
  in
  let c = Study.aggregate ~total completed in
  let t = Study.aggregate ~total truncated in
  let p_c = Paper.table7_completed and p_t = Paper.table7_truncated in
  Format.fprintf fmt
    "@.Table 7: Statistics for Scheduling %d Blocks (paper: %d)@." total
    Paper.total_runs;
  Format.fprintf fmt "  %-28s %18s %18s@." "" "Completed(Optimal)"
    "Truncated(Subopt?)";
  let row name f_ours_c f_ours_t f_paper_c f_paper_t =
    Format.fprintf fmt "  %-28s %9s (%6s) %9s (%6s)@." name f_ours_c
      f_paper_c f_ours_t f_paper_t
  in
  let fint x = Printf.sprintf "%d" x in
  let ff1 x = Printf.sprintf "%.2f" x in
  row "Number of Runs" (fint c.Study.runs) (fint t.Study.runs)
    (fint p_c.Paper.runs) (fint p_t.Paper.runs);
  row "Percentage of Runs" (ff1 c.Study.pct) (ff1 t.Study.pct)
    (ff1 p_c.Paper.pct) (ff1 p_t.Paper.pct);
  row "Avg. Instructions/Block" (ff1 c.Study.avg_size) (ff1 t.Study.avg_size)
    (ff1 p_c.Paper.avg_insns) (ff1 p_t.Paper.avg_insns);
  row "Avg. Initial NOPs" (ff1 c.Study.avg_initial_nops)
    (ff1 t.Study.avg_initial_nops)
    (ff1 p_c.Paper.avg_initial_nops)
    (ff1 p_t.Paper.avg_initial_nops);
  row "Avg. Final NOPs" (ff1 c.Study.avg_final_nops)
    (ff1 t.Study.avg_final_nops)
    (ff1 p_c.Paper.avg_final_nops)
    (ff1 p_t.Paper.avg_final_nops);
  row "Avg. Omega Calls" (ff1 c.Study.avg_omega_calls)
    (ff1 t.Study.avg_omega_calls)
    (ff1 p_c.Paper.avg_omega_calls)
    (ff1 p_t.Paper.avg_omega_calls);
  let memo_mean rs =
    Stats.mean (List.map (fun r -> float_of_int r.Study.memo_hits) rs)
  in
  row "Avg. Memo Hits (ext)" (ff1 (memo_mean completed))
    (ff1 (memo_mean truncated)) "-" "-";
  (* Why each truncated run stopped (extension): the lambda call budget,
     a wall-clock deadline, or a cancellation token.  All zeros in the
     completed column by construction; with no deadline configured the
     deadline and cancel counts are zero and the row is deterministic. *)
  let curtails (a : Study.aggregate) =
    Printf.sprintf "%d/%d/%d" a.Study.n_curtailed_lambda
      a.Study.n_curtailed_deadline a.Study.n_cancelled
  in
  row "Curtailed lam/ddl/cancel" (curtails c) (curtails t) "-" "-";
  (* Fault isolation (extension): blocks whose search raised and were
     contained as Failed results rather than killing the sweep.  Always
     0 unless something is genuinely broken — the row is the evidence
     that a long study did not silently drop work. *)
  row "Failed (contained) blocks" (fint failed) "-" "-" "-";
  (* Duplicate elimination (extension): canonically equivalent blocks
     are searched once and fanned out; this row reports how many
     searches actually ran and the share saved. *)
  let uniq, dtotal, rate = Study.dedup_stats study in
  row "Unique Blocks (dedup)"
    (Printf.sprintf "%d/%d" uniq dtotal)
    (Printf.sprintf "%.1f%% dup" (100.0 *. rate))
    "-" "-";
  row "Avg. Search Time (s)"
    (Printf.sprintf "%.4f" c.Study.avg_time_s)
    (Printf.sprintf "%.4f" t.Study.avg_time_s)
    (Printf.sprintf "~%.1f" p_c.Paper.avg_time_s)
    (Printf.sprintf "~%.1f" p_t.Paper.avg_time_s)

(* ------------------------------------------------------------------ *)
(* Figures: per-size series                                            *)

let bucketed study =
  Stats.group_by (fun r -> r.Study.size / 5 * 5) (Study.records study)

let claim fmt key =
  match List.assoc_opt key Paper.figure_claims with
  | Some text -> Format.fprintf fmt "  paper: %s@." text
  | None -> ()

let print_fig1 fmt study =
  Format.fprintf fmt
    "@.Figure 1: Schedules Searched vs Block Size (completed runs)@.";
  claim fmt "fig1";
  Format.fprintf fmt "  %10s %8s %12s %12s %12s@." "size bucket" "runs"
    "mean calls" "p95 calls" "max calls";
  List.iter
    (fun (b, rs) ->
      let rs = List.filter (fun r -> r.Study.completed) rs in
      if rs <> [] then begin
        let calls =
          List.map (fun r -> float_of_int r.Study.omega_calls) rs
        in
        Format.fprintf fmt "  %7d-%2d %8d %12.1f %12.1f %12.0f@." b (b + 4)
          (List.length rs) (Stats.mean calls)
          (Stats.percentile 95.0 calls)
          (snd (Stats.min_max calls))
      end)
    (bucketed study)

let print_fig4 fmt study =
  Format.fprintf fmt "@.Figure 4: Initial and Final NOPs vs Block Size@.";
  claim fmt "fig4";
  Format.fprintf fmt "  %10s %8s %14s %14s@." "size bucket" "runs"
    "mean initial" "mean final";
  List.iter
    (fun (b, rs) ->
      let f sel = Stats.mean (List.map sel rs) in
      Format.fprintf fmt "  %7d-%2d %8d %14.2f %14.2f@." b (b + 4)
        (List.length rs)
        (f (fun r -> float_of_int r.Study.initial_nops))
        (f (fun r -> float_of_int r.Study.final_nops)))
    (bucketed study)

let print_fig5 fmt study =
  Format.fprintf fmt "@.Figure 5: Distribution of Sample Block Sizes@.";
  claim fmt "fig5";
  let recs = Study.records study in
  let sizes = List.map (fun r -> r.Study.size) recs in
  let mean = Stats.mean (List.map float_of_int sizes) in
  Format.fprintf fmt "  mean size = %.2f (paper: 20.6)@." mean;
  List.iter
    (fun (b, count) ->
      let bar = String.make (min 60 (count * 200 / List.length recs)) '#' in
      Format.fprintf fmt "  %3d-%3d %6d %s@." b (b + 4) count bar)
    (Stats.histogram ~bucket:5 sizes)

let print_fig6 fmt study =
  Format.fprintf fmt "@.Figure 6: Runtime vs Block Size@.";
  claim fmt "fig6";
  Format.fprintf fmt "  %10s %8s %14s %14s@." "size bucket" "runs"
    "mean time (s)" "max time (s)";
  List.iter
    (fun (b, rs) ->
      let times = List.map (fun r -> r.Study.time_s) rs in
      Format.fprintf fmt "  %7d-%2d %8d %14.5f %14.5f@." b (b + 4)
        (List.length rs) (Stats.mean times)
        (snd (Stats.min_max times)))
    (bucketed study)

let print_fig7 fmt study =
  Format.fprintf fmt
    "@.Figure 7: Percentage of Provably Optimal Runs vs Block Size@.";
  claim fmt "fig7";
  Format.fprintf fmt "  %10s %8s %12s@." "size bucket" "runs" "% optimal";
  List.iter
    (fun (b, rs) ->
      let opt = List.length (List.filter (fun r -> r.Study.completed) rs) in
      Format.fprintf fmt "  %7d-%2d %8d %12.2f@." b (b + 4) (List.length rs)
        (100.0 *. float_of_int opt /. float_of_int (List.length rs)))
    (bucketed study)

(* ------------------------------------------------------------------ *)
(* Omega microbenchmark (§2.3)                                         *)

let omega_cost ?(seed = 15) () =
  let rng = Rng.create seed in
  (* A typical 15-instruction block, as in the paper's estimate. *)
  let blk = block_of_size rng 15 in
  let dag = Dag.of_block blk in
  let order = List_sched.schedule List_sched.Max_distance dag in
  let reps = 200_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Omega.evaluate machine dag ~order)
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) /. float_of_int reps

(* ------------------------------------------------------------------ *)
(* Extension studies (§5.3, §6 "ongoing work", footnote 1)             *)

let print_machine_sweep ?(seed = 1991) ?(count = 1_000) ?jobs fmt =
  Format.fprintf fmt
    "@.Extension: the same study on other pipeline structures (§6 \
     'ongoing work'):@.";
  Format.fprintf fmt
    "  (last column: completion with the critical-path bound + strong \
     equivalence extensions)@.";
  Format.fprintf fmt "  %-12s %10s %12s %12s %12s %12s@." "machine"
    "% optimal" "avg initial" "avg final" "avg calls" "% opt (ext)";
  let ext_options =
    { Optimal.default_options with
      Optimal.lambda = 50_000;
      Optimal.lower_bound = Optimal.Critical_path;
      Optimal.strong_equivalence = true }
  in
  List.iter
    (fun (name, m) ->
      let records = Study.records (Study.run ?jobs ~seed ~count m) in
      let total = List.length records in
      let completed = List.filter (fun r -> r.Study.completed) records in
      let agg = Study.aggregate ~total records in
      let ext =
        Study.records (Study.run ~options:ext_options ?jobs ~seed ~count m)
      in
      let ext_completed = List.filter (fun r -> r.Study.completed) ext in
      Format.fprintf fmt "  %-12s %10.2f %12.2f %12.2f %12.1f %12.2f@." name
        (100.0 *. float_of_int (List.length completed) /. float_of_int total)
        agg.Study.avg_initial_nops agg.Study.avg_final_nops
        agg.Study.avg_omega_calls
        (100.0
        *. float_of_int (List.length ext_completed)
        /. float_of_int total))
    Machine.Presets.all

(* The paper defers "variations in performance associated with different
   pipeline structures" to later work; this grid is that study in
   miniature: one multiplier-style pipeline swept over latency and
   enqueue, reporting how much of the delay an optimal schedule can hide. *)
let print_structure_sweep ?(seed = 1997) ?(count = 300) ?jobs fmt =
  Format.fprintf fmt
    "@.Extension: pipeline-structure grid (optimal avg NOPs as the \
     multiplier's latency L and enqueue E vary; loader fixed at 2/1):@.";
  let rng = Rng.create seed in
  let blocks =
    Stats.sequential_init count (fun _ ->
        Generator.block rng (Generator.sample_params rng))
  in
  let latencies = [ 1; 2; 4; 6; 8 ] in
  let enqueues = [ 1; 2; 4; 8 ] in
  Format.fprintf fmt "  %8s" "";
  List.iter (fun e -> Format.fprintf fmt " %9s" (Printf.sprintf "E=%d" e))
    enqueues;
  Format.fprintf fmt "@.";
  List.iter
    (fun latency ->
      Format.fprintf fmt "  %8s" (Printf.sprintf "L=%d" latency);
      List.iter
        (fun enqueue ->
          let m =
            Machine.make
              ~name:(Printf.sprintf "grid-%d-%d" latency enqueue)
              [| Pipe.make ~label:"loader" ~latency:2 ~enqueue:1;
                 Pipe.make ~label:"multiplier" ~latency ~enqueue |]
              ~assign:[ (Op.Load, [ 0 ]); (Op.Mul, [ 1 ]); (Op.Div, [ 1 ]);
                        (Op.Mod, [ 1 ]) ]
          in
          let nops =
            Pipesched_parallel.Pool.parallel_map ?jobs
              (fun blk ->
                float_of_int
                  (Optimal.schedule
                     ~options:
                       { Optimal.default_options with
                         Optimal.lambda = 20_000;
                         Optimal.lower_bound = Optimal.Critical_path }
                     m (Dag.of_block blk))
                    .Optimal.best
                    .Omega.nops)
              blocks
          in
          Format.fprintf fmt " %9.2f" (Stats.mean nops))
        enqueues;
      Format.fprintf fmt "@.")
    latencies

let print_windowed_study ?(seed = 1992) ?(count = 150) fmt =
  Format.fprintf fmt
    "@.Extension: windowed scheduling of very large blocks (§5.3):@.";
  let rng = Rng.create seed in
  let dags =
    Stats.sequential_init count (fun _ ->
        Dag.of_block
          (Generator.block rng
             { Generator.statements = 45 + Rng.int rng 25;
               variables = 8 + Rng.int rng 6;
               constants = 2 + Rng.int rng 3 }))
  in
  let sizes = List.map Dag.length dags in
  Format.fprintf fmt "  %d blocks of %d..%d instructions@." count
    (List.fold_left min max_int sizes)
    (List.fold_left max 0 sizes);
  let lambda = 50_000 in
  let options = { Optimal.default_options with Optimal.lambda } in
  Format.fprintf fmt "  %-12s %10s %12s %12s@." "scheduler" "avg NOPs"
    "avg calls" "% complete";
  let report name nops calls complete =
    Format.fprintf fmt "  %-12s %10.2f %12.1f %12.1f@." name
      (Stats.mean nops) (Stats.mean calls)
      (100.0 *. complete /. float_of_int count)
  in
  let full =
    List.map (fun dag -> Optimal.schedule ~options machine dag) dags
  in
  report "full search"
    (List.map (fun o -> float_of_int o.Optimal.best.Omega.nops) full)
    (List.map
       (fun o -> float_of_int o.Optimal.stats.Optimal.omega_calls)
       full)
    (float_of_int
       (List.length
          (List.filter (fun o -> o.Optimal.stats.Optimal.completed) full)));
  List.iter
    (fun window ->
      let ws =
        List.map (fun dag -> Windowed.schedule ~options ~window machine dag) dags
      in
      report
        (Printf.sprintf "window %d" window)
        (List.map (fun w -> float_of_int w.Windowed.best.Omega.nops) ws)
        (List.map (fun w -> float_of_int w.Windowed.omega_calls) ws)
        (float_of_int
           (List.length
              (List.filter
                 (fun w -> w.Windowed.all_windows_completed)
                 ws))))
    [ 5; 10; 20 ]

let print_region_study ?(seed = 1993) ?(count = 150) fmt =
  Format.fprintf fmt
    "@.Extension: threading pipeline state across adjacent blocks \
     (footnote 1):@.";
  (* Boundary effects need a unit whose recovery (enqueue) time exceeds
     its latency; otherwise the trailing dependence of the unit's last
     result drains it before the block can end — a structural finding
     this study also demonstrates (0 hazards on the simulation machine).
     The 'throttled' preset models such iterative units. *)
  let run_config label machine opts =
    let rng = Rng.create seed in
    let warm = ref 0 and cold = ref 0 and claimed = ref 0 in
    let hazards = ref 0 and blocks = ref 0 in
    for _ = 1 to count do
      let dags =
        Stats.sequential_init
          (2 + Rng.int rng 4)
          (fun _ ->
            Dag.of_block
              (Generator.block ~freq:Frequency.mul_heavy rng
                 { Generator.statements = 2 + Rng.int rng 4;
                   variables = 3 + Rng.int rng 3;
                   constants = 1 + Rng.int rng 3 }))
      in
      let r = Region.schedule ~options:opts machine dags in
      warm := !warm + r.Region.total_nops;
      cold := !cold + r.Region.cold_total_nops;
      claimed := !claimed + r.Region.cold_claimed_nops;
      hazards := !hazards + r.Region.cold_hazards;
      blocks := !blocks + List.length dags
    done;
    Format.fprintf fmt
      "  %-28s threaded %5d, cold realized %5d (claimed %5d), hazards \
       %d/%d blocks@."
      label !warm !cold !claimed !hazards !blocks
  in
  let base = Optimal.default_options in
  run_config "simulation, list seed:" machine base;
  run_config "throttled, list seed:" Machine.Presets.throttled base;
  run_config "throttled, source seed:" Machine.Presets.throttled
    { base with
      Optimal.seed = Pipesched_sched.List_sched.Source_order;
      (* source-order incumbents make the point fastest *)
      Optimal.lambda = 2_000 };
  Format.fprintf fmt
    "  (a 'hazard' is a block whose cold-start NOP padding underestimates \
     its true entry constraints: on an interlock-free machine the code \
     would misexecute; threading the exit state repairs it)@."

let print_heuristic_study ?(seed = 1995) ?(count = 2_000) fmt =
  Format.fprintf fmt
    "@.Extension: scheduler quality ladder (the heuristics §1 positions \
     the search against):@.";
  let rng = Rng.create seed in
  let dags =
    Stats.sequential_init count (fun _ ->
        Dag.of_block (Generator.block rng (Generator.sample_params rng)))
  in
  let eval name f =
    let t0 = Unix.gettimeofday () in
    let nops = List.map f dags in
    let dt = Unix.gettimeofday () -. t0 in
    Format.fprintf fmt "  %-22s %10.3f avg NOPs %12.2f us/block@." name
      (Stats.mean (List.map float_of_int nops))
      (1e6 *. dt /. float_of_int count)
  in
  eval "source order" (fun dag ->
      (Omega.evaluate machine dag
         ~order:(Omega.identity_order (Dag.length dag)))
        .Omega.nops);
  eval "greedy (Abraham-style)" (fun dag ->
      (Omega.evaluate machine dag ~order:(Baselines.greedy machine dag))
        .Omega.nops);
  eval "Gross-style lookahead" (fun dag ->
      (Omega.evaluate machine dag ~order:(Baselines.gross machine dag))
        .Omega.nops);
  eval "list schedule [ZaD90]" (fun dag ->
      (Omega.evaluate machine dag
         ~order:(List_sched.schedule List_sched.Max_distance dag))
        .Omega.nops);
  eval "windowed (w=10)" (fun dag ->
      (Windowed.schedule ~window:10 machine dag).Windowed.best.Omega.nops);
  eval "simulated annealing" (fun dag ->
      (Stochastic.anneal ~budget:1_000 machine dag)
        .Stochastic.best
        .Omega.nops);
  eval "optimal search" (fun dag ->
      (Optimal.schedule
         ~options:{ Optimal.default_options with Optimal.lambda = 50_000 }
         machine dag)
        .Optimal.best
        .Omega.nops)

let print_kernel_study fmt =
  Format.fprintf fmt
    "@.Extension: named kernels (NOPs per schedule; simulation machine, \
     and the Table 2/3 multi-pipe machine for the last two columns):@.";
  Format.fprintf fmt "  %-14s %6s %8s %6s %8s %12s %12s@." "kernel" "insns"
    "source" "list" "optimal" "demo single" "demo multi";
  List.iter
    (fun ((k : Pipesched_synth.Kernels.t), prog) ->
      let blk = Pipesched_frontend.Compile.compile_program prog in
      let dag = Dag.of_block blk in
      let nops_of m order = (Omega.evaluate m dag ~order).Omega.nops in
      let source =
        nops_of machine (Omega.identity_order (Block.length blk))
      in
      let listed =
        nops_of machine (List_sched.schedule List_sched.Max_distance dag)
      in
      let optimal = (Optimal.schedule machine dag).Optimal.best.Omega.nops in
      let demo = Machine.Presets.demo in
      (* The multi-pipe search space explodes under the paper's
         mu(Phi)-only bound (dot4 does not finish in 10M calls); the
         critical-path bound plus strong equivalence prove the optimum in
         a few thousand. *)
      let strong =
        { Optimal.default_options with
          Optimal.lower_bound = Optimal.Critical_path;
          Optimal.strong_equivalence = true;
          Optimal.lambda = 2_000_000 }
      in
      let demo_single =
        (Optimal.schedule ~options:strong demo dag).Optimal.best.Omega.nops
      in
      let multi_outcome = fst (Optimal.schedule_multi ~options:strong demo dag) in
      (* A default-pipe schedule is a valid multi-pipe schedule, so the
         best found is the better of the two; '*' marks a curtailed multi
         search (unproven). *)
      let demo_multi = min demo_single multi_outcome.Optimal.best.Omega.nops in
      let marker =
        if multi_outcome.Optimal.stats.Optimal.completed then "" else "*"
      in
      Format.fprintf fmt "  %-14s %6d %8d %6d %8d %12d %11d%s@."
        k.Pipesched_synth.Kernels.name (Block.length blk) source listed
        optimal demo_single demo_multi marker)
    (Pipesched_synth.Kernels.straight_line ())

let print_pressure_study ?(seed = 1996) ?(count = 1_000) fmt =
  Format.fprintf fmt
    "@.Extension: register pressure (§3.1's 'enough registers' premise):@.";
  let module Alloc = Pipesched_regalloc.Alloc in
  let module Liveness = Pipesched_regalloc.Liveness in
  let rng = Rng.create seed in
  let blocks =
    Stats.sequential_init count (fun _ ->
        Generator.block rng (Generator.sample_params rng))
  in
  let pressure_of blk order =
    Liveness.max_pressure (Block.permute blk order)
  in
  let source = ref [] and listed = ref [] and optimal = ref [] in
  List.iter
    (fun blk ->
      let dag = Dag.of_block blk in
      source :=
        float_of_int (Liveness.max_pressure blk) :: !source;
      listed :=
        float_of_int
          (pressure_of blk (List_sched.schedule List_sched.Max_distance dag))
        :: !listed;
      let o = Optimal.schedule machine dag in
      optimal :=
        float_of_int (pressure_of blk o.Optimal.best.Omega.order)
        :: !optimal)
    blocks;
  Format.fprintf fmt
    "  max live values per block: source %.2f avg / %.0f max, list %.2f / \
     %.0f, optimal %.2f / %.0f@."
    (Stats.mean !source)
    (snd (Stats.min_max !source))
    (Stats.mean !listed)
    (snd (Stats.min_max !listed))
    (Stats.mean !optimal)
    (snd (Stats.min_max !optimal));
  Format.fprintf fmt
    "  (scheduling for latency lengthens live ranges: the pressure the \
     paper's §3.1 pre-pass must budget for)@.";
  Format.fprintf fmt "  pressure-bounded search (our extension):@.";
  Format.fprintf fmt "  %10s %12s %12s@." "registers" "% feasible"
    "avg NOPs";
  List.iter
    (fun k ->
      let feasible = ref 0 and nops = ref [] in
      List.iter
        (fun blk ->
          let dag = Dag.of_block blk in
          match Optimal.schedule_bounded ~registers:k machine dag with
          | Ok o ->
            incr feasible;
            nops := float_of_int o.Optimal.best.Omega.nops :: !nops
          | Error () -> ())
        blocks;
      Format.fprintf fmt "  %10d %12.1f %12.2f@." k
        (100.0 *. float_of_int !feasible /. float_of_int count)
        (Stats.mean !nops))
    [ 2; 3; 4; 6; 8 ]

let print_dynamic_study ?(seed = 1994) ?(count = 120) fmt =
  Format.fprintf fmt
    "@.Extension: whole programs with control flow (§6 'arbitrary control \
     flow') — dynamic cycles:@.";
  let module Cfl = Pipesched_cflow in
  let rng = Rng.create seed in
  (* The last two configurations add a MIPS-style branch delay slot
     ([Hen81]): padded with NOPs vs filled by the emitter. *)
  let schedulers =
    [ ("optimal search", Optimal.default_options, 0, true);
      ( "list schedule only",
        { Optimal.default_options with Optimal.lambda = 1 }, 0, true );
      ( "source order",
        { Optimal.default_options with
          Optimal.lambda = 1;
          Optimal.seed = Pipesched_sched.List_sched.Source_order },
        0, true );
      ("optimal, slot padded", Optimal.default_options, 1, false);
      ("optimal, slot filled", Optimal.default_options, 1, true) ]
  in
  let source_index = 2 in
  let totals = Array.make (List.length schedulers) 0 in
  let static = Array.make (List.length schedulers) 0 in
  let programs = ref 0 in
  for _ = 1 to count do
    let prog =
      Generator.structured_program rng
        { Generator.statements = 8 + Rng.int rng 10;
          variables = 4 + Rng.int rng 4;
          constants = 2 + Rng.int rng 3 }
        ~depth:2
    in
    (* Re-optimizing after merging forwards loads across the former
       block boundary — register promotion along the merged edge. *)
    let cfg =
      Cfl.Cfg.optimize_blocks (Cfl.Cfg.merge_chains (Cfl.Lower.lower prog))
    in
    let env v = Hashtbl.hash (seed, v) mod 50 in
    let runs =
      List.map
        (fun (_, options, delay_slots, fill) ->
          let s = Cfl.Schedule.schedule ~options machine cfg in
          match Cfl.Emit.emit ~registers:64 ~delay_slots ~fill s with
          | Error _ -> None
          | Ok text ->
            let _, ticks = Cfl.Emit.execute ~delay_slots text ~env in
            Some (ticks, s.Cfl.Schedule.total_nops))
        schedulers
    in
    if List.for_all Option.is_some runs then begin
      incr programs;
      List.iteri
        (fun i r ->
          let ticks, nops = Option.get r in
          totals.(i) <- totals.(i) + ticks;
          static.(i) <- static.(i) + nops)
        runs
    end
  done;
  Format.fprintf fmt
    "  %d random structured programs (loops + branches), executed to \
     completion:@."
    !programs;
  List.iteri
    (fun i (name, _, _, _) ->
      Format.fprintf fmt
        "  %-22s %8d dynamic cycles total (%5.1f%% vs source order), %5d \
         static NOPs@."
        name totals.(i)
        (100.0 *. float_of_int totals.(i)
         /. float_of_int (max 1 totals.(source_index)))
        static.(i))
    schedulers

(* ------------------------------------------------------------------ *)
(* Portfolio study: bnb then cp in rounds over a mixed corpus (§14)    *)

let print_portfolio_study ?(seed = 1990) ?(count = 80) ?(lambda = 50_000)
    fmt =
  Format.fprintf fmt
    "@.Portfolio study: bnb then cp in restart rounds over %d \
     machine/block pairs (lambda %d per side)@."
    count lambda;
  Format.fprintf fmt
    "  (alternating the simulation machine and random machines; the \
     first proof ends a block's rounds)@.";
  let options = { Optimal.default_options with Optimal.lambda } in
  let wins_bnb = ref 0 and wins_cp = ref 0 and neither = ref 0 in
  let disagreements = ref 0 and proved = ref 0 in
  let sum_initial = ref 0 and sum_best = ref 0 in
  for i = 1 to count do
    let m =
      if i mod 2 = 0 then machine
      else Generator.random_machine (Rng.create ((seed + i) * 7919))
    in
    let blk = Generator.of_seed (seed + i) in
    let dag = Dag.of_block blk in
    match Portfolio.run ~options m dag with
    | o ->
      (match o.Portfolio.winner with
       | Some Portfolio.Bnb -> incr wins_bnb
       | Some Portfolio.Cp -> incr wins_cp
       | None -> incr neither);
      if o.Portfolio.proved <> None then incr proved;
      sum_initial := !sum_initial + o.Portfolio.initial.Omega.nops;
      sum_best := !sum_best + o.Portfolio.best.Omega.nops
    | exception Portfolio.Disagreement msg ->
      (* Name the pair, so the case can be rebuilt and rerun. *)
      incr disagreements;
      Format.fprintf fmt "  DISAGREEMENT on pair %d (block seed %d, %s): %s@."
        i (seed + i)
        (if i mod 2 = 0 then "the simulation machine"
         else Printf.sprintf "random machine seed %d" ((seed + i) * 7919))
        msg
  done;
  let avg s = float_of_int !s /. float_of_int (max 1 count) in
  Format.fprintf fmt
    "  first proof: bnb %d, cp %d, neither %d (both curtailed)@." !wins_bnb
    !wins_cp !neither;
  Format.fprintf fmt
    "  proved optimal: %d/%d blocks; avg NOPs list %.2f -> best %.2f@."
    !proved count (avg sum_initial) (avg sum_best);
  (* The line CI greps: the two exact backends agreed on every block. *)
  Format.fprintf fmt "  portfolio disagreements: %d@." !disagreements

let run_all ?(seed = 1990) ?(count = 16_000) ?lambda ?strong ?memo
    ?deadline_s ?block_deadline_s ?jobs ?strict ?certify ?backend ?progress
    fmt =
  Format.fprintf fmt
    "Reproduction: Nisar & Dietz, Optimal Code Scheduling for \
     Multiple-Pipeline Processors (1990)@.";
  print_machines fmt;
  print_table6 fmt;
  print_table1 fmt ();
  let study =
    run_study ~seed ~count ?lambda ?strong ?memo ?deadline_s
      ?block_deadline_s ?jobs ?strict ?certify ?backend ?progress ()
  in
  print_table7 fmt study;
  print_fig1 fmt study;
  print_fig4 fmt study;
  print_fig5 fmt study;
  print_fig6 fmt study;
  print_fig7 fmt study;
  let c = omega_cost () in
  Format.fprintf fmt
    "@.Omega cost (sec per 15-insn schedule evaluation): %.3e (paper: \
     1.2e-4 Gould NP1, 3e-4 Sun 3/50)@."
    c;
  let ablation_count = max 200 (count / 8) in
  Ablation.print fmt
    (Ablation.run ?jobs ~seed:(seed + 1) ~count:ablation_count
       ~lambda:20_000 machine);
  print_machine_sweep ~count:(max 200 (count / 16)) ?jobs fmt;
  print_structure_sweep ~count:(max 100 (count / 50)) ?jobs fmt;
  print_windowed_study ~count:(max 50 (count / 100)) fmt;
  print_region_study ~count:(max 50 (count / 100)) fmt;
  print_heuristic_study ~count:(max 200 (count / 8)) fmt;
  print_kernel_study fmt;
  print_pressure_study ~count:(max 150 (count / 20)) fmt;
  print_dynamic_study ~count:(max 40 (count / 150)) fmt;
  print_portfolio_study ~seed:(seed + 2) ~count:(max 40 (count / 200)) fmt
