(* The study workload: the paper's §5.3 / Table 7 experiment, run
   in-process on one domain — the simulation machine, the paper's size
   mix, bnb at lambda = 50,000, canonical dedup on, certify on.

   A run is a sequence of chunks of [chunk_blocks] blocks; chunk [k]'s
   population is a pure function of (seed, k), so the traced run replays
   exactly the blocks the untraced run measured. *)

open Pipesched_ir
open Pipesched_machine
module Rng = Pipesched_prelude.Rng
module Generator = Pipesched_synth.Generator
module Schedule = Pipesched_synth.Schedule
module List_sched = Pipesched_sched.List_sched
module Optimal = Pipesched_core.Optimal
module Certify = Pipesched_verify.Certify
module Study = Pipesched_harness.Study
module Experiments = Pipesched_harness.Experiments

let chunk_blocks = 500
let lambda = 50_000
let machine = Machine.Presets.simulation

(* [Experiments.run_study]'s search options at [lambda]. *)
let options = { Optimal.default_options with Optimal.lambda }

let chunk_seed ~seed k = Schedule.seed_at ~seed k

(* Study.run's population: per-block seeds drawn serially from the chunk
   seed, each block generated from its own generator. *)
let block_seeds chunk_seed =
  let rng = Rng.create chunk_seed in
  Array.init chunk_blocks (fun _ -> Rng.bits rng)

let generate block_seed =
  let rng = Rng.create block_seed in
  let params = Generator.sample_params rng in
  Generator.block rng params

let population chunk_seed = Array.map generate (block_seeds chunk_seed)

(* One chunk as a study runs it, aggregation included. *)
let run_chunk chunk_seed =
  let results =
    Experiments.run_study ~seed:chunk_seed ~count:chunk_blocks ~lambda ~jobs:1
      ~certify:true ()
  in
  let records = Study.records results in
  ignore (Study.aggregate ~total:chunk_blocks records);
  (results, records)

type summary = {
  wall : float;  (** seconds spent in chunks *)
  search_ms : float list;  (** per searched block *)
  blocks : int;
  proved : int;
  nops_sum : int;
  failures : int;
  first : Study.record list;  (** chunk 0, for the exhaustive check *)
}

let measure ~seed ~seconds =
  let stop = Unix.gettimeofday () +. seconds in
  let rec go k acc =
    if k > 0 && Unix.gettimeofday () >= stop then acc
    else begin
      let t0 = Unix.gettimeofday () in
      let results, records = run_chunk (chunk_seed ~seed k) in
      let t1 = Unix.gettimeofday () in
      let acc =
        List.fold_left
          (fun acc (r : Study.record) ->
            { acc with
              search_ms =
                (if r.Study.unique then (1000.0 *. r.Study.time_s) :: acc.search_ms
                 else acc.search_ms);
              proved = (acc.proved + if r.Study.completed then 1 else 0);
              nops_sum = acc.nops_sum + r.Study.final_nops })
          { acc with
            wall = acc.wall +. (t1 -. t0);
            blocks = acc.blocks + List.length results;
            failures = acc.failures + List.length (Study.failures results);
            first = (if k = 0 then records else acc.first) }
          records
      in
      go (k + 1) acc
    end
  in
  go 0
    { wall = 0.0; search_ms = []; blocks = 0; proved = 0; nops_sum = 0;
      failures = 0; first = [] }

(* Blocks of chunk 0 with at most 8 instructions, against the proved
   NOPs the study recorded for them; also checks that the population
   this module regenerates is the one the study scheduled. *)
let exhaustive_candidates ~seed tally records =
  let blocks = population (chunk_seed ~seed 0) in
  let records = Array.of_list records in
  if Array.length records <> Array.length blocks then begin
    Report.fail_run tally "study population: record count differs";
    []
  end
  else
    List.filter_map
      (fun i ->
        let r = records.(i) and blk = blocks.(i) in
        if r.Study.size <> Block.length blk then begin
          Report.fail_run tally
            (Printf.sprintf
               "study population: block %d has %d instructions, the study \
                recorded %d"
               i (Block.length blk) r.Study.size);
          None
        end
        else if r.Study.completed then Some (machine, blk, r.Study.final_nops)
        else None)
      (List.init (Array.length blocks) Fun.id)

let check_exhaustive ~seed tally records =
  List.iter
    (fun c ->
      match Checks.check_exhaustive c with
      | Ok () -> ()
      | Error msg -> Report.fail tally msg)
    (Checks.sample_small ~seed ~limit:30
       (exhaustive_candidates ~seed tally records))

let run_untraced ~seed ~seconds ~setup_s tally =
  let s = measure ~seed ~seconds in
  let peak = Child.peak_rss_mb (Unix.getpid ()) in
  tally.Report.attempted <- s.blocks;
  for _ = 1 to s.failures do
    Report.fail tally "study block failed (contained exception or certification)"
  done;
  check_exhaustive ~seed tally s.first;
  [ Report.metric "setup_s" "s" setup_s;
    Report.metric "units_per_s" "units/s" (float_of_int s.blocks /. s.wall);
    Report.metric "latency_p50_ms" "ms" (Report.percentile 50.0 s.search_ms);
    Report.metric "latency_p90_ms" "ms" (Report.percentile 90.0 s.search_ms);
    Report.metric "latency_p99_ms" "ms" (Report.percentile 99.0 s.search_ms);
    Report.metric "latency_samples" "count" (float_of_int (List.length s.search_ms));
    Report.metric "proved_share" "fraction" (Report.share s.proved s.blocks);
    Report.metric "nops_mean" "NOPs"
      (float_of_int s.nops_sum /. float_of_int (max 1 s.blocks));
    Report.metric "peak_rss_mb" "MB" peak ]

(* ---------------------------------------------------------------- *)
(* Traced replay                                                     *)

type replay = {
  mutable reps : int;
  mutable total : int;
  mutable seed_nops : int;
  mutable omega_calls : int;
  mutable memo_hits : int;
  mutable proved : int;
  mutable violations : int;
}

(* One chunk, one layer at a time, as Study.run does it: generate every
   block, key every block, group by key, then search (and certify) one
   representative per class, then aggregate. *)
let replay_chunk tr acc k chunk_seed =
  let span name ~unit_id f = Trace.span tr name ~unit_id f in
  Trace.span tr "study.chunk" ~unit_id:k (fun () ->
      let seeds = block_seeds chunk_seed in
      let uid i = (k * chunk_blocks) + i in
      let blocks =
        Array.mapi
          (fun i s -> span "generator.block" ~unit_id:(uid i) (fun () -> generate s))
          seeds
      in
      let keys =
        Array.mapi
          (fun i blk ->
            span "canonical.key" ~unit_id:(uid i) (fun () ->
                (Canonical.of_block blk).Canonical.key))
          blocks
      in
      let rep_of = Hashtbl.create chunk_blocks in
      let rep =
        Array.mapi
          (fun i key ->
            span "study.dedup" ~unit_id:(uid i) (fun () ->
                match Hashtbl.find_opt rep_of key with
                | Some j -> j
                | None ->
                  Hashtbl.add rep_of key i;
                  i))
          keys
      in
      let records = Array.make chunk_blocks None in
      Array.iteri
        (fun i blk ->
          if rep.(i) = i then begin
            let unit_id = uid i in
            let dag = span "dag.build" ~unit_id (fun () -> Dag.of_block blk) in
            let order =
              span "list_sched.seed" ~unit_id (fun () ->
                  List_sched.schedule options.Optimal.seed dag)
            in
            let seeded =
              span "omega.evaluate" ~unit_id (fun () ->
                  Omega.evaluate machine dag ~order)
            in
            let t0 = Unix.gettimeofday () in
            let o =
              span "bnb.search" ~unit_id (fun () ->
                  Optimal.schedule ~options machine dag)
            in
            let t1 = Unix.gettimeofday () in
            let vs =
              span "certify.check" ~unit_id (fun () ->
                  Certify.check machine blk o.Optimal.best
                  @ Certify.check_ordering
                      [ ("optimal", o.Optimal.best.Omega.nops);
                        ("list", o.Optimal.initial.Omega.nops) ]
                  @ Certify.check_semantics blk ~order:o.Optimal.best.Omega.order)
            in
            let st = o.Optimal.stats in
            acc.reps <- acc.reps + 1;
            acc.seed_nops <- acc.seed_nops + seeded.Omega.nops;
            acc.omega_calls <- acc.omega_calls + st.Optimal.omega_calls;
            acc.memo_hits <- acc.memo_hits + st.Optimal.memo_hits;
            if st.Optimal.completed then acc.proved <- acc.proved + 1;
            acc.violations <- acc.violations + List.length vs;
            records.(i) <-
              Some
                { Study.size = Block.length blk;
                  initial_nops = o.Optimal.initial.Omega.nops;
                  final_nops = o.Optimal.best.Omega.nops;
                  omega_calls = st.Optimal.omega_calls;
                  schedules_completed = st.Optimal.schedules_completed;
                  memo_hits = st.Optimal.memo_hits;
                  completed = st.Optimal.completed;
                  status = st.Optimal.status;
                  time_s = t1 -. t0;
                  unique = true }
          end)
        blocks;
      let records =
        Array.to_list
          (Array.mapi
             (fun i _ ->
               let r = Option.get records.(rep.(i)) in
               if rep.(i) = i then r else { r with Study.unique = false })
             blocks)
      in
      acc.total <- acc.total + chunk_blocks;
      ignore
        (span "study.aggregate" ~unit_id:k (fun () ->
             Study.aggregate ~total:chunk_blocks records));
      records)

let same_outcomes (a : Study.record list) (b : Study.record list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Study.record) (y : Study.record) ->
         x.Study.size = y.Study.size
         && x.Study.final_nops = y.Study.final_nops
         && x.Study.completed = y.Study.completed
         && x.Study.unique = y.Study.unique)
       a b

let run_traced ~seed ~seconds tally tr =
  let acc =
    { reps = 0; total = 0; seed_nops = 0; omega_calls = 0; memo_hits = 0;
      proved = 0; violations = 0 }
  in
  let cs0 = chunk_seed ~seed 0 in
  let t0 = Unix.gettimeofday () in
  let _, untraced_records = run_chunk cs0 in
  let untraced_wall = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let records0 = replay_chunk tr acc 0 cs0 in
  let traced_wall = Unix.gettimeofday () -. t0 in
  if not (same_outcomes records0 untraced_records) then
    Report.fail_run tally
      "study replay: chunk 0 records differ from Experiments.run_study";
  let stop = t0 +. seconds in
  let rec go k =
    if Unix.gettimeofday () < stop then begin
      ignore (replay_chunk tr acc k (chunk_seed ~seed k));
      go (k + 1)
    end
  in
  go 1;
  check_exhaustive ~seed tally untraced_records;
  tally.Report.attempted <- acc.total;
  if acc.violations > 0 then
    Report.fail_run tally
      (Printf.sprintf "study replay: %d certification violations" acc.violations);
  let ranked, wall, gap = Trace.layers tr ~root:"study.chunk" in
  let coverage = if wall > 0.0 then (wall -. gap) /. wall else 0.0 in
  let overhead = (traced_wall /. untraced_wall) -. 1.0 in
  let us = Trace.mean_us ranked in
  let per_block n = float_of_int n /. float_of_int (max 1 acc.reps) in
  let layer_metrics =
    [ ("generator.block_us", "us", us "generator.block");
      ("canonical.key_us", "us", us "canonical.key");
      ("dag.build_us", "us", us "dag.build");
      ("list_sched.seed_us", "us", us "list_sched.seed");
      ("list_sched.nops_mean", "NOPs", per_block acc.seed_nops);
      ("omega.evaluate_us", "us", us "omega.evaluate");
      ("bnb.search_us", "us", us "bnb.search");
      ("bnb.omega_calls", "count", per_block acc.omega_calls);
      ("bnb.memo_hits", "count", per_block acc.memo_hits);
      ("bnb.proved_ratio", "fraction", Report.share acc.proved acc.reps);
      ("certify.check_us", "us", us "certify.check");
      ("certify.violations", "count", float_of_int acc.violations);
      ("study.dedup_ratio", "fraction", Report.share acc.reps acc.total);
      ("study.aggregate_us", "us", us "study.aggregate");
      ("trace.coverage", "fraction", coverage);
      ("trace.overhead", "fraction", overhead) ]
  in
  (layer_metrics, (ranked, wall, gap), [], coverage, overhead)
