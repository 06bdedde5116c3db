(* Tests for Pipesched_harness: Stats, Study, Ablation, Experiments. *)

open Pipesched_harness
module Rng = Pipesched_prelude.Rng
open Helpers

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let feq name a b = check bool_t name true (abs_float (a -. b) < 1e-9)

let test_mean () =
  feq "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  feq "empty" 0.0 (Stats.mean []);
  feq "single" 7.0 (Stats.mean [ 7.0 ])

let test_stddev () =
  feq "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  feq "pair" 1.0 (Stats.stddev [ 1.0; 3.0 ]);
  feq "degenerate" 0.0 (Stats.stddev [ 2.0 ])

let test_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0 ] in
  feq "p0" 10.0 (Stats.percentile 0.0 xs);
  feq "p100" 40.0 (Stats.percentile 100.0 xs);
  feq "p50" 25.0 (Stats.percentile 50.0 xs);
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Stats.percentile 50.0 []));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile 150.0 xs))

let percentile_sorted_invariant =
  qtest ~count:200 "percentile is monotone and within min/max"
    QCheck2.Gen.(list_size (int_range 1 30) (float_bound_inclusive 100.0))
    (fun xs -> String.concat "," (List.map string_of_float xs))
    (fun xs ->
      let lo, hi = Stats.min_max xs in
      let p25 = Stats.percentile 25.0 xs in
      let p75 = Stats.percentile 75.0 xs in
      p25 <= p75 && lo <= p25 && p75 <= hi)

let test_min_max () =
  check bool_t "min_max" true (Stats.min_max [ 3.0; 1.0; 2.0 ] = (1.0, 3.0))

let test_group_by () =
  let groups = Stats.group_by (fun x -> x mod 3) [ 1; 2; 3; 4; 5; 6 ] in
  check bool_t "groups" true
    (groups = [ (0, [ 3; 6 ]); (1, [ 1; 4 ]); (2, [ 2; 5 ]) ])

let test_histogram () =
  let h = Stats.histogram ~bucket:5 [ 1; 2; 7; 12; 13; 14 ] in
  check bool_t "buckets" true (h = [ (0, 2); (5, 1); (10, 3) ]);
  check bool_t "empty bucket filled" true
    (Stats.histogram ~bucket:5 [ 1; 11 ] = [ (0, 1); (5, 0); (10, 1) ]);
  check bool_t "empty input" true (Stats.histogram ~bucket:5 [] = [])

(* ------------------------------------------------------------------ *)
(* Study                                                               *)

let test_run_block_record () =
  let rng = Rng.create 42 in
  let blk = random_block rng 12 in
  let r = Study.run_block machine blk in
  check int_t "size" 12 r.Study.size;
  check bool_t "final <= initial" true
    (r.Study.final_nops <= r.Study.initial_nops);
  check bool_t "time nonneg" true (r.Study.time_s >= 0.0);
  check bool_t "calls positive" true (r.Study.omega_calls >= 0)

let test_study_deterministic_results () =
  (* Modulo wall-clock, two same-seed studies agree. *)
  let strip r = { r with Study.time_s = 0.0 } in
  let study () =
    let results = Study.run ~seed:3 ~count:30 machine in
    check int_t "no contained failures" 0
      (List.length (Study.failures results));
    List.map strip (Study.records results)
  in
  check bool_t "deterministic" true (study () = study ())

let test_study_dedup_sound () =
  (* Dedup must not change what a study reports where transfer is sound:
     same population, same per-block optimum and completion status.
     (Counters like omega_calls describe the representative's search and
     may legitimately differ from a duplicate's own would-be search.) *)
  let with_d = Study.run ~dedup:true ~seed:11 ~count:40 machine in
  let without = Study.run ~dedup:false ~seed:11 ~count:40 machine in
  check int_t "same population" (List.length without) (List.length with_d);
  List.iter2
    (fun a b ->
      match (a, b) with
      | Study.Scheduled ra, Study.Scheduled rb ->
        check int_t "same size" rb.Study.size ra.Study.size;
        check bool_t "same completion" true
          (ra.Study.completed = rb.Study.completed);
        if ra.Study.completed then
          check int_t "same optimal nops" rb.Study.final_nops
            ra.Study.final_nops
      | Study.Failed _, Study.Failed _ -> ()
      | _ -> Alcotest.fail "dedup changed a block's fate")
    with_d without;
  (* dedup:false marks everything unique; the synthetic population may
     or may not contain canonical duplicates (big random blocks rarely
     collide) — run_dedup below tests the fan-out on guaranteed ones. *)
  check bool_t "all unique without dedup" true
    (List.for_all (fun r -> r.Study.unique) (Study.records without));
  let uniq, total, rate = Study.dedup_stats with_d in
  check int_t "total" 40 total;
  check bool_t "uniques bounded" true (uniq <= total);
  check bool_t "rate consistent" true
    (Float.abs (rate -. (1.0 -. (float_of_int uniq /. float_of_int total)))
    < 1e-9)

let test_run_dedup_fanout () =
  (* Guaranteed duplicates: isomorphic presentations (reordered +
     relabeled) of a handful of base blocks.  run_dedup must solve one
     representative per class and fan its record out byte-for-byte
     (modulo time_s / unique). *)
  let rng = Rng.create 77 in
  let bases = List.init 4 (fun i -> random_block rng (6 + i)) in
  let items =
    List.concat_map
      (fun b -> [ b; random_topo_reorder rng b; random_relabel rng b ])
      bases
  in
  let key b = (Pipesched_ir.Canonical.of_block b).Pipesched_ir.Canonical.key in
  let solve b = Study.run_block machine b in
  let results = Study.run_dedup ~jobs:2 ~key ~solve items in
  check int_t "population size" (List.length items) (List.length results);
  check int_t "no failures" 0 (List.length (Study.failures results));
  let uniq, total, rate = Study.dedup_stats results in
  check int_t "classes" 4 uniq;
  check int_t "total" 12 total;
  feq "rate" (2.0 /. 3.0) rate;
  (* Each class's three records agree where transfer is sound. *)
  let recs = Array.of_list (Study.records results) in
  List.iteri
    (fun i _ ->
      let rep = recs.(3 * i) in
      check bool_t "rep unique" true rep.Study.unique;
      List.iter
        (fun j ->
          let d = recs.((3 * i) + j) in
          check bool_t "dup marked" false d.Study.unique;
          check int_t "dup size" rep.Study.size d.Study.size;
          check int_t "dup nops" rep.Study.final_nops d.Study.final_nops;
          check int_t "dup calls" rep.Study.omega_calls d.Study.omega_calls;
          check bool_t "dup status" true (d.Study.status = rep.Study.status))
        [ 1; 2 ])
    bases;
  (* And the deduped optima match honest per-block searches. *)
  List.iter2
    (fun item r ->
      match r with
      | Study.Scheduled rec_ ->
        let fresh = Study.run_block machine item in
        check int_t "same optimum as fresh solve" fresh.Study.final_nops
          rec_.Study.final_nops
      | Study.Failed _ -> Alcotest.fail "unexpected failure")
    items results

(* Every field of every record but [time_s], for the Table 7 study
   with dedup on.  The dedup classes decide which records are fanned
   out ([unique], and the counters a duplicate copies), so a change to
   the canonical key that merged or split a class moves this digest;
   one that only renames classes does not. *)
let study_records_digest = "ead73e38fd717d5441210f8d2a582fe4"

let print_records buf results =
  List.iter
    (function
      | Study.Scheduled r ->
        Printf.bprintf buf "%d %d %d %d %d %d %b %s %b\n" r.Study.size
          r.Study.initial_nops r.Study.final_nops r.Study.omega_calls
          r.Study.schedules_completed r.Study.memo_hits r.Study.completed
          (Pipesched_prelude.Budget.status_to_string r.Study.status)
          r.Study.unique
      | Study.Failed f -> Printf.bprintf buf "failed %s\n" f.Study.exn)
    results

let test_study_records_pinned () =
  let results =
    Experiments.run_study ~count:1000 ~lambda:50_000 ~jobs:1 ~certify:true ()
  in
  let buf = Buffer.create 65536 in
  print_records buf results;
  check Alcotest.string "digest of the records" study_records_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The same records over 20,000 study blocks: 40 chunks of 500, chunk
   [k] drawn from [Schedule.seed_at ~seed:701 k] as perfbench's study
   workload draws them.  Any change to a search tree (the seed, the
   candidate order, a prune, the memo's slots) moves this digest. *)
let study_20k_digest = "92adef3829d98f69919d9f9ee3d3aeeb"

let test_study_20k_records_pinned () =
  let buf = Buffer.create (1 lsl 20) in
  for k = 0 to 39 do
    print_records buf
      (Experiments.run_study
         ~seed:(Pipesched_synth.Schedule.seed_at ~seed:701 k)
         ~count:500 ~lambda:50_000 ~jobs:1 ~certify:true ())
  done;
  check Alcotest.string "digest of 20,000 records" study_20k_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_aggregate () =
  let rec_ size initial final =
    { Study.size; initial_nops = initial; final_nops = final;
      omega_calls = 10; schedules_completed = 1; memo_hits = 0;
      completed = true; status = Pipesched_prelude.Budget.Complete;
      time_s = 0.0; unique = true }
  in
  let agg = Study.aggregate ~total:4 [ rec_ 10 5 1; rec_ 20 7 3 ] in
  check int_t "runs" 2 agg.Study.runs;
  feq "pct" 50.0 agg.Study.pct;
  feq "avg size" 15.0 agg.Study.avg_size;
  feq "avg initial" 6.0 agg.Study.avg_initial_nops;
  feq "avg final" 2.0 agg.Study.avg_final_nops

let test_by_size () =
  let rec_ size =
    { Study.size; initial_nops = 0; final_nops = 0; omega_calls = 0;
      schedules_completed = 0; memo_hits = 0; completed = true;
      status = Pipesched_prelude.Budget.Complete;
      time_s = 0.0; unique = true }
  in
  let groups = Study.by_size [ rec_ 5; rec_ 3; rec_ 5 ] in
  check bool_t "keys sorted" true (List.map fst groups = [ 3; 5 ]);
  check int_t "bucket size" 2 (List.length (List.assoc 5 groups))

(* ------------------------------------------------------------------ *)
(* Paper reference data                                                *)

let test_paper_data () =
  check int_t "table 1 rows" 11 (List.length Paper.table1);
  check int_t "totals" Paper.total_runs
    (Paper.table7_completed.Paper.runs + Paper.table7_truncated.Paper.runs);
  check bool_t "percentages sum to 100" true
    (abs_float
       (Paper.table7_completed.Paper.pct +. Paper.table7_truncated.Paper.pct
        -. 100.0)
     < 0.01)

(* ------------------------------------------------------------------ *)
(* Ablation and experiment drivers (smoke, small sizes)                *)

let test_ablation_smoke () =
  let rows = Ablation.run ~seed:1 ~count:20 ~lambda:5_000 machine in
  check int_t "all configs" 9 (List.length rows);
  List.iter
    (fun r ->
      check bool_t "pct in range" true
        (r.Ablation.completed_pct >= 0.0 && r.Ablation.completed_pct <= 100.0))
    rows;
  (* Paper mode must complete more than the no-alpha-beta config. *)
  let pct label =
    (List.find (fun r -> r.Ablation.label = label) rows)
      .Ablation.completed_pct
  in
  check bool_t "alpha-beta is essential" true
    (pct "paper (all prunings, list seed)"
     >= pct "- alpha-beta pruning [6]")

let test_experiments_printers_smoke () =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let study = Experiments.run_study ~seed:5 ~count:40 () in
  Experiments.print_machines fmt;
  Experiments.print_table6 fmt;
  Experiments.print_table7 fmt study;
  Experiments.print_fig1 fmt study;
  Experiments.print_fig4 fmt study;
  Experiments.print_fig5 fmt study;
  Experiments.print_fig6 fmt study;
  Experiments.print_fig7 fmt study;
  Experiments.print_kernel_study fmt;
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  List.iter
    (fun needle ->
      let contains =
        let n = String.length needle and h = String.length out in
        let rec go i =
          i + n <= h && (String.sub out i n = needle || go (i + 1))
        in
        go 0
      in
      check bool_t ("output mentions " ^ needle) true contains)
    [ "Table 7"; "Figure 1"; "Figure 4"; "Figure 5"; "Figure 6"; "Figure 7";
      "loader"; "multiplier"; "Operators"; "dot4"; "horner4" ]

let test_omega_cost_positive () =
  let c = Experiments.omega_cost () in
  check bool_t "positive and sane" true (c > 0.0 && c < 0.01)

(* ------------------------------------------------------------------ *)
(* Streaming aggregate                                                 *)

module Budget = Pipesched_prelude.Budget
module Json = Pipesched_prelude.Json

(* A synthetic record: the aggregate only reads fields, so literals keep
   the units under test explicit. *)
let mk_record ?(size = 10) ?(status = Budget.Complete) ?(time_s = 1e-3) () =
  {
    Study.size;
    initial_nops = 3;
    final_nops = 1;
    omega_calls = 100;
    schedules_completed = 2;
    memo_hits = 5;
    completed = status = Budget.Complete;
    status;
    time_s;
    unique = true;
  }

let test_agg_counters () =
  let a = Aggregate.create () in
  Aggregate.add_record a ~hash:1 (mk_record ~size:4 ());
  Aggregate.add_record a ~hash:2
    (mk_record ~size:30 ~status:Budget.Curtailed_lambda ());
  Aggregate.add_record a ~hash:1 ~from_cache:true (mk_record ~size:4 ());
  Aggregate.add_failure a;
  check int_t "blocks counts records and failures" 4 (Aggregate.blocks a);
  check int_t "failed" 1 (Aggregate.failed a);
  check int_t "completed" 2 (Aggregate.completed a);
  check int_t "dedup hits" 1 (Aggregate.dedup_hits a);
  let j = Aggregate.deterministic_json a in
  let geti k = Option.bind (Json.member k j) Json.to_int_opt in
  check bool_t "curtailed_lambda in render" true
    (geti "curtailed_lambda" = Some 1);
  check bool_t "sum_size adds every record" true (geti "sum_size" = Some 38);
  check bool_t "min/max size" true
    (geti "min_size" = Some 4 && geti "max_size" = Some 30);
  check bool_t "dedup hits excluded from render" true
    (Json.member "dedup_hits" j = None);
  (* Two distinct canonical hashes seen (hash 1 twice). *)
  check bool_t "distinct estimate exact below sketch capacity" true
    (Aggregate.distinct_estimate a = 2.0)

let test_agg_render_invariants () =
  (* from_cache and wall time may differ run to run and shard to shard;
     the byte-identity artifact must not see them. *)
  let a = Aggregate.create () and b = Aggregate.create () in
  Aggregate.add_record a ~hash:7 (mk_record ~time_s:0.5 ());
  Aggregate.add_record b ~hash:7 ~from_cache:true (mk_record ~time_s:0.002 ());
  check bool_t "render blind to from_cache and time" true
    (String.equal (Aggregate.render a) (Aggregate.render b));
  check bool_t "sum_time_s still tracked outside render" true
    (Aggregate.sum_time_s a = 0.5)

let agg_partition_invariance =
  qtest ~count:100 "merged shard aggregates render like the serial fold"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60)
           (pair (int_range 1 40) (int_bound 20)))
        (int_range 1 5))
    (fun (xs, k) -> Printf.sprintf "%d records, %d shards" (List.length xs) k)
    (fun (xs, shards) ->
      let statuses =
        [| Budget.Complete; Budget.Curtailed_lambda; Budget.Curtailed_deadline |]
      in
      let fold agg (size, h) =
        Aggregate.add_record agg ~hash:(Hashtbl.hash h)
          (mk_record ~size ~status:statuses.(h mod 3) ())
      in
      let serial = Aggregate.create () in
      List.iter (fold serial) xs;
      let n = List.length xs in
      let merged = Aggregate.create () in
      for k = 0 to shards - 1 do
        let lo = k * n / shards and hi = (k + 1) * n / shards in
        let part = Aggregate.create () in
        List.iteri (fun i x -> if i >= lo && i < hi then fold part x) xs;
        Aggregate.merge_into ~dst:merged part
      done;
      String.equal (Aggregate.render serial) (Aggregate.render merged))

let test_agg_json_roundtrip () =
  let a = Aggregate.create () in
  for i = 1 to 400 do
    Aggregate.add_record a ~hash:(Hashtbl.hash i)
      ~from_cache:(i mod 7 = 0)
      (mk_record ~size:(1 + (i mod 37))
         ~status:(if i mod 11 = 0 then Budget.Curtailed_lambda else Budget.Complete)
         ~time_s:(float_of_int i *. 1e-4)
         ())
  done;
  Aggregate.add_failure a;
  match Aggregate.of_json (Aggregate.to_json a) with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok b ->
    check bool_t "render survives the round trip" true
      (String.equal (Aggregate.render a) (Aggregate.render b));
    check int_t "dedup hits survive" (Aggregate.dedup_hits a)
      (Aggregate.dedup_hits b);
    check bool_t "sum_time_s survives" true
      (abs_float (Aggregate.sum_time_s a -. Aggregate.sum_time_s b) < 1e-9);
    check bool_t "time quantiles survive" true
      (Aggregate.time_quantile a 0.5 = Aggregate.time_quantile b 0.5);
    (* Round-tripped state must keep folding identically. *)
    Aggregate.add_record a ~hash:99999 (mk_record ());
    Aggregate.add_record b ~hash:99999 (mk_record ());
    check bool_t "still mergeable after reload" true
      (String.equal (Aggregate.render a) (Aggregate.render b))

let test_agg_distinct_estimate () =
  let a = Aggregate.create () in
  (* 200 distinct hashes, each seen 5 times: exact below the sketch's
     256-value capacity. *)
  for round = 1 to 5 do
    ignore round;
    for i = 1 to 200 do
      Aggregate.add_record a ~hash:(Hashtbl.hash (i * 7919)) (mk_record ())
    done
  done;
  check bool_t "exact below capacity" true
    (Aggregate.distinct_estimate a = 200.0);
  (* 20000 distinct hashes: the KMV estimate should land within 20%. *)
  let b = Aggregate.create () in
  for i = 1 to 20_000 do
    Aggregate.add_record b ~hash:(Hashtbl.hash (i * 31 + 17)) (mk_record ())
  done;
  let est = Aggregate.distinct_estimate b in
  check bool_t
    (Printf.sprintf "estimate %.0f within 20%% of 20000" est)
    true
    (est > 16_000.0 && est < 24_000.0)

let test_agg_time_quantile () =
  let a = Aggregate.create () in
  check bool_t "empty quantile is 0" true (Aggregate.time_quantile a 0.5 = 0.0);
  (* 90 fast blocks at ~100us, 10 slow at ~50ms: p50 must sit near the
     fast mode and p99 near the slow one (log-bucket resolution). *)
  for _ = 1 to 90 do
    Aggregate.add_record a ~hash:1 (mk_record ~time_s:1e-4 ())
  done;
  for _ = 1 to 10 do
    Aggregate.add_record a ~hash:1 (mk_record ~time_s:5e-2 ())
  done;
  let p50 = Aggregate.time_quantile a 0.5 in
  let p99 = Aggregate.time_quantile a 0.99 in
  check bool_t (Printf.sprintf "p50 %.2e near 1e-4" p50) true
    (p50 > 3e-5 && p50 < 3e-4);
  check bool_t (Printf.sprintf "p99 %.2e near 5e-2" p99) true
    (p99 > 1.5e-2 && p99 < 1.5e-1);
  check bool_t "monotone" true (p50 <= p99)

(* ------------------------------------------------------------------ *)
(* Mega checkpoints                                                    *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pipesched_mega_test_%d_%d" (Unix.getpid ())
         (Hashtbl.hash (Unix.gettimeofday ())))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
        (try Sys.readdir dir with _ -> [||]);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

let test_mega_checkpoint_roundtrip () =
  with_temp_dir (fun dir ->
      let cfg = { Mega.default with Mega.count = 100; checkpoint_dir = dir } in
      let agg = Aggregate.create () in
      for i = 1 to 30 do
        Aggregate.add_record agg ~hash:(Hashtbl.hash i) (mk_record ())
      done;
      Mega.write_checkpoint cfg ~shard:0 ~done_blocks:30 ~rss0_kb:1000 agg;
      (match Mega.read_checkpoint cfg ~shard:0 with
      | None -> Alcotest.fail "checkpoint did not read back"
      | Some (done_blocks, rss0, _rss, agg') ->
        check int_t "done" 30 done_blocks;
        check int_t "rss0" 1000 rss0;
        check bool_t "aggregate bytes survive" true
          (String.equal (Aggregate.render agg) (Aggregate.render agg')));
      check bool_t "absent shard reads None" true
        (Mega.read_checkpoint cfg ~shard:1 = None);
      (* A config that defines a different corpus must reject the
         checkpoint (stale files are ignored, not misapplied). *)
      check bool_t "fingerprint mismatch rejected" true
        (Mega.read_checkpoint { cfg with Mega.seed = cfg.Mega.seed + 1 }
           ~shard:0
         = None);
      check bool_t "fingerprint ignores result-transparent knobs" true
        (Mega.read_checkpoint
           { cfg with Mega.jobs = 8; dedup_capacity = 1; checkpoint_every = 7 }
           ~shard:0
         <> None);
      (* Corruption is detected, never parsed into a shard state. *)
      let oc = open_out (Mega.checkpoint_path cfg 0) in
      output_string oc "{ not json";
      close_out oc;
      check bool_t "corrupt checkpoint rejected" true
        (Mega.read_checkpoint cfg ~shard:0 = None))

(* A checkpoint made under an older canonical form must not be resumed:
   its aggregate counts other canonical hashes.  The config string below
   is the rendering from before the canonical version joined it. *)
let test_mega_older_form () =
  let module Json = Pipesched_prelude.Json in
  let module Machine = Pipesched_machine.Machine in
  with_temp_dir (fun dir ->
      let cfg = { Mega.default with Mega.count = 100; checkpoint_dir = dir } in
      Mega.write_checkpoint cfg ~shard:0 ~done_blocks:0 ~rss0_kb:1000
        (Aggregate.create ());
      check bool_t "current form read" true
        (Mega.read_checkpoint cfg ~shard:0 <> None);
      let older =
        Printf.sprintf
          "v1;seed=%d;count=%d;shards=%d;lambda=%d;certify=%b;machine=%s"
          cfg.Mega.seed cfg.Mega.count cfg.Mega.shards cfg.Mega.lambda
          cfg.Mega.certify
          (Machine.fingerprint
             (Option.get (Machine.Presets.find cfg.Mega.machine)))
      in
      let path = Mega.checkpoint_path cfg 0 in
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let fields =
        match Json.parse (String.trim text) with
        | Ok (Json.Assoc fields) -> fields
        | _ -> Alcotest.fail "checkpoint is not a JSON object"
      in
      let oc = open_out_bin path in
      output_string oc
        (Json.to_string
           (Json.Assoc
              (List.map
                 (fun (k, v) ->
                   if k = "config" then (k, Json.String older) else (k, v))
                 fields)));
      close_out oc;
      check bool_t "older form refused" true
        (Mega.read_checkpoint cfg ~shard:0 = None))

let test_mega_validate () =
  Alcotest.check_raises "shards >= 1"
    (Invalid_argument "Mega: shards must be >= 1") (fun () ->
      Mega.run ~resume:false { Mega.default with Mega.shards = 0 } |> ignore);
  Alcotest.check_raises "unknown preset"
    (Invalid_argument "Mega: unknown machine preset \"no-such\"") (fun () ->
      Mega.run ~resume:false { Mega.default with Mega.machine = "no-such" }
      |> ignore);
  (* Shard ranges partition [0, count) exactly, whatever the division
     remainder. *)
  List.iter
    (fun (count, shards) ->
      let cfg = { Mega.default with Mega.count = count; shards } in
      let ranges = List.init shards (Mega.shard_range cfg) in
      let total =
        List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges
      in
      check int_t
        (Printf.sprintf "%d blocks over %d shards" count shards)
        count total;
      ignore
        (List.fold_left
           (fun prev (lo, hi) ->
             check int_t "contiguous" prev lo;
             hi)
           0 ranges))
    [ (100, 3); (7, 4); (1, 1); (0, 2); (1000, 7) ];
  (* Below 64 blocks per shard the per-shard process overhead outweighs
     the parallelism, so requests are clamped (DESIGN.md §11). *)
  List.iter
    (fun (count, shards, expected) ->
      check int_t
        (Printf.sprintf "effective shards for %d blocks over %d" count shards)
        expected
        (Mega.effective_shards { Mega.default with Mega.count = count; shards }))
    [ (100, 4, 1); (255, 4, 3); (256, 4, 4); (0, 2, 1) ]

(* ------------------------------------------------------------------ *)
(* Keyed histograms                                                    *)

let test_timehist_count () =
  let h = Aggregate.Timehist.create () in
  check int_t "empty" 0 (Aggregate.Timehist.count h);
  List.iter (Aggregate.Timehist.add h) [ 1e-4; 2e-3; 5e-2; 0.7 ];
  check int_t "counts adds" 4 (Aggregate.Timehist.count h);
  check bool_t "quantile within range" true
    (let q = Aggregate.Timehist.quantile h 0.5 in
     q >= 1e-4 && q <= 0.7 *. 2.0)

let test_keyed_histogram () =
  let k = Aggregate.Keyed.create () in
  check bool_t "no keys" true (Aggregate.Keyed.keys k = []);
  check int_t "missing key count" 0 (Aggregate.Keyed.count k "hit");
  check bool_t "missing key quantile" true
    (Aggregate.Keyed.quantile k "hit" 0.5 = 0.0);
  List.iter (Aggregate.Keyed.add k "hit") [ 1e-4; 2e-4; 3e-4 ];
  Aggregate.Keyed.add k "fresh" 0.1;
  check bool_t "keys sorted" true
    (Aggregate.Keyed.keys k = [ "fresh"; "hit" ]);
  check int_t "per-key count" 3 (Aggregate.Keyed.count k "hit");
  check int_t "total" 4 (Aggregate.Keyed.total k);
  check bool_t "stages separated" true
    (Aggregate.Keyed.quantile k "fresh" 0.5
    > Aggregate.Keyed.quantile k "hit" 0.5)

(* Merging per-connection scorecards must agree with one serial fold —
   the property the --conns N client relies on. *)
let test_keyed_merge_partition_invariance () =
  let rng = Rng.create 0x4a11 in
  let samples =
    List.init 500 (fun _ ->
        ( (if Rng.bool rng then "hit" else "fresh"),
          1e-5 *. float_of_int (1 + Rng.int rng 100_000) ))
  in
  let serial = Aggregate.Keyed.create () in
  List.iter (fun (k, v) -> Aggregate.Keyed.add serial k v) samples;
  let merged = Aggregate.Keyed.create () in
  let parts = Array.init 4 (fun _ -> Aggregate.Keyed.create ()) in
  List.iteri
    (fun i (k, v) -> Aggregate.Keyed.add parts.(i mod 4) k v)
    samples;
  Array.iter (fun p -> Aggregate.Keyed.merge_into ~dst:merged p) parts;
  check bool_t "same keys" true
    (Aggregate.Keyed.keys serial = Aggregate.Keyed.keys merged);
  check int_t "same total" (Aggregate.Keyed.total serial)
    (Aggregate.Keyed.total merged);
  List.iter
    (fun key ->
      List.iter
        (fun q ->
          check bool_t
            (Printf.sprintf "%s q%.2f agrees" key q)
            true
            (Aggregate.Keyed.quantile serial key q
            = Aggregate.Keyed.quantile merged key q))
        [ 0.5; 0.9; 0.99 ])
    (Aggregate.Keyed.keys serial)

(* ------------------------------------------------------------------ *)
(* Loadgen                                                             *)

let test_loadgen_plan_deterministic () =
  let mk seed =
    Loadgen.plan ~dup_rate:0.5 ~seed ~shape:Loadgen.Ramp ~rps:16.0
      ~duration:2.0 ()
  in
  let a = mk 7 and b = mk 7 and c = mk 8 in
  check bool_t "same seed, identical stream" true
    (a.Loadgen.requests = b.Loadgen.requests);
  check bool_t "different seed, different stream" true
    (c.Loadgen.requests <> a.Loadgen.requests)

let test_loadgen_shapes () =
  List.iter
    (fun shape ->
      let p =
        Loadgen.plan ~dup_rate:0.3 ~seed:11 ~shape ~rps:10.0 ~duration:2.0 ()
      in
      let n = Array.length p.Loadgen.requests in
      check bool_t
        (Loadgen.shape_to_string shape ^ " generates traffic")
        true (n > 0);
      Array.iteri
        (fun i (r : Loadgen.request) ->
          check int_t "index is position" i r.Loadgen.index;
          check bool_t "times non-decreasing" true
            (i = 0
            || r.Loadgen.time
               >= p.Loadgen.requests.(i - 1).Loadgen.time))
        p.Loadgen.requests;
      (* Round-trip the name too. *)
      check bool_t "shape name round-trips" true
        (Loadgen.shape_of_string (Loadgen.shape_to_string shape) = Ok shape))
    [ Loadgen.Burst; Loadgen.Soak; Loadgen.Ramp; Loadgen.Mix ];
  check bool_t "unknown shape rejected" true
    (match Loadgen.shape_of_string "nope" with
    | Error _ -> true
    | Ok _ -> false)

let test_loadgen_classify () =
  let stage = Alcotest.testable (Fmt.of_to_string Loadgen.stage_to_string) ( = ) in
  let chk name want line = check stage name want (Loadgen.classify line) in
  chk "unparsable" Loadgen.Error "{nope";
  chk "refusal" Loadgen.Error
    "{\"id\":null,\"ok\":false,\"error\":\"shutting down\"}";
  chk "curtailed" Loadgen.Curtailed
    "{\"id\":0,\"ok\":true,\"completed\":false}";
  chk "hit" Loadgen.Hit
    "{\"id\":0,\"ok\":true,\"completed\":true,\"cached\":true}";
  chk "fresh detail" Loadgen.Fresh
    "{\"id\":0,\"ok\":true,\"completed\":true,\"cached\":false}";
  chk "fresh no detail" Loadgen.Fresh "{\"id\":0,\"ok\":true,\"completed\":true}";
  chk "degraded outranks curtailed" Loadgen.Degraded
    "{\"id\":0,\"ok\":true,\"completed\":false,\"degraded\":true}";
  chk "overload refusal" Loadgen.Rejected
    "{\"id\":0,\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":3}"

let test_loadgen_retry_policy () =
  check bool_t "overloaded is retryable" true
    (Loadgen.retryable
       "{\"id\":0,\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":3}");
  check bool_t "contained internal error is retryable" true
    (Loadgen.retryable
       "{\"id\":0,\"ok\":false,\"error\":\"internal error: Injected\"}");
  check bool_t "permanent error is not" false
    (Loadgen.retryable "{\"id\":0,\"ok\":false,\"error\":\"empty block\"}");
  check bool_t "success is not" false
    (Loadgen.retryable "{\"id\":0,\"ok\":true,\"completed\":true}");
  (* The retry marker is added, replaced, and parseable. *)
  let line = "{\"id\":4,\"machine\":\"simulation\",\"block\":\"1: Load #a\"}" in
  let r1 = Loadgen.retry_line line ~attempt:1 in
  let r2 = Loadgen.retry_line r1 ~attempt:2 in
  let retry_of l =
    match Pipesched_prelude.Json.parse l with
    | Ok j -> Pipesched_prelude.Json.member "retry" j
    | Error msg -> Alcotest.failf "retry_line unparsable: %s" msg
  in
  check bool_t "attempt 1 marked" true
    (retry_of r1 = Some (Pipesched_prelude.Json.Int 1));
  check bool_t "attempt 2 replaces, not stacks" true
    (retry_of r2 = Some (Pipesched_prelude.Json.Int 2));
  check bool_t "distinct bytes per attempt" true (r1 <> r2 && r1 <> line);
  (* Backoff: deterministic, exponential in the attempt, jitter-bounded. *)
  let d ~index ~attempt =
    Loadgen.backoff_delay_s ~seed:9 ~index ~attempt ~backoff_ms:100
  in
  check bool_t "replayable" true (d ~index:3 ~attempt:1 = d ~index:3 ~attempt:1);
  check bool_t "requests de-synchronized" true
    (d ~index:3 ~attempt:1 <> d ~index:4 ~attempt:1);
  List.iter
    (fun attempt ->
      let base = 0.1 *. (2.0 ** float_of_int (attempt - 1)) in
      let v = d ~index:0 ~attempt in
      check bool_t
        (Printf.sprintf "attempt %d within jitter band" attempt)
        true
        (v >= 0.5 *. base && v < 1.5 *. base))
    [ 1; 2; 3; 4 ]

(* Chaos determinism, the harness half: replaying one plan against two
   fresh servers with the same armed fault spec produces byte-identical
   deterministic reports, faults land (errors without degrade, degraded
   answers with it), and every request still gets exactly one terminal
   outcome. *)
let test_loadgen_chaos_deterministic () =
  let module Server = Pipesched_serve.Server in
  let module Fault = Pipesched_prelude.Fault in
  let plan =
    Loadgen.plan ~hot:4 ~dup_rate:0.4 ~seed:33 ~shape:Loadgen.Soak ~rps:20.0
      ~duration:2.0 ()
  in
  let n = Array.length plan.Loadgen.requests in
  let replay ~degrade () =
    Fault.arm [ (Fault.Solver, 0.2, 5) ];
    Fun.protect ~finally:Fault.disarm (fun () ->
        let server = Server.create ~cache_capacity:256 ~degrade () in
        let r =
          Loadgen.run_sync
            ~handle:(fun line -> Some (Server.handle_line server line))
            plan
        in
        (r, Server.contained server, Server.degraded_served server))
  in
  let det rep =
    Pipesched_prelude.Json.to_string (Loadgen.report_deterministic_json rep)
  in
  let r1, contained1, _ = replay ~degrade:false () in
  let r2, contained2, _ = replay ~degrade:false () in
  check bool_t "faults actually landed" true (r1.Loadgen.r_errors > 0);
  check bool_t "containment counted" true (contained1 > 0);
  check bool_t "chaos replay is byte-identical" true
    (String.equal (det r1) (det r2));
  check bool_t "containment replays too" true (contained1 = contained2);
  check int_t "one terminal outcome per request" n
    (r1.Loadgen.r_hits + r1.Loadgen.r_fresh + r1.Loadgen.r_curtailed
   + r1.Loadgen.r_degraded + r1.Loadgen.r_rejected + r1.Loadgen.r_errors
   + r1.Loadgen.r_drops);
  (* Same faults, degrading server: failures become degraded answers. *)
  let r3, contained3, degraded3 = replay ~degrade:true () in
  check int_t "no errors under degrade" 0 r3.Loadgen.r_errors;
  check bool_t "degraded answers instead" true
    (r3.Loadgen.r_degraded > 0 && degraded3 = r3.Loadgen.r_degraded);
  check bool_t "same faults either way" true (contained3 = contained1);
  check int_t "still one terminal outcome per request" n
    (r3.Loadgen.r_hits + r3.Loadgen.r_fresh + r3.Loadgen.r_curtailed
   + r3.Loadgen.r_degraded + r3.Loadgen.r_rejected + r3.Loadgen.r_errors
   + r3.Loadgen.r_drops)

(* Replay one plan serially against an in-process server: everything
   answers, duplicates hit the cache, and the deterministic report is
   byte-stable across fresh servers. *)
let test_loadgen_run_sync_server () =
  let module Server = Pipesched_serve.Server in
  let plan =
    Loadgen.plan ~hot:4 ~lambda:50_000 ~dup_rate:0.85 ~seed:21
      ~shape:Loadgen.Mix ~rps:15.0 ~duration:2.0 ()
  in
  let replay () =
    let server = Server.create ~cache_capacity:256 () in
    Loadgen.run_sync
      ~handle:(fun line -> Some (Server.handle_line server line))
      plan
  in
  let r = replay () in
  check int_t "no errors" 0 r.Loadgen.r_errors;
  check int_t "no drops" 0 r.Loadgen.r_drops;
  check int_t "everything answered"
    (Array.length plan.Loadgen.requests)
    (r.Loadgen.r_hits + r.Loadgen.r_fresh + r.Loadgen.r_curtailed);
  check bool_t "duplicates hit the cache" true (r.Loadgen.r_hit_rate > 0.5);
  check bool_t "fresh solves happened" true (r.Loadgen.r_fresh > 0);
  let deterministic rep =
    Pipesched_prelude.Json.to_string (Loadgen.report_deterministic_json rep)
  in
  check bool_t "deterministic report is replay-stable" true
    (String.equal (deterministic r) (deterministic (replay ())));
  (* The full report parses and carries the wall-clock fields. *)
  match
    Pipesched_prelude.Json.parse
      (Pipesched_prelude.Json.to_string (Loadgen.report_json r))
  with
  | Error msg -> Alcotest.failf "report_json unparsable: %s" msg
  | Ok j ->
    check bool_t "has wall_s" true
      (Pipesched_prelude.Json.member "wall_s" j <> None);
    check bool_t "has stages" true
      (Pipesched_prelude.Json.member "stages" j <> None)

let () =
  Alcotest.run "harness"
    [ ( "stats",
        [ Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          percentile_sorted_invariant;
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "group_by" `Quick test_group_by;
          Alcotest.test_case "histogram" `Quick test_histogram ] );
      ( "study",
        [ Alcotest.test_case "run_block record" `Quick test_run_block_record;
          Alcotest.test_case "deterministic" `Quick
            test_study_deterministic_results;
          Alcotest.test_case "dedup sound" `Quick test_study_dedup_sound;
          Alcotest.test_case "run_dedup fanout" `Quick test_run_dedup_fanout;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "by_size" `Quick test_by_size;
          Alcotest.test_case "records pinned" `Quick
            test_study_records_pinned;
          Alcotest.test_case "20,000 records pinned" `Quick
            test_study_20k_records_pinned ] );
      ( "aggregate",
        [ Alcotest.test_case "counter units" `Quick test_agg_counters;
          Alcotest.test_case "render invariants" `Quick
            test_agg_render_invariants;
          agg_partition_invariance;
          Alcotest.test_case "json round trip" `Quick test_agg_json_roundtrip;
          Alcotest.test_case "distinct estimate" `Quick
            test_agg_distinct_estimate;
          Alcotest.test_case "time quantile" `Quick test_agg_time_quantile ] );
      ( "mega",
        [ Alcotest.test_case "checkpoint round trip" `Quick
            test_mega_checkpoint_roundtrip;
          Alcotest.test_case "validate and shard ranges" `Quick
            test_mega_validate;
          Alcotest.test_case "older form refused" `Quick test_mega_older_form
        ] );
      ( "keyed",
        [ Alcotest.test_case "timehist count" `Quick test_timehist_count;
          Alcotest.test_case "keyed histogram" `Quick test_keyed_histogram;
          Alcotest.test_case "merge partition invariance" `Quick
            test_keyed_merge_partition_invariance ] );
      ( "loadgen",
        [ Alcotest.test_case "plan deterministic" `Quick
            test_loadgen_plan_deterministic;
          Alcotest.test_case "shapes" `Quick test_loadgen_shapes;
          Alcotest.test_case "classify" `Quick test_loadgen_classify;
          Alcotest.test_case "retry policy" `Quick test_loadgen_retry_policy;
          Alcotest.test_case "chaos deterministic" `Quick
            test_loadgen_chaos_deterministic;
          Alcotest.test_case "run_sync vs server" `Quick
            test_loadgen_run_sync_server ] );
      ( "paper",
        [ Alcotest.test_case "reference data" `Quick test_paper_data ] );
      ( "drivers",
        [ Alcotest.test_case "ablation smoke" `Quick test_ablation_smoke;
          Alcotest.test_case "experiment printers" `Quick
            test_experiments_printers_smoke;
          Alcotest.test_case "omega cost" `Quick test_omega_cost_positive ]
      ) ]
