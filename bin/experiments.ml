(* Regenerate the tables and figures of the paper (see DESIGN.md §4). *)

module E = Pipesched_harness.Experiments
module Mega = Pipesched_harness.Mega
module Aggregate = Pipesched_harness.Aggregate

let sections = List.map fst (E.sections ())

(* --progress heartbeats: stderr, rate-limited to ~1/s, off by default.
   Both callbacks run on worker domains (study) or the master select
   loop (mega); the [last] race between domains is harmless (worst
   case: one extra line). *)
let study_heartbeat () =
  let t0 = Unix.gettimeofday () in
  let last = ref 0.0 in
  fun done_ ->
    let now = Unix.gettimeofday () in
    if now -. !last >= 1.0 then begin
      last := now;
      Printf.eprintf "\r[study] %d searches done  %.1f/s   %!" done_
        (float_of_int done_ /. (now -. t0))
    end

let mega_heartbeat () =
  let last = ref 0.0 in
  fun (p : Mega.progress) ->
    let now = Unix.gettimeofday () in
    if now -. !last >= 1.0 then begin
      last := now;
      let fresh = p.Mega.done_blocks - p.Mega.resumed in
      let rate =
        if p.Mega.elapsed_s > 0.0 then
          float_of_int fresh /. p.Mega.elapsed_s
        else 0.0
      in
      let eta =
        if rate > 0.0 then
          float_of_int (p.Mega.total - p.Mega.done_blocks) /. rate
        else 0.0
      in
      Printf.eprintf
        "\r[mega] %d/%d blocks  %.0f blocks/s  ETA %.0fs  shards %d/%d live   %!"
        p.Mega.done_blocks p.Mega.total rate eta p.Mega.live_shards
        p.Mega.shards
    end

let run_mega ~count ~seed ~lambda ~jobs ~certify ~shards
    ~checkpoint_every ~checkpoint_dir ~resume ~progress ~mega_out
    ~dedup_capacity =
  let cfg =
    {
      Mega.default with
      Mega.seed;
      count;
      shards;
      jobs = (match jobs with None -> 1 | Some j -> max 1 j);
      lambda;
      dedup_capacity;
      checkpoint_every;
      checkpoint_dir;
      certify;
    }
  in
  let progress_cb = if progress then Some (mega_heartbeat ()) else None in
  match Mega.run ?progress:progress_cb ~resume cfg with
  | Error msg ->
    if progress then prerr_newline ();
    prerr_endline msg;
    1
  | Ok (agg, stats) ->
    if progress then prerr_newline ();
    Format.printf "Mega study: %d blocks over %d shards (seed %d)@." count
      (Mega.effective_shards cfg) seed;
    Format.printf
      "this run: %d searched (+%d resumed) in %.1fs = %.1f blocks/s, max RSS \
       ratio %.2f@."
      stats.Mega.processed stats.Mega.resumed stats.Mega.wall_s
      stats.Mega.blocks_per_s stats.Mega.max_rss_ratio;
    Aggregate.pp Format.std_formatter agg;
    let line = Aggregate.render agg ^ "\n" in
    (match mega_out with
    | Some path ->
      let oc = open_out path in
      output_string oc line;
      close_out oc;
      Format.printf "aggregate written to %s@." path
    | None -> Format.printf "aggregate: %s@." (Aggregate.render agg));
    0

let run count seed quick lambda deadline_ms block_deadline_ms strong no_memo
    memo_capacity jobs strict certify backend mega shards
    checkpoint_every checkpoint_dir resume progress mega_out dedup_capacity
    only =
  if Pipesched_core.Scheduler.find backend = None then begin
    Format.eprintf "unknown backend %S (have: %s)@." backend
      (String.concat ", " Pipesched_core.Scheduler.names);
    exit 2
  end;
  if memo_capacity < 1 then begin
    Format.eprintf "--memo-capacity must be at least 1 (got %d)@." memo_capacity;
    exit 2
  end;
  let count = if quick then min count 1_000 else count in
  let jobs = if jobs <= 0 then None else Some jobs in
  let to_s ms = Option.map (fun m -> float_of_int m /. 1000.0) ms in
  let deadline_s = to_s deadline_ms in
  let block_deadline_s = to_s block_deadline_ms in
  let memo =
    { Pipesched_core.Optimal.default_memo with
      Pipesched_core.Optimal.memo_enabled = not no_memo;
      Pipesched_core.Optimal.memo_capacity }
  in
  if mega > 0 then
    run_mega ~count:mega ~seed ~lambda ~jobs ~certify ~shards
      ~checkpoint_every ~checkpoint_dir ~resume ~progress ~mega_out
      ~dedup_capacity
  else begin
  let progress = if progress then Some (study_heartbeat ()) else None in
  let fmt = Format.std_formatter in
  (match only with
   | [] ->
     E.run_all ~seed ~count ~lambda ~strong ~memo ?deadline_s
       ?block_deadline_s ?jobs ~strict ~certify ~backend ?progress fmt
   | wanted ->
     List.iter
       (fun section ->
         if not (List.mem section sections) then begin
           Format.eprintf "unknown section %S (have: %s)@." section
             (String.concat ", " sections);
           exit 2
         end)
       wanted;
     let printers =
       E.sections ~seed ~count ~lambda ~strong ~memo ?deadline_s
         ?block_deadline_s ?jobs ~strict ~certify ~backend ?progress ()
     in
     List.iter (fun section -> (List.assoc section printers) fmt) wanted);
  if progress <> None then prerr_newline ();
  0
  end

open Cmdliner

let count =
  let doc = "Number of synthetic blocks in the main study (paper: 16000)." in
  Arg.(value & opt int 16_000 & info [ "count"; "n" ] ~doc)

let seed =
  let doc = "Random seed for all generated populations." in
  Arg.(value & opt int 1990 & info [ "seed" ] ~doc)

let quick =
  let doc = "Cap the study at 1000 blocks for a fast smoke run." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let lambda =
  let doc = "Curtail point: maximum Omega calls per block." in
  Arg.(value & opt int 50_000 & info [ "lambda" ] ~doc)

let deadline_ms =
  let doc =
    "Wall-clock deadline in milliseconds for the $(i,whole) main study \
     (anytime mode): blocks whose turn comes after expiry record their \
     list-schedule incumbents with a Curtailed_deadline status and the \
     sweep still completes."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ]
        ~env:(Cmd.Env.info "PIPESCHED_DEADLINE_MS")
        ~doc)

let block_deadline_ms =
  let doc =
    "Wall-clock deadline in milliseconds for $(i,each block's) search in \
     the main study (anytime mode per block)."
  in
  Arg.(value & opt (some int) None & info [ "block-deadline-ms" ] ~doc)

let strong =
  let doc =
    "Enable the strong-equivalence pruning extension (still optimal)."
  in
  Arg.(value & flag & info [ "strong" ] ~doc)

let no_memo =
  let doc =
    "Disable the dominance-memoization extension (the transposition \
     table over scheduled-sets).  The memo never changes reported \
     optima, only the Omega calls spent reaching them."
  in
  Arg.(value & flag & info [ "no-memo" ] ~doc)

let memo_capacity =
  let doc =
    "Capacity (entries, at least 1, rounded up to a power of two) of the \
     dominance memo table."
  in
  Arg.(value & opt int 4_096 & info [ "memo-capacity" ] ~doc)

let jobs =
  let doc =
    "Worker domains for the studies (0 = auto: \\$(b,PIPESCHED_JOBS) or \
     the recommended domain count).  Results are identical at any job \
     count; only wall-clock time changes."
  in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~doc)

let strict =
  let doc =
    "Fail fast: let the first per-block exception in the main study kill \
     the sweep instead of being contained as a Failed record."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let certify =
  let doc =
    "Re-check every schedule in the main study with the independent \
     certifier (constraints, NOP accounting, ordering, semantics).  A \
     certification failure is contained as a Failed record (or kills \
     the sweep under $(b,--strict))."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let backend =
  let doc =
    "Scheduler backend for the main study: $(b,bnb) (the paper's \
     branch-and-bound, default), $(b,cp) (the propagation/learning \
     solver), $(b,portfolio) (bnb then cp in restart rounds), or \
     $(b,list)."
  in
  Arg.(value & opt string "bnb" & info [ "backend" ] ~doc)

let mega =
  let doc =
    "Run a sharded mega study over $(docv) blocks instead of the paper \
     sections: worker processes stream per-block records to a \
     constant-memory aggregate, with checkpoint/resume (see \
     $(b,--shards), $(b,--checkpoint-every), $(b,--resume)).  The \
     aggregate is byte-identical at any $(b,--shards)/$(b,--jobs).  \
     $(b,--seed), $(b,--lambda), $(b,--jobs) and $(b,--certify) apply; \
     0 (the default) disables mega mode."
  in
  Arg.(value & opt int 0 & info [ "mega" ] ~doc ~docv:"BLOCKS")

let shards =
  let doc = "Worker $(i,processes) for the mega study." in
  Arg.(value & opt int 2 & info [ "shards" ] ~doc)

let checkpoint_every =
  let doc =
    "Blocks between atomic per-shard checkpoints in the mega study; a \
     killed run loses at most this many blocks per shard."
  in
  Arg.(value & opt int 1_000 & info [ "checkpoint-every" ] ~doc)

let checkpoint_dir =
  let doc = "Directory for mega-study shard checkpoints." in
  Arg.(
    value & opt string "mega-checkpoints" & info [ "checkpoint-dir" ] ~doc)

let resume =
  let doc =
    "Resume the mega study from the checkpoints in \
     $(b,--checkpoint-dir): completed shards are replayed from their \
     checkpoint, interrupted ones restart at their last one.  The flags \
     defining the corpus ($(b,--mega), $(b,--seed), $(b,--shards), \
     $(b,--lambda), ...) must match the checkpointed run; mismatched \
     checkpoints are ignored."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let progress =
  let doc =
    "Emit a rate-limited heartbeat on stderr (blocks done, blocks/sec, \
     ETA, shard liveness) during the main study or a mega run."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let mega_out =
  let doc =
    "Write the mega study's deterministic aggregate (one JSON line) to \
     $(docv) — the byte-identity artifact CI diffs across shard counts \
     and kill/resume runs."
  in
  Arg.(value & opt (some string) None & info [ "mega-out" ] ~doc ~docv:"FILE")

let dedup_capacity =
  let doc =
    "Per-shard canonical-dedup LRU capacity (entries) in the mega study; \
     0 disables dedup.  Result-transparent: only wall-clock time \
     changes."
  in
  Arg.(value & opt int 65_536 & info [ "dedup-capacity" ] ~doc)

let only =
  let doc =
    Printf.sprintf "Run only the named sections (repeatable): %s."
      (String.concat ", " sections)
  in
  Arg.(value & opt_all string [] & info [ "only" ] ~doc)

let cmd =
  let doc =
    "reproduce the tables and figures of Nisar & Dietz (ICPP 1990)"
  in
  Cmd.v
    (Cmd.info "pipesched-experiments" ~doc)
    Term.(
      const run $ count $ seed $ quick $ lambda $ deadline_ms
      $ block_deadline_ms $ strong $ no_memo $ memo_capacity $ jobs
      $ strict $ certify $ backend $ mega $ shards $ checkpoint_every
      $ checkpoint_dir $ resume $ progress $ mega_out $ dedup_capacity
      $ only)

let () =
  (* Must run before cmdliner sees argv: a [--mega-worker] invocation is
     a shard of a mega study re-executing this binary. *)
  Mega.run_if_worker ();
  exit (Cmd.eval' cmd)
