open Pipesched_ir
open Pipesched_machine
module Json = Pipesched_prelude.Json
module Budget = Pipesched_prelude.Budget
module Lru = Pipesched_prelude.Lru
module Pool = Pipesched_parallel.Pool
module Generator = Pipesched_synth.Generator
module Schedule = Pipesched_synth.Schedule
module Optimal = Pipesched_core.Optimal

type config = {
  seed : int;
  count : int;
  shards : int;
  jobs : int;
  lambda : int;
  dedup_capacity : int;
  checkpoint_every : int;
  checkpoint_dir : string;
  machine : string;
  certify : bool;
}

let default =
  {
    seed = 1990;
    count = 10_000;
    shards = 2;
    jobs = 1;
    lambda = 50_000;
    dedup_capacity = 65_536;
    checkpoint_every = 1_000;
    checkpoint_dir = "mega-checkpoints";
    machine = "simulation";
    certify = false;
  }

let shard_range cfg k =
  (k * cfg.count / cfg.shards, (k + 1) * cfg.count / cfg.shards)

(* Tiny shards are pure overhead: every worker process pays fork/exec,
   checkpoint and streaming setup for a handful of blocks, and at small
   corpora more shards measurably *lose* throughput (the crossover sits
   near 64 blocks per shard — DESIGN.md §11).  Requests beyond
   [count / min_shard_blocks] are clamped with a warning instead of
   honored.  Result-transparent: the aggregate is shard-count-invariant
   by construction, so only wall-clock time changes. *)
let min_shard_blocks = 64

let effective_shards cfg =
  min cfg.shards (max 1 (cfg.count / min_shard_blocks))

let resolve_machine cfg =
  match Machine.Presets.find cfg.machine with
  | Some m -> m
  | None ->
    invalid_arg (Printf.sprintf "Mega: unknown machine preset %S" cfg.machine)

let validate cfg =
  if cfg.count < 0 then invalid_arg "Mega: negative count";
  if cfg.shards < 1 then invalid_arg "Mega: shards must be >= 1";
  if cfg.jobs < 1 then invalid_arg "Mega: jobs must be >= 1";
  if cfg.lambda < 1 then invalid_arg "Mega: lambda must be >= 1";
  if cfg.dedup_capacity < 0 then invalid_arg "Mega: negative dedup_capacity";
  if cfg.checkpoint_every < 1 then
    invalid_arg "Mega: checkpoint_every must be >= 1";
  ignore (resolve_machine cfg)

(* Everything that determines the deterministic aggregate — and nothing
   that doesn't ([jobs], [dedup_capacity], [checkpoint_every] are all
   result-transparent), so a resume may legally change those.  The
   canonical form is among it: the aggregate counts canonical hashes,
   and the searches run on canonical blocks. *)
let config_fingerprint cfg =
  Printf.sprintf
    "v1;canonical=%d;seed=%d;count=%d;shards=%d;lambda=%d;certify=%b;machine=%s"
    Canonical.version cfg.seed cfg.count cfg.shards cfg.lambda cfg.certify
    (Machine.fingerprint (resolve_machine cfg))

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let jint name j = Option.bind (Json.member name j) Json.to_int_opt
let jfloat name j = Option.bind (Json.member name j) Json.to_float_opt
let jstr name j = Option.bind (Json.member name j) Json.to_string_opt
let jbool name j = Option.bind (Json.member name j) Json.to_bool_opt

let status_of_string = function
  | "Complete" -> Some Budget.Complete
  | "Curtailed_lambda" -> Some Budget.Curtailed_lambda
  | "Curtailed_deadline" -> Some Budget.Curtailed_deadline
  | _ -> None

let rss_kb () =
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
  with _ -> 0

(* ------------------------------------------------------------------ *)
(* Checkpoints: write-temp + rename, so a checkpoint file is always
   either the previous complete one or the new complete one.           *)

let checkpoint_path cfg shard =
  Filename.concat cfg.checkpoint_dir (Printf.sprintf "shard-%04d.json" shard)

let write_checkpoint cfg ~shard ~done_blocks ~rss0_kb agg =
  let lo, hi = shard_range cfg shard in
  let j =
    Json.Assoc
      [
        ("schema", Json.Int 1);
        ("config", Json.String (config_fingerprint cfg));
        ("shard", Json.Int shard);
        ("lo", Json.Int lo);
        ("hi", Json.Int hi);
        ("done", Json.Int done_blocks);
        ("rss0_kb", Json.Int rss0_kb);
        ("rss_kb", Json.Int (rss_kb ()));
        ("aggregate", Aggregate.to_json agg);
      ]
  in
  let path = checkpoint_path cfg shard in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

let read_checkpoint cfg ~shard =
  let path = checkpoint_path cfg shard in
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in_noerr ic;
      match Json.parse (String.trim s) with
      | Error _ -> None
      | Ok j -> (
        let lo, hi = shard_range cfg shard in
        match
          ( jint "schema" j,
            jstr "config" j,
            jint "shard" j,
            jint "lo" j,
            jint "hi" j,
            jint "done" j,
            jint "rss0_kb" j,
            jint "rss_kb" j,
            Json.member "aggregate" j )
        with
        | ( Some 1,
            Some fp,
            Some sh,
            Some l,
            Some h,
            Some d,
            Some r0,
            Some r1,
            Some aj )
          when fp = config_fingerprint cfg
               && sh = shard && l = lo && h = hi && d >= 0 && d <= hi - lo
          -> (
          match Aggregate.of_json aj with
          | Ok agg when Aggregate.blocks agg = d -> Some (d, r0, r1, agg)
          | _ -> None)
        | _ -> None)
    with _ -> None

(* ------------------------------------------------------------------ *)
(* The line protocol (worker stdout -> master).  One JSON object per
   line: a start announcement, then per-block records / failures, then
   a final summary carrying a fingerprint of the worker's own aggregate
   render — a free end-to-end integrity check on the IPC stream.       *)

let start_line ~shard ~start =
  Json.to_string
    (Json.Assoc [ ("shard", Json.Int shard); ("start", Json.Int start) ])

let record_line ~idx ~hash ~from_cache (r : Study.record) =
  Json.to_string
    (Json.Assoc
       [
         ("i", Json.Int idx);
         ("h", Json.Int hash);
         ("c", Json.Bool from_cache);
         ("sz", Json.Int r.Study.size);
         ("i0", Json.Int r.Study.initial_nops);
         ("fn", Json.Int r.Study.final_nops);
         ("oc", Json.Int r.Study.omega_calls);
         ("sc", Json.Int r.Study.schedules_completed);
         ("mh", Json.Int r.Study.memo_hits);
         ("st", Json.String (Budget.status_to_string r.Study.status));
         ("t", Json.Float r.Study.time_s);
       ])

let failure_line ~idx (f : Pool.failure) =
  Json.to_string
    (Json.Assoc [ ("i", Json.Int idx); ("fail", Json.String f.Pool.exn) ])

let final_line ~shard ~done_blocks ~fp =
  Json.to_string
    (Json.Assoc
       [
         ("shard", Json.Int shard);
         ("done", Json.Int done_blocks);
         ("fp", Json.Int fp);
       ])

type line =
  | L_start of { start : int }
  | L_record of { hash : int; from_cache : bool; record : Study.record }
  | L_failure
  | L_final of { done_blocks : int; fp : int }

let parse_line s : (line, string) result =
  match Json.parse s with
  | Error e -> Error e
  | Ok j -> (
    match jint "i" j with
    | Some _ -> (
      match jstr "fail" j with
      | Some _ -> Ok L_failure
      | None -> (
        match
          ( jint "h" j,
            jbool "c" j,
            jint "sz" j,
            jint "i0" j,
            jint "fn" j,
            jint "oc" j,
            jint "sc" j,
            jint "mh" j,
            Option.bind (jstr "st" j) status_of_string,
            jfloat "t" j )
        with
        | ( Some hash,
            Some from_cache,
            Some size,
            Some initial_nops,
            Some final_nops,
            Some omega_calls,
            Some schedules_completed,
            Some memo_hits,
            Some status,
            Some time_s ) ->
          Ok
            (L_record
               {
                 hash;
                 from_cache;
                 record =
                   {
                     Study.size;
                     initial_nops;
                     final_nops;
                     omega_calls;
                     schedules_completed;
                     memo_hits;
                     completed = status = Budget.Complete;
                     status;
                     time_s;
                     unique = not from_cache;
                   };
               })
        | _ -> Error "malformed record line"))
    | None -> (
      match (jint "start" j, jint "done" j, jint "fp" j) with
      | Some start, _, _ -> Ok (L_start { start })
      | None, Some done_blocks, Some fp -> Ok (L_final { done_blocks; fp })
      | _ -> Error "unrecognized line"))

let agg_fingerprint agg = Canonical.hash_string (Aggregate.render agg)

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)

(* Crash injection for the kill-and-resume CI smoke:
   PIPESCHED_MEGA_CRASH="<shard>:<n>" SIGKILLs that shard's worker the
   moment its absolute progress reaches [n] blocks — mid-stream, between
   checkpoints. *)
let crash_spec () =
  match Sys.getenv_opt "PIPESCHED_MEGA_CRASH" with
  | None -> None
  | Some s -> (
    match String.index_opt s ':' with
    | None -> None
    | Some i -> (
      try
        Some
          ( int_of_string (String.sub s 0 i),
            int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )
      with _ -> None))

let worker_main cfg ~shard ~resume =
  validate cfg;
  if cfg.jobs > 1 then
    (* Domains make minor GCs stop-the-world barriers, so larger minor
       heaps (4M words = 32 MB) mean fewer of them. *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let machine = resolve_machine cfg in
  let lo, hi = shard_range cfg shard in
  let n = hi - lo in
  let start, rss0, agg =
    if resume then
      match read_checkpoint cfg ~shard with
      | Some (d, r0, _, a) -> (d, r0, a)
      | None -> (0, 0, Aggregate.create ())
    else (0, 0, Aggregate.create ())
  in
  let out = stdout in
  output_string out (start_line ~shard ~start);
  output_char out '\n';
  flush out;
  let cache = Lru.create ~capacity:cfg.dedup_capacity in
  let options = { Optimal.default_options with Optimal.lambda = cfg.lambda } in
  (* Solve the *canonical* block, so the record is a pure function of
     the block's canonical class and an LRU hit replays exactly what a
     fresh search would report (dedup transparency — see mega.mli). *)
  let solve idx =
    let bseed = Schedule.seed_at ~seed:cfg.seed idx in
    let blk = Generator.of_seed bseed in
    let l = Canonical.label (Dag.of_block blk) in
    match Lru.find cache l.Canonical.key with
    | Some r -> (l.Canonical.hash, true, { r with Study.unique = false })
    | None ->
      let r =
        Study.run_block ~options ~certify:cfg.certify machine
          (Canonical.materialize l)
      in
      Lru.put cache l.Canonical.key r;
      (l.Canonical.hash, false, r)
  in
  let crash = crash_spec () in
  let done_ = ref start in
  let last_ckpt = ref start in
  let rss0 = ref rss0 in
  let buf = Buffer.create 65536 in
  let emit_pending () =
    output_string out (Buffer.contents buf);
    Buffer.clear buf;
    flush out
  in
  let checkpoint () =
    (* RSS baseline = first checkpoint of the run's life, i.e. after the
       caches have taken shape; the flat-memory evidence compares the
       final RSS against this. *)
    if !rss0 = 0 then rss0 := rss_kb ();
    write_checkpoint cfg ~shard ~done_blocks:!done_ ~rss0_kb:!rss0 agg;
    last_ckpt := !done_
  in
  let maybe_crash () =
    match crash with
    | Some (s, after) when s = shard && !done_ >= after ->
      emit_pending ();
      Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ()
  in
  let batch_size = max 1 (min 512 (cfg.jobs * 32)) in
  while !done_ < n do
    let b = min batch_size (n - !done_) in
    let idxs = List.init b (fun i -> lo + !done_ + i) in
    let results = Pool.parallel_map_result ~jobs:cfg.jobs solve idxs in
    List.iter2
      (fun idx res ->
        (match res with
        | Ok (hash, from_cache, r) ->
          Buffer.add_string buf (record_line ~idx ~hash ~from_cache r);
          Buffer.add_char buf '\n';
          Aggregate.add_record agg ~from_cache ~hash r
        | Error f ->
          Buffer.add_string buf (failure_line ~idx f);
          Buffer.add_char buf '\n';
          Aggregate.add_failure agg);
        incr done_;
        maybe_crash ();
        if !done_ - !last_ckpt >= cfg.checkpoint_every then (
          emit_pending ();
          checkpoint ()))
      idxs results;
    emit_pending ()
  done;
  checkpoint ();
  output_string out (final_line ~shard ~done_blocks:n ~fp:(agg_fingerprint agg));
  output_char out '\n';
  flush out

(* ------------------------------------------------------------------ *)
(* Worker argv convention                                              *)

let worker_arg cfg ~shard ~resume =
  Json.to_string
    (Json.Assoc
       [
         ("seed", Json.Int cfg.seed);
         ("count", Json.Int cfg.count);
         ("shards", Json.Int cfg.shards);
         ("jobs", Json.Int cfg.jobs);
         ("lambda", Json.Int cfg.lambda);
         ("dedup_capacity", Json.Int cfg.dedup_capacity);
         ("checkpoint_every", Json.Int cfg.checkpoint_every);
         ("checkpoint_dir", Json.String cfg.checkpoint_dir);
         ("machine", Json.String cfg.machine);
         ("certify", Json.Bool cfg.certify);
         ("shard", Json.Int shard);
         ("resume", Json.Bool resume);
       ])

let worker_of_arg s =
  match Json.parse s with
  | Error e -> Error ("bad worker config: " ^ e)
  | Ok j -> (
    let ( let* ) = Option.bind in
    let parsed =
      let* seed = jint "seed" j in
      let* count = jint "count" j in
      let* shards = jint "shards" j in
      let* jobs = jint "jobs" j in
      let* lambda = jint "lambda" j in
      let* dedup_capacity = jint "dedup_capacity" j in
      let* checkpoint_every = jint "checkpoint_every" j in
      let* checkpoint_dir = jstr "checkpoint_dir" j in
      let* machine = jstr "machine" j in
      let* certify = jbool "certify" j in
      let* shard = jint "shard" j in
      let* resume = jbool "resume" j in
      Some
        ( {
            seed;
            count;
            shards;
            jobs;
            lambda;
            dedup_capacity;
            checkpoint_every;
            checkpoint_dir;
            machine;
            certify;
          },
          shard,
          resume )
    in
    match parsed with
    | Some v -> Ok v
    | None -> Error "bad worker config: missing or mistyped field")

let run_if_worker () =
  if Array.length Sys.argv >= 3 && Sys.argv.(1) = "--mega-worker" then (
    (match worker_of_arg Sys.argv.(2) with
    | Ok (cfg, shard, resume) -> (
      try worker_main cfg ~shard ~resume
      with e ->
        Printf.eprintf "mega worker %d: %s\n%!" shard (Printexc.to_string e);
        Stdlib.exit 3)
    | Error e ->
      Printf.eprintf "mega worker: %s\n%!" e;
      Stdlib.exit 3);
    Stdlib.exit 0)

(* ------------------------------------------------------------------ *)
(* Master                                                              *)

(* [Unix.WSIGNALED] carries OCaml's portable signal numbers (negative);
   name the common ones rather than leak e.g. -7 for SIGKILL. *)
let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigpipe then "SIGPIPE"
  else Printf.sprintf "signal %d" s

type progress = {
  total : int;
  done_blocks : int;
  resumed : int;
  live_shards : int;
  shards : int;
  elapsed_s : float;
}

type stats = {
  wall_s : float;
  processed : int;
  resumed : int;
  blocks_per_s : float;
  max_rss_ratio : float;
}

type shard_state = {
  shard : int;
  lo : int;
  hi : int;
  agg : Aggregate.t;
  start : int;  (* blocks replayed from this shard's checkpoint *)
  mutable streamed : int;  (* blocks folded from the live stream *)
  mutable final : (int * int) option;  (* worker's (done, fingerprint) *)
  mutable pid : int;
  buf : Buffer.t;
  mutable err : string option;
}

let mkdir_p dir =
  let rec go d =
    if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
    else (
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  in
  go dir

let clear_checkpoints cfg =
  match Sys.readdir cfg.checkpoint_dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        if String.length f >= 6 && String.sub f 0 6 = "shard-" then
          try Sys.remove (Filename.concat cfg.checkpoint_dir f)
          with Sys_error _ -> ())
      files

let process_line st line =
  match parse_line line with
  | Error e ->
    if st.err = None then
      st.err <- Some (Printf.sprintf "shard %d: bad line (%s)" st.shard e)
  | Ok (L_start { start }) ->
    if start <> st.start && st.err = None then
      st.err <-
        Some
          (Printf.sprintf
             "shard %d resumed at block %d but the master read %d from its \
              checkpoint"
             st.shard start st.start)
  | Ok (L_record { hash; from_cache; record }) ->
    Aggregate.add_record st.agg ~from_cache ~hash record;
    st.streamed <- st.streamed + 1
  | Ok L_failure ->
    Aggregate.add_failure st.agg;
    st.streamed <- st.streamed + 1
  | Ok (L_final { done_blocks; fp }) -> st.final <- Some (done_blocks, fp)

let drain_buffer st =
  let s = Buffer.contents st.buf in
  let rec go pos =
    match String.index_from_opt s pos '\n' with
    | Some nl ->
      process_line st (String.sub s pos (nl - pos));
      go (nl + 1)
    | None ->
      Buffer.clear st.buf;
      Buffer.add_substring st.buf s pos (String.length s - pos)
  in
  go 0

let run ?(exe = Sys.executable_name) ?progress ~resume cfg =
  validate cfg;
  (* Clamp before the fingerprint is computed, so workers, checkpoints
     and resumes all see the same (effective) shard count. *)
  let cfg =
    let eff = effective_shards cfg in
    if eff < cfg.shards then begin
      Printf.eprintf
        "mega: clamping %d shards to %d (%d blocks, min %d blocks per \
         shard)\n\
         %!"
        cfg.shards eff cfg.count min_shard_blocks;
      { cfg with shards = eff }
    end
    else cfg
  in
  mkdir_p cfg.checkpoint_dir;
  if not resume then clear_checkpoints cfg;
  let t_start = Unix.gettimeofday () in
  let states =
    Array.init cfg.shards (fun k ->
        let lo, hi = shard_range cfg k in
        let start, agg =
          if resume then
            match read_checkpoint cfg ~shard:k with
            | Some (d, _, _, a) -> (d, a)
            | None -> (0, Aggregate.create ())
          else (0, Aggregate.create ())
        in
        {
          shard = k;
          lo;
          hi;
          agg;
          start;
          streamed = 0;
          final = None;
          pid = -1;
          buf = Buffer.create 4096;
          err = None;
        })
  in
  let resumed = Array.fold_left (fun a st -> a + st.start) 0 states in
  let live = Hashtbl.create 16 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Array.iter
    (fun st ->
      let n = st.hi - st.lo in
      if st.start >= n then
        (* Shard already complete in its checkpoint: nothing to spawn;
           its fold *is* the checkpoint aggregate. *)
        st.final <- Some (n, agg_fingerprint st.agg)
      else (
        (* cloexec: shard B must not inherit (and hold open) shard A's
           pipe write end, or A's EOF would wait on B's exit. *)
        let r, w = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process exe
            [| exe; "--mega-worker"; worker_arg cfg ~shard:st.shard ~resume |]
            devnull w Unix.stderr
        in
        Unix.close w;
        st.pid <- pid;
        Hashtbl.replace live r st))
    states;
  Unix.close devnull;
  let chunk = Bytes.create 65536 in
  let report () =
    match progress with
    | None -> ()
    | Some f ->
      let done_blocks =
        Array.fold_left (fun a st -> a + st.start + st.streamed) 0 states
      in
      f
        {
          total = cfg.count;
          done_blocks;
          resumed;
          live_shards = Hashtbl.length live;
          shards = cfg.shards;
          elapsed_s = Unix.gettimeofday () -. t_start;
        }
  in
  while Hashtbl.length live > 0 do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) live [] in
    let ready, _, _ = Unix.select fds [] [] 0.5 in
    List.iter
      (fun fd ->
        let st = Hashtbl.find live fd in
        let nread =
          try Unix.read fd chunk 0 (Bytes.length chunk)
          with Unix.Unix_error _ -> 0
        in
        if nread = 0 then (
          Hashtbl.remove live fd;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          let _, status = Unix.waitpid [] st.pid in
          match status with
          | Unix.WEXITED 0 -> ()
          | Unix.WEXITED c ->
            if st.err = None then
              st.err <-
                Some (Printf.sprintf "shard %d exited with code %d" st.shard c)
          | Unix.WSIGNALED s ->
            if st.err = None then
              st.err <-
                Some
                  (Printf.sprintf "shard %d killed by %s" st.shard
                     (signal_name s))
          | Unix.WSTOPPED s ->
            if st.err = None then
              st.err <-
                Some
                  (Printf.sprintf "shard %d stopped by %s" st.shard
                     (signal_name s)))
        else (
          Buffer.add_subbytes st.buf chunk 0 nread;
          drain_buffer st))
      ready;
    report ()
  done;
  let errors = ref [] in
  let add_error e = errors := e :: !errors in
  Array.iter
    (fun st ->
      let n = st.hi - st.lo in
      match st.err with
      | Some e -> add_error e
      | None -> (
        match st.final with
        | None ->
          add_error
            (Printf.sprintf "shard %d ended without a final summary" st.shard)
        | Some (d, fp) ->
          if d <> n then
            add_error
              (Printf.sprintf "shard %d finished at %d/%d blocks" st.shard d n)
          else if st.start + st.streamed <> n then
            add_error
              (Printf.sprintf "shard %d: master folded %d of %d blocks"
                 st.shard (st.start + st.streamed) n)
          else if agg_fingerprint st.agg <> fp then
            add_error
              (Printf.sprintf
                 "shard %d: aggregate fingerprint mismatch between worker and \
                  master (IPC corruption?)"
                 st.shard)))
    states;
  if !errors <> [] then
    Error
      (String.concat "\n" (List.rev !errors)
      ^ "\n(completed work is checkpointed; re-run with --resume to continue)")
  else begin
    let total = Aggregate.create () in
    Array.iter (fun st -> Aggregate.merge_into ~dst:total st.agg) states;
    let wall_s = Unix.gettimeofday () -. t_start in
    let processed = cfg.count - resumed in
    let max_rss_ratio =
      Array.fold_left
        (fun acc st ->
          match read_checkpoint cfg ~shard:st.shard with
          | Some (_, r0, r1, _) when r0 > 0 ->
            Float.max acc (float_of_int r1 /. float_of_int r0)
          | _ -> acc)
        0.0 states
    in
    Ok
      ( total,
        {
          wall_s;
          processed;
          resumed;
          blocks_per_s =
            (if wall_s > 0.0 then float_of_int processed /. wall_s else 0.0);
          max_rss_ratio;
        } )
  end
