(* The repository benchmark.

     bash perfbench/run.sh --workload study|serve-hot|serve-race|all
                           --seed N --seconds S --trace 0|1

   builds the benchmark and [bin/pipesched_server.exe], then runs this
   program from the root of the checkout.  It prints every metric by
   name with its unit, then, as the last line of standard output, one
   JSON object: [{"correct", "attempted", "failed", "metrics"}].  With
   [--trace 0] the metrics are the end-to-end ones; with [--trace 1] a
   separate traced run gives the per-layer ones.  Any failed output
   check makes it exit 1.

   A unit is a study block or a daemon request.  End-to-end metrics:
   - setup_s: median of several set-ups — a fresh process of this
     program until it is ready to study; a fresh daemon until it answers
     a ping, plus serve-hot's warm pass;
   - units_per_s: study blocks generated, scheduled, certified and
     aggregated per second; daemon requests completed per second in a
     closed loop on two connections.  Both are totals over the whole
     run, not medians of shorter stretches: the host's speed drifts
     between levels over seconds, and a median jumps between those
     levels where a total moves with the share of time spent at each;
   - latency_*_ms: a study block's search time; a request's time from
     its due time to its answer in an open loop at a fixed rate;
   - proved_share: units whose optimality was proved, over units;
   - nops_mean: mean NOPs of the returned schedules (the paper's mu);
   - peak_rss_mb: VmHWM of the study's process or of the daemon.

   Workloads, and why each was chosen:
   - study: the paper's §5.3 / Table 7 experiment in-process (bnb at
     lambda 50,000, canonical dedup, certify, one domain).  Generation,
     the frontend and the search dominate; no JSON, cache or daemon code
     runs, so a serving change must read "no change" here.
   - serve-hot: the daemon's cache read side.  95% of requests re-present
     a hot-pool block (half byte-identical, half isomorphic relabelings),
     5% are fresh; JSON, Block.parse, Canonical, Lru and the socket
     plumbing do nearly all the work, and the fresh 5% show head-of-line
     blocking in the tail.
   - serve-race: the cache write side in a full cache: every request is
     a distinct block raced by the portfolio at lambda 10,000 with
     certification, alternating the simulation preset with seeded random
     machines.  The race's timing makes this workload too unsteady on a
     2-core host to gate a change on, so it is not in BENCHMARK.json;
     serve-hot's traced run replays its request stream in-process to
     measure the write-side layers.

   Output goes under [--out] (default perfbench/out): traces, ranked
   profiles and the private directories of the children, which are
   removed before exit. *)

module Json = Pipesched_prelude.Json
open Perfbench

let workloads = [ "study"; "serve-hot"; "serve-race" ]

(* The end-to-end metrics in the result line (BENCHMARK.json's
   [end_to_end]).  The table also prints the p90 and p99 latencies and
   their sample count: on a 2-core host, millisecond stalls from outside
   the program decide the serving tail from run to run, so the tail is
   reported but not gated. *)
let end_to_end =
  [ "setup_s"; "units_per_s"; "latency_p50_ms"; "proved_share"; "nops_mean";
    "peak_rss_mb" ]

(* Every per-layer metric, in report order; a workload prints all of
   them, with 0 for a layer it does not run. *)
let per_layer =
  [ ("json.parse_us", "us"); ("json.render_us", "us");
    ("block.parse_us", "us"); ("machine.resolve_us", "us");
    ("canonical.key_us", "us"); ("canonical.apply_us", "us");
    ("lru.find_us", "us"); ("lru.hit_ratio", "fraction");
    ("lru.put_us", "us"); ("lru.evictions", "fraction");
    ("server.handle_us", "us"); ("daemon.wait_us", "us");
    ("daemon.queue_depth_max", "count"); ("server_io.overhead_us", "us");
    ("generator.block_us", "us"); ("dag.build_us", "us");
    ("list_sched.seed_us", "us"); ("list_sched.nops_mean", "NOPs");
    ("omega.evaluate_us", "us"); ("bnb.search_us", "us");
    ("bnb.omega_calls", "count"); ("bnb.memo_hits", "count");
    ("bnb.proved_ratio", "fraction"); ("portfolio.race_us", "us");
    ("portfolio.presolved_share", "fraction");
    ("portfolio.wins_bnb", "fraction"); ("portfolio.wins_cp", "fraction");
    ("portfolio.neither", "fraction"); ("cp.solve_us", "us");
    ("bnb.solve_us", "us"); ("portfolio.oracle_ratio", "ratio");
    ("certify.check_us", "us"); ("certify.violations", "count");
    ("study.dedup_ratio", "fraction"); ("study.aggregate_us", "us");
    ("trace.coverage", "fraction"); ("trace.overhead", "fraction") ]

(* The traced run's spans must cover at least this share of its wall
   time inside each unit (a request or a study chunk). *)
let min_coverage = 0.9

let study_setup_samples = 25

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  server : string;
  out : string;
}

let usage () =
  prerr_endline
    "usage: bench --workload study|serve-hot|serve-race|all --seed N \
     --seconds S --trace 0|1 [--server EXE] [--out DIR]";
  exit 2

let parse_args () =
  let here = Filename.dirname Sys.executable_name in
  let o =
    ref
      { workload = "all"; seed = 1; seconds = 10.0; trace = false;
        server = Filename.concat here "../bin/pipesched_server.exe";
        out = "perfbench/out" }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if w <> "all" && not (List.mem w workloads) then usage ();
      o := { !o with workload = w };
      go rest
    | "--seed" :: n :: rest ->
      o := { !o with seed = (match int_of_string_opt n with Some n -> n | None -> usage ()) };
      go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some s when s > 0.0 -> o := { !o with seconds = s }
       | _ -> usage ());
      go rest
    | "--trace" :: t :: rest ->
      (match t with
       | "0" -> o := { !o with trace = false }
       | "1" -> o := { !o with trace = true }
       | _ -> usage ());
      go rest
    | "--server" :: p :: rest ->
      o := { !o with server = p };
      go rest
    | "--out" :: p :: rest ->
      o := { !o with out = p };
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !o

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Study set-up: runtime and library start of a fresh process of this
   program, until it reports ready — the point where a study would
   begin.  Median of several starts. *)
let study_setup_s ~out =
  let samples =
    List.init study_setup_samples (fun k ->
        let dir = Filename.concat out (Printf.sprintf "p-%d-%d" (Unix.getpid ()) k) in
        let t0 = Unix.gettimeofday () in
        let c = Child.spawn ~exe:Sys.executable_name ~args:[ "--setup-probe" ] ~dir in
        let ready = Child.read_line c in
        let dt = Unix.gettimeofday () -. t0 in
        ignore (Child.stop c);
        if ready <> Some "ready" then failwith "setup probe did not report ready";
        dt)
  in
  Report.median samples

let run_one o ~out workload =
  let tally = Report.tally () in
  let metrics =
    if not o.trace then
      match workload with
      | "study" ->
        let setup_s = study_setup_s ~out in
        Study_wl.run_untraced ~seed:o.seed ~seconds:o.seconds ~setup_s tally
      | name ->
        let cfg = if name = "serve-hot" then Serve_wl.hot else Serve_wl.race in
        Serve_wl.run_untraced cfg ~server:o.server ~out ~seed:o.seed
          ~seconds:o.seconds tally
    else begin
      let tr = Trace.create () in
      let layer_metrics, layers, sections, coverage, overhead =
        match workload with
        | "study" -> Study_wl.run_traced ~seed:o.seed ~seconds:o.seconds tally tr
        | name ->
          let cfg = if name = "serve-hot" then Serve_wl.hot else Serve_wl.race in
          Serve_wl.run_traced cfg ~server:o.server ~out ~seed:o.seed
            ~seconds:o.seconds tally tr
      in
      if coverage < min_coverage then
        Report.fail_run tally
          (Printf.sprintf "trace coverage %.3f is below %.2f" coverage min_coverage);
      let stem = Printf.sprintf "%s-seed%d" workload o.seed in
      Trace.write_jsonl tr (Filename.concat out ("trace-" ^ stem ^ ".jsonl"));
      let oc = open_out (Filename.concat out ("profile-" ^ stem ^ ".json")) in
      output_string oc
        (Json.to_string
           (Trace.profile_json ~workload ~seed:o.seed ~coverage ~overhead
              layers sections));
      output_char oc '\n';
      close_out oc;
      List.map
        (fun (name, unit_) ->
          let v =
            match List.find_opt (fun (n, _, _) -> n = name) layer_metrics with
            | Some (_, _, v) -> v
            | None -> 0.0
          in
          Report.metric name unit_ v)
        per_layer
    end
  in
  List.iter (fun r -> Printf.eprintf "perfbench: %s: %s\n%!" workload r)
    (List.rev tally.Report.reasons);
  Report.print_table ~workload metrics;
  Printf.printf "%-12s %-28s %16d of %d units\n" workload "failed"
    tally.Report.failed tally.Report.attempted;
  ( tally,
    if o.trace then metrics
    else List.filter (fun m -> List.mem m.Report.name end_to_end) metrics )

(* SIGINT/SIGTERM are blocked in every thread and taken synchronously by
   a watcher thread, which reaps every child and exits; SIGUSR1 from the
   main thread releases the watcher on a normal exit so it can be
   joined. *)
let watch_signals ~on_signal =
  let signals = [ Sys.sigint; Sys.sigterm; Sys.sigusr1 ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK signals);
  Thread.create
    (fun () ->
      let s = Thread.wait_signal signals in
      if s <> Sys.sigusr1 then begin
        on_signal ();
        exit (if s = Sys.sigint then 130 else 143)
      end)
    ()

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--setup-probe" then begin
    print_endline "ready";
    exit 0
  end;
  let o = parse_args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let out = absolute o.out in
  let server = absolute o.server in
  if not (Sys.file_exists server) then begin
    Printf.eprintf "perfbench: no daemon executable at %s\n" server;
    exit 2
  end;
  mkdir_p out;
  (* A private working directory: anything the in-process code writes
     to its cwd (a portfolio repro) lands here and fails the run. *)
  let work = Filename.concat out (Printf.sprintf "w-%d" (Unix.getpid ())) in
  Unix.mkdir work 0o700;
  let cleanup () =
    Child.cleanup_all ();
    Child.rm_rf work
  in
  let watcher = watch_signals ~on_signal:cleanup in
  Sys.chdir work;
  let o = { o with server } in
  let code =
    match
      List.map
        (fun w -> (w, run_one o ~out w))
        (if o.workload = "all" then workloads else [ o.workload ])
    with
    | results ->
      let leftovers = Array.to_list (Sys.readdir work) in
      cleanup ();
      let correct =
        leftovers = []
        && List.for_all (fun (_, (t, _)) -> Report.ok t) results
      in
      if leftovers <> [] then
        Printf.eprintf "perfbench: the run left %s in its working directory\n%!"
          (String.concat ", " leftovers);
      let sum f = List.fold_left (fun acc (_, (t, _)) -> acc + f t) 0 results in
      let metrics =
        match results with
        | [ (_, (_, ms)) ] -> ms
        | _ ->
          List.concat_map
            (fun (w, (_, ms)) ->
              List.map (fun m -> { m with Report.name = w ^ "." ^ m.Report.name }) ms)
            results
      in
      print_endline
        (Report.result_line ~correct
           ~attempted:(max 1 (sum (fun t -> t.Report.attempted)))
           ~failed:(sum (fun t -> t.Report.failed))
           metrics);
      if correct then 0 else 1
    | exception e ->
      cleanup ();
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      2
  in
  Unix.kill (Unix.getpid ()) Sys.sigusr1;
  Thread.join watcher;
  exit code
