(* The benchmark's own tests: seeded inputs are reproducible, the metric
   arithmetic is exact, and a benchmark killed mid-workload never leaves
   its daemon running. *)

open Perfbench
module Block = Pipesched_ir.Block
module Study = Pipesched_harness.Study

let lines reqs = Array.map (fun r -> r.Requests.line) reqs

let test_hot_lines () =
  let gen seed = Requests.serve_hot ~seed ~closed:300 ~opened:100 ~rate:1000.0 in
  let w1, c1, o1, d1 = gen 7 and w2, c2, o2, d2 = gen 7 in
  Alcotest.(check (array string)) "warm" (lines w1) (lines w2);
  Alcotest.(check (array string)) "closed" (lines c1) (lines c2);
  Alcotest.(check (array string)) "open" (lines o1) (lines o2);
  Alcotest.(check (array (float 0.0))) "due" d1 d2;
  (* a line made from its block's rendered rest is the full rendering *)
  Array.iter
    (fun (r : Requests.request) ->
      Alcotest.(check string) "line renders its block" r.Requests.line
        (Requests.line_of ~id:r.Requests.id
           ~machine:(Pipesched_prelude.Json.String "simulation")
           ~extra:Requests.hot_extra r.Requests.block))
    (Array.concat [ w1; c1; o1 ]);
  let _, c3, _, _ = gen 8 in
  Alcotest.(check bool) "another seed differs" false (lines c1 = lines c3)

let test_race_lines () =
  let gen seed =
    Requests.serve_race ~seed ~fill:4 ~closed:60 ~opened:20 ~rate:100.0
  in
  let f1, c1, o1, _ = gen 7 and f2, c2, o2, _ = gen 7 in
  Alcotest.(check (array string)) "fill" (lines f1) (lines f2);
  Alcotest.(check (array string)) "closed" (lines c1) (lines c2);
  Alcotest.(check (array string)) "open" (lines o1) (lines o2)

(* The population the traced replay regenerates is the one
   [Experiments.run_study] schedules, block for block. *)
let test_study_population () =
  let cs = Study_wl.chunk_seed ~seed:3 0 in
  let texts () = Array.map Block.to_string (Study_wl.population cs) in
  Alcotest.(check (array string)) "same blocks" (texts ()) (texts ());
  let _, records = Study_wl.run_chunk cs in
  Alcotest.(check (list int)) "sizes match the study's records"
    (Array.to_list (Array.map Block.length (Study_wl.population cs)))
    (List.map (fun (r : Study.record) -> r.Study.size) records)

let test_arithmetic () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.5 (Report.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p99" 99.01 (Report.percentile 99.0 xs);
  Alcotest.(check (float 1e-9)) "median of one" 3.0 (Report.median [ 3.0 ]);
  Alcotest.(check (float 1e-9)) "share" 0.75 (Report.share 3 4);
  Alcotest.(check (float 1e-9)) "share of none" 0.0 (Report.share 1 0);
  Alcotest.(check bool) "p99 of 1000" true (Report.supported ~samples:1000 99.0);
  Alcotest.(check bool) "p99 of 999" false (Report.supported ~samples:999 99.0);
  (* windows [1..10], [11..20], [21..30]: medians 5.5, 15.5, 25.5 *)
  Alcotest.(check (float 1e-9)) "windowed median" 15.5
    (Report.windowed_percentile ~window:10 50.0
       (List.init 30 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (float 1e-9)) "one window is all samples" 50.5
    (Report.windowed_percentile ~window:1000 50.0 xs)

(* ---------------------------------------------------------------- *)
(* Reaping                                                           *)

let bench = "../bench.exe"

let alive pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> false
  | ic ->
    let line = input_line ic in
    close_in ic;
    (* the state follows the parenthesized command name; a zombie has
       exited *)
    let i = String.rindex line ')' in
    line.[i + 2] <> 'Z'

let wait_gone pid ~within =
  let deadline = Unix.gettimeofday () +. within in
  while alive pid && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  not (alive pid)

(* Starts the benchmark on serve-hot and returns once it reports its
   closed loop, with the pid of the daemon it is driving. *)
let start_mid_workload out =
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process bench
      [| bench; "--workload"; "serve-hot"; "--seed"; "1"; "--seconds"; "6";
         "--trace"; "0"; "--out"; out |]
      Unix.stdin Unix.stdout err_w
  in
  Unix.close err_w;
  let ic = Unix.in_channel_of_descr err_r in
  let daemon = ref None in
  let rec read () =
    match input_line ic with
    | exception End_of_file -> Alcotest.fail "benchmark ended before its closed loop"
    | l ->
      (match Scanf.sscanf_opt l "perfbench: serve-hot daemon pid %d" Fun.id with
       | Some d -> daemon := Some d
       | None -> ());
      if not (String.ends_with ~suffix:"closed loop" l) then read ()
  in
  read ();
  (pid, Option.get !daemon, ic)

let test_reap_on_sigterm () =
  let pid, daemon, ic = start_mid_workload "reaper-term" in
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  close_in ic;
  Alcotest.(check bool) "benchmark exits nonzero" true (status <> Unix.WEXITED 0);
  Alcotest.(check bool) "daemon reaped by the benchmark" false (alive daemon)

let test_daemon_exits_after_sigkill () =
  let pid, daemon, ic = start_mid_workload "reaper-kill" in
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  close_in ic;
  Alcotest.(check bool) "daemon exits within 10 s of losing its stdin" true
    (wait_gone daemon ~within:10.0)

let () =
  Alcotest.run "perfbench"
    [ ( "inputs",
        [ Alcotest.test_case "serve-hot lines are seeded" `Quick test_hot_lines;
          Alcotest.test_case "serve-race lines are seeded" `Quick test_race_lines;
          Alcotest.test_case "study population is seeded" `Quick
            test_study_population ] );
      ("arithmetic", [ Alcotest.test_case "percentiles and shares" `Quick test_arithmetic ]);
      ( "reaping",
        [ Alcotest.test_case "SIGTERM mid-workload reaps the daemon" `Quick
            test_reap_on_sigterm;
          Alcotest.test_case "SIGKILL mid-workload: the daemon exits on EOF"
            `Quick test_daemon_exits_after_sigkill ] ) ]
