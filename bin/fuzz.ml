(* Differential fuzzing harness: random machine descriptions x random
   compiled blocks, every scheduler, every result independently
   certified.  Cases whose (machine fingerprint, canonical block) pair
   was already fuzzed are answered from the earlier verdict instead of
   re-run — small random blocks recur, and certifying an isomorphic
   presentation on the same machine proves nothing new.  A failing case
   is shrunk greedily and written to fuzz-repro/fuzz-repro-<seed>.json
   (directory created on demand) so it can be replayed and minimized
   further by hand.  Exit status: 0 = all cases clean, 1 = at least one
   failure. *)

open Pipesched_ir
open Pipesched_machine
open Pipesched_sched
open Pipesched_core
module Rng = Pipesched_prelude.Rng
module Json = Pipesched_prelude.Json
module Generator = Pipesched_synth.Generator
module Certify = Pipesched_verify.Certify

(* ------------------------------------------------------------------ *)
(* One case: run every scheduler and collect labelled violations.      *)

let run_case ~lambda machine blk =
  let violations = ref [] in
  let add label vs =
    List.iter (fun v -> violations := (label, Certify.explain v) :: !violations) vs
  in
  (try
     let dag = Dag.of_block blk in
     let options = { Optimal.default_options with Optimal.lambda } in
     let certify label (r : Omega.result) =
       add label (Certify.check machine blk r);
       add (label ^ " semantics") (Certify.check_semantics blk ~order:r.Omega.order)
     in
     let opt = Optimal.schedule ~options machine dag in
     certify "optimal" opt.Optimal.best;
     certify "optimal initial" opt.Optimal.initial;
     let multi, _choice = Optimal.schedule_multi ~options machine dag in
     certify "optimal-multi" multi.Optimal.best;
     let win = Windowed.schedule ~options ~window:4 machine dag in
     certify "windowed" win.Windowed.best;
     let evaluate label order =
       let r = Omega.evaluate machine dag ~order in
       certify label r;
       r
     in
     let list_r = evaluate "list" (List_sched.schedule List_sched.Max_distance dag) in
     let greedy_r = evaluate "greedy" (Baselines.greedy machine dag) in
     let gross_r = evaluate "gross" (Baselines.gross machine dag) in
     (match Optimal.schedule_bounded ~options ~registers:8 machine dag with
      | Ok bounded -> certify "optimal bounded(8)" bounded.Optimal.best
      | Error () -> ());
     (* NOP-count ordering.  The optimal and windowed searches both seed
        from the list schedule, so these hold even when curtailed. *)
     let nops (r : Omega.result) = r.Omega.nops in
     add "ordering"
       (Certify.check_ordering
          [ ("optimal", nops opt.Optimal.best); ("list", nops list_r) ]);
     add "ordering"
       (Certify.check_ordering
          [ ("optimal-multi", nops multi.Optimal.best); ("list", nops list_r) ]);
     add "ordering"
       (Certify.check_ordering
          [ ("windowed", nops win.Windowed.best); ("list", nops list_r) ]);
     (* A completed search is provably optimal: no other scheduler may
        beat it.  (Windowed vs greedy/gross is unordered — both are
        heuristics — so only optimal-vs-each is checked.) *)
     if opt.Optimal.stats.Optimal.completed then
       List.iter
         (fun other ->
           add "ordering"
             (Certify.check_ordering
                [ ("optimal", nops opt.Optimal.best); other ]))
         [ ("windowed", nops win.Windowed.best);
           ("greedy", nops greedy_r);
           ("gross", nops gross_r) ]
   with exn ->
     add "scheduler crash"
       [ Certify.Check_crashed { what = Printexc.to_string exn } ]);
  List.rev !violations

(* One case, single-backend mode (--backend NAME): dispatch through the
   Scheduler registry, certify best and initial, check the outcome
   contract (proved ⟹ best realizes the proof), and cross-check any
   optimality proof against an independent branch-and-bound run of the
   same case.  The portfolio backend also checks that the schedule it
   holds realizes each proof and raises Portfolio.Disagreement — caught
   below like any scheduler crash.  Either way a wrong proof is a failing case, which
   this fuzzer (the one shrinker) reduces into a repro. *)

let run_case_backend ~lambda ~backend machine blk =
  let violations = ref [] in
  let add label vs =
    List.iter (fun v -> violations := (label, Certify.explain v) :: !violations) vs
  in
  let bug label what = add label [ Certify.Check_crashed { what } ] in
  (try
     let dag = Dag.of_block blk in
     let options = { Optimal.default_options with Optimal.lambda } in
     let sched name =
       match Scheduler.find name with
       | Some (module B : Scheduler.S) -> B.schedule ~options machine dag
       | None -> invalid_arg ("unknown backend " ^ name)
     in
     let certify label (r : Omega.result) =
       add label (Certify.check machine blk r);
       add (label ^ " semantics")
         (Certify.check_semantics blk ~order:r.Omega.order)
     in
     let o = sched backend in
     certify backend o.Scheduler.best;
     certify (backend ^ " initial") o.Scheduler.initial;
     add "ordering"
       (Certify.check_ordering
          [ (backend, o.Scheduler.best.Omega.nops);
            (backend ^ " initial", o.Scheduler.initial.Omega.nops) ]);
     (match o.Scheduler.proved with
      | Some p when p <> o.Scheduler.best.Omega.nops ->
        bug (backend ^ " proof")
          (Printf.sprintf "proved optimum %d but best schedule has %d NOPs" p
             o.Scheduler.best.Omega.nops)
      | _ -> ());
     if o.Scheduler.completed <> (o.Scheduler.proved <> None) then
       bug (backend ^ " contract")
         (Printf.sprintf "completed %b but proved %s" o.Scheduler.completed
            (match o.Scheduler.proved with
             | None -> "nothing"
             | Some p -> string_of_int p));
     if backend <> "bnb" then begin
       (* Differential check against the reference search: whenever both
          sides prove, the optima must match; a curtailed side may never
          hold an incumbent beating the other's proof. *)
       let b = sched "bnb" in
       match (o.Scheduler.proved, b.Scheduler.proved) with
       | Some a, Some c when a <> c ->
         bug "optimum mismatch"
           (Printf.sprintf "%s proved %d, bnb proved %d" backend a c)
       | Some a, None when b.Scheduler.best.Omega.nops < a ->
         bug "optimum mismatch"
           (Printf.sprintf "%s proved %d, curtailed bnb already has %d"
              backend a b.Scheduler.best.Omega.nops)
       | None, Some c when o.Scheduler.best.Omega.nops < c ->
         bug "optimum mismatch"
           (Printf.sprintf "bnb proved %d, curtailed %s already has %d" c
              backend o.Scheduler.best.Omega.nops)
       | _ -> ()
     end
   with exn ->
     add "scheduler crash"
       [ Certify.Check_crashed { what = Printexc.to_string exn } ]);
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Shrinking: greedily drop whole instructions (references to the
   dropped value become the constant 1), then individual reference
   edges, as long as the case keeps failing.  Both steps strictly
   decrease (length, reference count), so the loop terminates. *)

let cut_ref id op =
  match op with Operand.Ref id' when id' = id -> Operand.Imm 1 | _ -> op

let drop_instruction blk i =
  let tus = Array.to_list (Block.tuples blk) in
  let victim = List.nth tus i in
  let rest = List.filteri (fun j _ -> j <> i) tus in
  let rewired =
    List.map
      (fun (tu : Tuple.t) ->
        Tuple.make ~id:tu.id tu.op (cut_ref victim.Tuple.id tu.a)
          (cut_ref victim.Tuple.id tu.b))
      rest
  in
  match Block.of_tuples rewired with Ok b -> Some b | Error _ -> None

let drop_edges blk i =
  (* Every single-edge cut of instruction [i] (left and/or right). *)
  let tus = Array.to_list (Block.tuples blk) in
  let tu = List.nth tus i in
  let variants =
    (match tu.Tuple.a with
     | Operand.Ref _ -> [ { tu with Tuple.a = Operand.Imm 1 } ]
     | _ -> [])
    @
    match tu.Tuple.b with
    | Operand.Ref _ -> [ { tu with Tuple.b = Operand.Imm 1 } ]
    | _ -> []
  in
  List.filter_map
    (fun tu' ->
      match
        Block.of_tuples
          (List.mapi (fun j old -> if j = i then tu' else old) tus)
      with
      | Ok b -> Some b
      | Error _ -> None)
    variants

let shrink ~run_case machine blk =
  let fails b = run_case machine b <> [] in
  let rec go blk =
    let n = Block.length blk in
    let drops =
      List.filter_map (drop_instruction blk) (List.init n Fun.id)
    in
    match List.find_opt fails drops with
    | Some smaller -> go smaller
    | None -> (
      let cuts = List.concat_map (drop_edges blk) (List.init n Fun.id) in
      match List.find_opt fails cuts with
      | Some smaller -> go smaller
      | None -> blk)
  in
  go blk

(* ------------------------------------------------------------------ *)
(* Repro files                                                         *)

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "fuzz: %s exists and is not a directory" dir)

let write_repro ~dir ~master_seed ~cases ~case ~case_seed machine blk shrunk
    violations =
  ensure_dir dir;
  let path = Filename.concat dir (Printf.sprintf "fuzz-repro-%d.json" case_seed) in
  let violation (label, msg) =
    Json.Assoc
      [ ("scheduler", Json.String label); ("message", Json.String msg) ]
  in
  let repro =
    Json.Assoc
      [ ("schema", Json.Int 2);
        ("master_seed", Json.Int master_seed);
        ("cases", Json.Int cases);
        ("case", Json.Int case);
        ("case_seed", Json.Int case_seed);
        ("machine", Json.String (Machine.to_text machine));
        ("block", Json.String (Block.to_string blk));
        ("shrunk_block", Json.String (Block.to_string shrunk));
        ("violations", Json.List (List.map violation violations)) ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string repro);
  output_char oc '\n';
  close_out oc;
  path

(* ------------------------------------------------------------------ *)

let run seed cases lambda machines backend out =
  (match backend with
   | "all" -> ()
   | name when Scheduler.find name <> None -> ()
   | name ->
     Format.eprintf "unknown backend %S (have: all, %s)@." name
       (String.concat ", " Scheduler.names);
     exit 2);
  let run_case =
    match backend with
    | "all" -> run_case ~lambda
    | name -> run_case_backend ~lambda ~backend:name
  in
  let master = Rng.create seed in
  (* Pre-draw per-case seeds so a repro depends only on its case seed,
     not on how many cases ran before it. *)
  let case_seeds = Array.init cases (fun _ -> Rng.bits master) in
  (* With [--machines M], cases draw their machine from a pre-generated
     pool instead of a fresh one each: a small pool makes duplicate
     (machine, block) pairs likely, so the dedup path does real work.
     (Explicit loop: the master RNG is stateful and [Array.init]'s
     evaluation order is unspecified.) *)
  let pool =
    if machines <= 0 then [||]
    else begin
      let a = Array.make machines (Generator.random_machine master) in
      for i = 1 to machines - 1 do
        a.(i) <- Generator.random_machine master
      done;
      a
    end
  in
  let failures = ref 0 in
  (* Verdicts by (machine fingerprint, canonical block key): an
     isomorphic duplicate inherits its representative's verdict instead
     of being re-fuzzed — sound for the same reason the schedule cache
     is (the searches and certifications are isomorphic). *)
  let verdicts : (string, [ `Clean | `Failed of int ]) Hashtbl.t =
    Hashtbl.create (2 * cases)
  in
  let unique = ref 0 in
  Array.iteri
    (fun case case_seed ->
      let rng = Rng.create case_seed in
      let machine =
        if machines <= 0 then Generator.random_machine rng
        else pool.(Rng.int rng machines)
      in
      let params =
        { Generator.statements = 2 + Rng.int rng 10;
          variables = 2 + Rng.int rng 5;
          constants = 1 + Rng.int rng 3 }
      in
      let blk = Generator.block rng params in
      (* The canonical key may hold NUL bytes, so it comes last. *)
      let key =
        Machine.fingerprint machine ^ "\x00"
        ^ (Canonical.label (Dag.of_block blk)).Canonical.key
      in
      match Hashtbl.find_opt verdicts key with
      | Some `Clean -> ()
      | Some (`Failed rep_seed) ->
        incr failures;
        Printf.printf
          "case %d/%d (seed %d): FAILED (duplicate of failing seed %d)\n%!"
          (case + 1) cases case_seed rep_seed
      | None -> (
        incr unique;
        match run_case machine blk with
        | [] -> Hashtbl.add verdicts key `Clean
        | violations ->
          Hashtbl.add verdicts key (`Failed case_seed);
          incr failures;
          let shrunk = shrink ~run_case machine blk in
          let shrunk_violations = run_case machine shrunk in
          let reported =
            if shrunk_violations = [] then violations else shrunk_violations
          in
          let path =
            write_repro ~dir:out ~master_seed:seed ~cases ~case ~case_seed
              machine blk shrunk reported
          in
          Printf.printf
            "case %d/%d (seed %d): FAILED, %d violation(s), repro %s\n%!"
            (case + 1) cases case_seed
            (List.length reported) path;
          List.iter
            (fun (label, msg) -> Printf.printf "  [%s] %s\n%!" label msg)
            reported))
    case_seeds;
  let dup_pct =
    if cases = 0 then 0.0
    else 100.0 *. float_of_int (cases - !unique) /. float_of_int cases
  in
  if !failures = 0 then begin
    Printf.printf
      "fuzz: %d cases clean (seed %d, lambda %d, %d unique / %.1f%% dedup)\n"
      cases seed lambda !unique dup_pct;
    0
  end
  else begin
    Printf.printf
      "fuzz: %d of %d cases FAILED (seed %d, %d unique / %.1f%% dedup)\n"
      !failures cases seed !unique dup_pct;
    1
  end

open Cmdliner

let seed =
  Arg.(
    value & opt int 1990
    & info [ "seed" ] ~doc:"Master seed; per-case seeds derive from it.")

let cases =
  Arg.(value & opt int 500 & info [ "cases"; "n" ] ~doc:"Cases to run.")

let lambda =
  Arg.(
    value & opt int 10_000
    & info [ "lambda" ] ~doc:"Curtail point per search (max Omega calls).")

let machines =
  Arg.(
    value & opt int 0
    & info [ "machines" ] ~docv:"M"
        ~doc:
          "Draw each case's machine from a pool of $(docv) pre-generated \
           random machines instead of a fresh machine per case (0 = \
           fresh).  A small pool makes duplicate (machine, block) pairs \
           likely, so the canonical-form dedup answers them from the \
           earlier verdict.")

let backend =
  Arg.(
    value & opt string "all"
    & info [ "backend" ]
        ~doc:
          "Which scheduler(s) to fuzz: $(b,all) (default; every scheduler \
           differentially, as before) or one Scheduler registry name — \
           $(b,bnb), $(b,cp), $(b,portfolio), $(b,list).  Single-backend \
           mode certifies the backend's schedules, checks its outcome \
           contract, and cross-checks any optimality proof against an \
           independent branch-and-bound run ($(b,portfolio) also checks \
           that the schedule it holds realizes every proof).")

let out =
  Arg.(
    value & opt string "fuzz-repro"
    & info [ "out" ]
        ~doc:
          "Directory for fuzz-repro-<seed>.json files (created on demand, \
           only when a case fails).")

let cmd =
  Cmd.v
    (Cmd.info "pipesched-fuzz"
       ~doc:
         "differentially fuzz every scheduler against the independent \
          certifier")
    Term.(
      const run $ seed $ cases $ lambda $ machines $ backend $ out)

let () = exit (Cmd.eval' cmd)
