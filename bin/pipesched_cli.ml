(* The pipesched command-line compiler driver: source text in, optimally
   scheduled (and register-allocated) code out. *)

open Pipesched_ir
open Pipesched_machine
open Pipesched_sched
open Pipesched_core
module Budget = Pipesched_prelude.Budget
module Frontend = Pipesched_frontend
module Regalloc = Pipesched_regalloc
module Certify = Pipesched_verify.Certify

(* Print certification violations and fail, or stay silent. *)
let enforce_certified label violations =
  if not (Certify.certified violations) then begin
    Format.eprintf "certification FAILED (%s):@." label;
    List.iter
      (fun v -> Format.eprintf "  %s@." (Certify.explain v))
      violations;
    exit 1
  end

type scheduler = Optimal_s | Optimal_multi | List_s | Greedy | Gross | Source

let scheduler_conv =
  let parse = function
    | "optimal" -> Ok Optimal_s
    | "optimal-multi" -> Ok Optimal_multi
    | "list" -> Ok List_s
    | "greedy" -> Ok Greedy
    | "gross" -> Ok Gross
    | "source" -> Ok Source
    | s -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))
  in
  let print fmt s =
    Format.pp_print_string fmt
      (match s with
       | Optimal_s -> "optimal"
       | Optimal_multi -> "optimal-multi"
       | List_s -> "list"
       | Greedy -> "greedy"
       | Gross -> "gross"
       | Source -> "source")
  in
  Cmdliner.Arg.conv (parse, print)

let machine_conv =
  let parse s =
    match Machine.Presets.find s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown machine %S (have: %s)" s
              (String.concat ", "
                 (List.map fst Machine.Presets.all))))
  in
  let print fmt m = Format.pp_print_string fmt (Machine.name m) in
  Cmdliner.Arg.conv (parse, print)

let read_input file expr =
  match (file, expr) with
  | _, Some src -> src
  | Some "-", _ | None, None ->
    In_channel.input_all In_channel.stdin
  | Some f, _ -> In_channel.with_open_text f In_channel.input_all

let run file expr machine machine_file sched backend lambda deadline_ms
    no_memo memo_capacity registers optimize tuples_in certify
    show_tuples show_asm show_tables show_timeline show_dot show_explain =
  try
    if memo_capacity < 1 then begin
      Format.eprintf "--memo-capacity must be at least 1 (got %d)@."
        memo_capacity;
      exit 2
    end;
    let backend_module =
      (* [--backend] picks the search engine behind [--scheduler optimal];
         resolve it early so a typo fails before any work. *)
      match Scheduler.find backend with
      | Some b -> b
      | None ->
        Format.eprintf "unknown backend %S (have: %s)@." backend
          (String.concat ", " Scheduler.names);
        exit 2
    in
    let options =
      { Optimal.default_options with
        Optimal.lambda;
        Optimal.deadline_s =
          Option.map (fun ms -> float_of_int ms /. 1000.0) deadline_ms;
        Optimal.memo =
          { Optimal.default_memo with
            Optimal.memo_enabled = not no_memo;
            Optimal.memo_capacity } }
    in
    let machine =
      match machine_file with
      | None -> machine
      | Some path -> (
        match
          Machine.parse (In_channel.with_open_text path In_channel.input_all)
        with
        | Ok m -> m
        | Error (line, msg) ->
          Format.eprintf "%s:%d: %s@." path line msg;
          exit 2)
    in
    (match Machine.validate machine with
     | [] -> ()
     | diagnostics ->
       Format.eprintf "invalid machine description %S:@."
         (Machine.name machine);
       List.iter
         (fun d ->
           Format.eprintf "  %s@." (Machine.diagnostic_to_string d))
         diagnostics;
       exit 2);
    let src = read_input file expr in
    if tuples_in then begin
      (* Input is tuple-block text (e.g. from pipesched-synthgen). *)
      match Block.parse src with
      | Error (line, msg) ->
        Format.eprintf "tuple input, line %d: %s@." line msg;
        exit 1
      | Ok blk ->
        let dag = Dag.of_block blk in
        let module B = (val backend_module : Scheduler.S) in
        let o = B.schedule ~options machine dag in
        if certify then begin
          (* Hand-written tuple blocks need not be interpretable, so the
             semantic check is reserved for frontend-compiled input. *)
          enforce_certified (B.name ^ " result")
            (Certify.check machine blk o.Scheduler.best);
          enforce_certified "initial list schedule"
            (Certify.check machine blk o.Scheduler.initial);
          enforce_certified (B.name ^ " <= list")
            (Certify.check_ordering
               [ (B.name, o.Scheduler.best.Omega.nops);
                 ("list", o.Scheduler.initial.Omega.nops) ])
        end;
        Format.printf
          "%d instructions: list %d NOPs, %s %d NOPs (%s)@."
          (Block.length blk) o.Scheduler.initial.Omega.nops B.name
          o.Scheduler.best.Omega.nops
          (if o.Scheduler.completed then "proved"
           else
             match o.Scheduler.status with
             | Budget.Complete -> "heuristic"
             | s -> "curtailed: " ^ Budget.status_to_string s);
        if show_timeline then
          Format.printf "@.%s@."
            (Timeline.render machine dag o.Scheduler.best);
        exit 0
    end;
    let program = Frontend.Parser.parse src in
    if not (Frontend.Ast.straight_line program) then begin
      (* Control flow: the whole-program pipeline. *)
      let module Cfl = Pipesched_cflow in
      let cfg = Cfl.Cfg.merge_chains (Cfl.Lower.lower ~optimize program) in
      let cfg = if optimize then Cfl.Cfg.optimize_blocks cfg else cfg in
      let s = Cfl.Schedule.schedule ~options machine cfg in
      if show_tuples then Format.printf "%a@." Cfl.Cfg.pp cfg;
      Format.printf "%d blocks, %d instructions, %d static NOPs@."
        (Cfl.Cfg.length cfg)
        (Cfl.Cfg.instruction_count cfg)
        s.Cfl.Schedule.total_nops;
      match Cfl.Emit.emit ~registers s with
      | Ok text ->
        if show_asm then Format.printf "@.%s@." text;
        exit 0
      | Error (node, pos, demand) ->
        Format.eprintf
          "error: register pressure %d at position %d of block %d exceeds \
           %d@."
          demand pos node registers;
        exit 1
    end;
    let blk = Frontend.Compile.compile ~optimize src in
    let dag = Dag.of_block blk in
    if show_tables then Machine.pp_tables Format.std_formatter machine;
    if show_tuples then
      Format.printf "tuples:@.%a@.@." Block.pp blk;
    let describe label (r : Omega.result) =
      Format.printf "%s: %d instructions, %d NOPs@." label
        (Array.length r.Omega.order) r.Omega.nops
    in
    let result, ordering =
      match sched with
      | Source ->
        ( Omega.evaluate machine dag
            ~order:(Omega.identity_order (Block.length blk)),
          [] )
      | List_s ->
        ( Omega.evaluate machine dag
            ~order:(List_sched.schedule List_sched.Max_distance dag),
          [] )
      | Greedy ->
        (Omega.evaluate machine dag ~order:(Baselines.greedy machine dag), [])
      | Gross ->
        (Omega.evaluate machine dag ~order:(Baselines.gross machine dag), [])
      | Optimal_s when backend <> "bnb" ->
        let module B = (val backend_module : Scheduler.S) in
        let o = B.schedule ~options machine dag in
        describe "initial (list) schedule" o.Scheduler.initial;
        Format.printf "search (%s): %d calls, %s@." B.name o.Scheduler.calls
          (if o.Scheduler.completed then "provably optimal"
           else
             match o.Scheduler.status with
             | Budget.Complete -> "heuristic (no optimality proof)"
             | s ->
               Printf.sprintf "curtailed: %s (possibly suboptimal)"
                 (Budget.status_to_string s));
        ( o.Scheduler.best,
          [ (B.name, o.Scheduler.best.Omega.nops);
            ("list", o.Scheduler.initial.Omega.nops) ] )
      | Optimal_s ->
        let o = Optimal.schedule ~options machine dag in
        describe "initial (list) schedule" o.Optimal.initial;
        Format.printf
          "search: %d omega calls, %d complete schedules, %s@."
          o.Optimal.stats.Optimal.omega_calls
          o.Optimal.stats.Optimal.schedules_completed
          (match o.Optimal.stats.Optimal.status with
           | Budget.Complete -> "provably optimal"
           | s ->
             Printf.sprintf "curtailed: %s (possibly suboptimal)"
               (Budget.status_to_string s));
        ( o.Optimal.best,
          [ ("optimal", o.Optimal.best.Omega.nops);
            ("list", o.Optimal.initial.Omega.nops) ] )
      | Optimal_multi ->
        let o, _choice = Optimal.schedule_multi ~options machine dag in
        describe "initial (list) schedule" o.Optimal.initial;
        Format.printf
          "search: %d omega calls, %s@."
          o.Optimal.stats.Optimal.omega_calls
          (match o.Optimal.stats.Optimal.status with
           | Budget.Complete -> "provably optimal"
           | s ->
             Printf.sprintf "curtailed: %s (possibly suboptimal)"
               (Budget.status_to_string s));
        ( o.Optimal.best,
          [ ("optimal-multi", o.Optimal.best.Omega.nops);
            ("list", o.Optimal.initial.Omega.nops) ] )
    in
    describe "final schedule" result;
    if certify then begin
      enforce_certified "schedule constraints"
        (Certify.check machine blk result);
      enforce_certified "scheduler ordering" (Certify.check_ordering ordering);
      enforce_certified "semantic equivalence"
        (Certify.check_semantics blk ~order:result.Omega.order);
      Format.printf "certified: constraints, ordering, semantics@."
    end;
    if show_explain then begin
      let text = Omega.explain_to_string machine dag result in
      if text = "" then Format.printf "no stalls to explain@."
      else Format.printf "@.%s@." text
    end;
    if show_timeline then
      Format.printf "@.%s@." (Timeline.render machine dag result);
    if show_dot then Format.printf "%s@." (Dag.to_dot dag);
    let scheduled = Block.permute blk result.Omega.order in
    if show_asm then begin
      let alloc =
        match Regalloc.Alloc.allocate scheduled ~registers with
        | Ok a -> a
        | Error (pos, demand) ->
          (match Regalloc.Alloc.rematerialize scheduled ~registers with
           | Some _fixed ->
             Format.eprintf
               "note: pressure %d at position %d exceeded %d registers; \
                re-materialization would fix it, but the schedule would \
                need re-running — increase --registers instead@."
               demand pos registers;
             exit 1
           | None ->
             Format.eprintf
               "error: register pressure %d at position %d exceeds %d and \
                cannot be re-materialized away@."
               demand pos registers;
             exit 1)
      in
      Format.printf "@.assembly (%d registers used):@.%s@."
        (Regalloc.Alloc.registers_used alloc)
        (Regalloc.Codegen.emit scheduled ~eta:result.Omega.eta ~alloc)
    end;
    0
  with
  | Frontend.Parser.Error msg ->
    Format.eprintf "parse error: %s@." msg;
    1
  | Frontend.Lexer.Error (msg, pos) ->
    Format.eprintf "lex error at offset %d: %s@." pos msg;
    1

open Cmdliner

let file =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Source file ('-' or absent: stdin).")

let expr =
  Arg.(
    value
    & opt (some string) None
    & info [ "e"; "expr" ] ~doc:"Inline source text instead of a file.")

let machine =
  Arg.(
    value
    & opt machine_conv Machine.Presets.simulation
    & info [ "machine"; "m" ] ~doc:"Target machine preset.")

let machine_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "machine-file" ]
        ~doc:"Load the target machine from a description file.")

let tuples_in =
  Arg.(
    value & flag
    & info [ "tuples-in" ]
        ~doc:"Treat the input as tuple-block text instead of source code.")

let sched =
  Arg.(
    value
    & opt scheduler_conv Optimal_s
    & info [ "scheduler"; "s" ]
        ~doc:"Scheduler: optimal, optimal-multi, list, greedy, gross, source.")

let backend =
  Arg.(
    value & opt string "bnb"
    & info [ "backend" ]
        ~doc:
          "Search backend behind $(b,--scheduler optimal): $(b,bnb) (the \
           paper's branch-and-bound), $(b,cp) (the propagation/learning \
           solver over issue-slot variables), or $(b,portfolio) (bnb \
           then cp in restart rounds on one domain, first optimality \
           proof wins).  Any registered backend name is accepted.")

let lambda =
  Arg.(
    value & opt int 100_000
    & info [ "lambda" ] ~doc:"Curtail point (max omega calls).")

let deadline_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ]
        ~env:(Cmd.Env.info "PIPESCHED_DEADLINE_MS")
        ~doc:
          "Wall-clock deadline for the search in milliseconds (anytime \
           mode): on expiry the best schedule found so far is emitted \
           and the status reads Curtailed_deadline.  Unset: the search \
           is bounded by --lambda only and is fully deterministic.")

let no_memo =
  Arg.(
    value & flag
    & info [ "no-memo" ]
        ~doc:
          "Disable the dominance-memoization extension.  The memo never \
           changes the schedule found, only the search effort.")

let memo_capacity =
  Arg.(
    value & opt int 4_096
    & info [ "memo-capacity" ]
        ~doc:
          "Capacity (entries, at least 1, rounded up to a power of two) of \
           the dominance memo table.")

let registers =
  Arg.(
    value & opt int 16
    & info [ "registers"; "r" ] ~doc:"Register-file size for allocation.")

let optimize =
  Arg.(
    value & opt bool true
    & info [ "optimize" ] ~doc:"Run front-end optimizations.")

let certify =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Re-check the final schedule with the independent certifier \
           (dependence, conflict and legality constraints; claimed NOP \
           counts; scheduler-quality ordering; semantic equivalence for \
           compiled source).  Any violation is printed and the exit \
           status is 1.")

let show_tuples =
  Arg.(value & flag & info [ "tuples" ] ~doc:"Print the tuple IR.")

let show_asm =
  Arg.(value & flag & info [ "asm" ] ~doc:"Print allocated assembly.")

let show_tables =
  Arg.(value & flag & info [ "tables" ] ~doc:"Print the machine tables.")

let show_timeline =
  Arg.(
    value & flag
    & info [ "timeline" ] ~doc:"Print the pipeline-occupancy timeline.")

let show_dot =
  Arg.(
    value & flag
    & info [ "dot" ] ~doc:"Print the dependence DAG in Graphviz format.")

let show_explain =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"Explain every remaining stall (which constraint binds).")

let cmd =
  Cmd.v
    (Cmd.info "pipesched"
       ~doc:"optimally schedule a basic block for pipelined machines")
    Term.(
      const run $ file $ expr $ machine $ machine_file $ sched $ backend
      $ lambda $ deadline_ms $ no_memo $ memo_capacity $ registers
      $ optimize $ tuples_in $ certify $ show_tuples $ show_asm $ show_tables
      $ show_timeline $ show_dot $ show_explain)

let () = exit (Cmd.eval' cmd)
