open Pipesched_machine
module Budget = Pipesched_prelude.Budget
module Incumbent = Pipesched_prelude.Incumbent
module Pool = Pipesched_parallel.Pool
module Solve_cp = Pipesched_solve.Cp

type backend = Bnb | Cp

let backend_name = function Bnb -> "bnb" | Cp -> "cp"

type side_report = {
  completed : bool;
  status : Budget.status;
  proved : int option;
  calls : int;
  best_nops : int;
}

type outcome = {
  best : Omega.result;
  initial : Omega.result;
  winner : backend option;
  bnb : side_report;
  cp : side_report;
  proved : int option;
  status : Budget.status;
}

exception Disagreement of string

(* Decision + conflict cap for the inline CP presolve below.  Resource-
   bound blocks — the common case in generated corpora — are typically
   proved within a few hundred decisions, and proving them before the
   race starts skips the domain-spawn cost entirely (~10ms, which on
   such blocks would dwarf the solve). *)
let presolve_lambda = 2_000

let cp_side_report (c : Solve_cp.outcome) =
  {
    completed = c.Solve_cp.stats.Solve_cp.completed;
    status = c.Solve_cp.stats.Solve_cp.status;
    proved = c.Solve_cp.stats.Solve_cp.proved;
    calls =
      c.Solve_cp.stats.Solve_cp.decisions
      + c.Solve_cp.stats.Solve_cp.conflicts;
    best_nops = c.Solve_cp.best.Omega.nops;
  }

let run ?(options = Optimal.default_options) ?entry machine dag =
  (* Both sides share one incumbent: either side's bound prunes the
     other, and the final best schedule is whatever the pair found.  The
     stop token is derived from the caller's, so the winner can cut the
     loser off without consuming the caller's token. *)
  let shared : Omega.result Incumbent.t = Incumbent.create () in
  let stop =
    match options.Optimal.cancel with
    | Some t -> Budget.derive t
    | None -> Budget.token ()
  in
  let side_options = { options with Optimal.cancel = Some stop } in
  (* Inline CP presolve: a few hundred decisions, same shared incumbent.
     When it proves the block outright the race never starts — the bnb
     side then reports zero calls with status [Cancelled]. *)
  let presolve =
    let lambda = max 1 (min presolve_lambda options.Optimal.lambda) in
    let c =
      Solve_cp.solve ~lambda ?deadline_s:options.Optimal.deadline_s
        ~cancel:stop ~seed:options.Optimal.seed ?entry ~shared machine dag
    in
    if c.Solve_cp.stats.Solve_cp.completed then Some c else None
  in
  let initial, bnb_report, bnb_proved, cp_report, winner_idx =
    match presolve with
    | Some c ->
      Budget.cancel stop;
      let bnb_report =
        {
          completed = false;
          status = Budget.Cancelled;
          proved = None;
          calls = 0;
          best_nops = c.Solve_cp.initial.Omega.nops;
        }
      in
      (c.Solve_cp.initial, bnb_report, None, cp_side_report c, 1)
    | None ->
      let winner = Atomic.make (-1) in
      let claim side =
        if Atomic.compare_and_set winner (-1) side then Budget.cancel stop
      in
      let bnb_res = ref None and cp_res = ref None in
      Pool.team ~jobs:2 (fun w ->
          if w = 0 then begin
            let o, proved =
              Optimal.schedule_shared ~options:side_options ?entry ~shared
                machine dag
            in
            if o.Optimal.stats.Optimal.completed then claim 0;
            bnb_res := Some (o, proved)
          end
          else begin
            let c =
              Solve_cp.solve ~lambda:side_options.Optimal.lambda
                ?deadline_s:side_options.Optimal.deadline_s ~cancel:stop
                ~seed:side_options.Optimal.seed ?entry ~shared
                machine dag
            in
            if c.Solve_cp.stats.Solve_cp.completed then claim 1;
            cp_res := Some c
          end);
      let o, bnb_proved =
        match !bnb_res with Some r -> r | None -> assert false
      in
      let c = match !cp_res with Some r -> r | None -> assert false in
      let bnb_report =
        {
          completed = o.Optimal.stats.Optimal.completed;
          status = o.Optimal.stats.Optimal.status;
          proved = bnb_proved;
          calls = o.Optimal.stats.Optimal.omega_calls;
          best_nops = o.Optimal.best.Omega.nops;
        }
      in
      (o.Optimal.initial, bnb_report, bnb_proved, cp_side_report c,
       Atomic.get winner)
  in
  let cp_proved = cp_report.proved in
  let best =
    match Incumbent.best shared with
    | Some (_, r) -> r
    | None -> initial
  in
  (* Agreement: both proofs (when present) must name the same optimum,
     and the final incumbent must realize it.  Anything else means one
     of the solvers is wrong, which is a bug by construction — see
     DESIGN.md §14; the fuzzer shrinks such a case into a repro. *)
  (match bnb_proved, cp_proved with
   | Some a, Some b when a <> b ->
     raise (Disagreement (Printf.sprintf "bnb proved %d, cp proved %d" a b))
   | _ -> ());
  let check_witness side v =
    if best.Omega.nops <> v then
      raise
        (Disagreement
           (Printf.sprintf "%s proved %d but the shared incumbent holds %d"
              (backend_name side) v best.Omega.nops))
  in
  (match bnb_proved with Some v -> check_witness Bnb v | None -> ());
  (match cp_proved with Some v -> check_witness Cp v | None -> ());
  let proved =
    match bnb_proved, cp_proved with
    | Some v, _ | _, Some v -> Some v
    | None, None -> None
  in
  let winner =
    match winner_idx with 0 -> Some Bnb | 1 -> Some Cp | _ -> None
  in
  let status =
    if proved <> None then Budget.Complete
    else if bnb_report.status = Budget.Cancelled then cp_report.status
    else bnb_report.status
  in
  {
    best;
    initial;
    winner;
    bnb = bnb_report;
    cp = cp_report;
    proved;
    status;
  }
