open Pipesched_machine
module Budget = Pipesched_prelude.Budget
module Solve_cp = Pipesched_solve.Cp

type backend = Bnb | Cp

let backend_name = function Bnb -> "bnb" | Cp -> "cp"

type side_report = { calls : int }

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

(* Round sizes: bnb gets [s] Omega calls and then cp [s / cp_share]
   decisions plus conflicts, for s = first_round, 4 first_round, ...
   The round where 4s passes lambda gives both sides the full lambda, so
   the earlier rounds add at most lambda/3 Omega calls and lambda/48 cp
   units (DESIGN.md §14). *)
let first_round = 500
let cp_share = 16

let run ?(options = Optimal.default_options) ?entry machine dag =
  let lambda = options.Optimal.lambda in
  (* The deadline covers the whole run: the clock is read at the start
     and before each round, and only when a deadline is set; each round
     gets the time that remains. *)
  let remaining =
    match options.Optimal.deadline_s with
    | None -> fun () -> None
    | Some d ->
      let started = Budget.now () in
      fun () -> Some (d -. (Budget.now () -. started))
  in
  let initial = ref None and bnb_calls = ref 0 and cp_calls = ref 0 in
  (* One side's round below the best schedule so far ([max_int] before
     bnb's first round has scored the seed): its best, why it stopped,
     and its proof. *)
  let solve side ~lambda ~bound =
    let deadline_s = remaining () in
    match side with
    | Bnb ->
      let o, proved =
        Optimal.schedule_shared
          ~options:{ options with Optimal.lambda; deadline_s }
          ?entry ~bound machine dag
      in
      if !initial = None then initial := Some o.Optimal.initial;
      bnb_calls := !bnb_calls + o.Optimal.stats.Optimal.omega_calls;
      (o.Optimal.best, o.Optimal.stats.Optimal.status, proved)
    | Cp ->
      let c =
        Solve_cp.solve ~lambda ?deadline_s ~seed:options.Optimal.seed ?entry
          ~bound machine dag
      in
      let s = c.Solve_cp.stats in
      cp_calls := !cp_calls + s.Solve_cp.decisions + s.Solve_cp.conflicts;
      (c.Solve_cp.best, s.Solve_cp.status, s.Solve_cp.proved)
  in
  let finish (best : Omega.result) winner proved status =
    (* Disagreement: the held witness must realize the proof.  Anything
       else means a solver is wrong, which is a bug by construction —
       see DESIGN.md §14; the fuzzer shrinks such a case into a repro. *)
    (match (winner, proved) with
     | Some side, Some v when best.Omega.nops <> v ->
       raise
         (Disagreement
            (Printf.sprintf "%s proved %d but the best schedule held has %d"
               (backend_name side) v best.Omega.nops))
     | _ -> ());
    {
      best;
      initial = Option.get !initial;
      winner;
      bnb = { calls = !bnb_calls };
      cp = { calls = !cp_calls };
      proved;
      status;
    }
  in
  let rec round s best =
    let last = s > lambda / 4 in
    let rec sides best = function
      | [] ->
        if last then finish (Option.get best) None None Budget.Curtailed_lambda
        else round (4 * s) best
      | side :: rest ->
        let budget =
          if last then lambda else if side = Bnb then s else s / cp_share
        in
        let bound =
          match best with Some b -> b.Omega.nops | None -> max_int
        in
        let r, status, proved = solve side ~lambda:budget ~bound in
        (* The bound is exclusive, so a side only returns a schedule below
           it or its own seed: a tie keeps the held witness. *)
        let best =
          match best with
          | Some b when b.Omega.nops <= r.Omega.nops -> b
          | _ -> r
        in
        (match (proved, status) with
         | Some _, _ -> finish best (Some side) proved Budget.Complete
         | None, Budget.Curtailed_lambda -> sides (Some best) rest
         | None, status -> finish best None None status)
    in
    sides best [ Bnb; Cp ]
  in
  round first_round None
