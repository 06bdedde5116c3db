open Pipesched_ir
open Pipesched_machine
open Pipesched_sched
module Budget = Pipesched_prelude.Budget
module Solve_cp = Pipesched_solve.Cp

type outcome = {
  best : Omega.result;
  initial : Omega.result;
  calls : int;
  completed : bool;
  status : Budget.status;
  proved : int option;
}

module type S = sig
  val name : string
  val describe : string

  val schedule :
    ?options:Optimal.options ->
    ?entry:Omega.entry ->
    Machine.t ->
    Dag.t ->
    outcome
end

module Bnb : S = struct
  let name = "bnb"
  let describe = "branch-and-bound over legal orders (the paper's search)"

  let schedule ?(options = Optimal.default_options) ?entry machine dag =
    let o = Optimal.schedule ~options ?entry machine dag in
    let s = o.Optimal.stats in
    {
      best = o.Optimal.best;
      initial = o.Optimal.initial;
      calls = s.Optimal.omega_calls;
      completed = s.Optimal.completed;
      status = s.Optimal.status;
      proved =
        (if s.Optimal.completed then Some o.Optimal.best.Omega.nops else None);
    }
end

module Cp : S = struct
  let name = "cp"
  let describe = "propagation/learning (CDCL) over issue-slot variables"

  let schedule ?(options = Optimal.default_options) ?entry machine dag =
    let c =
      Solve_cp.solve ~lambda:options.Optimal.lambda
        ?deadline_s:options.Optimal.deadline_s
        ?cancel:options.Optimal.cancel ~seed:options.Optimal.seed ?entry
        machine dag
    in
    let s = c.Solve_cp.stats in
    {
      best = c.Solve_cp.best;
      initial = c.Solve_cp.initial;
      calls = s.Solve_cp.decisions + s.Solve_cp.conflicts;
      completed = s.Solve_cp.completed;
      status = s.Solve_cp.status;
      proved = s.Solve_cp.proved;
    }
end

module Portfolio_backend : S = struct
  let name = "portfolio"
  let describe = "bnb then cp in restart rounds, each below the best so far"

  let schedule ?(options = Optimal.default_options) ?entry machine dag =
    let p = Portfolio.run ~options ?entry machine dag in
    {
      best = p.Portfolio.best;
      initial = p.Portfolio.initial;
      calls = p.Portfolio.bnb.Portfolio.calls + p.Portfolio.cp.Portfolio.calls;
      completed = p.Portfolio.proved <> None;
      status = p.Portfolio.status;
      proved = p.Portfolio.proved;
    }
end

module List_backend : S = struct
  let name = "list"
  let describe = "the list-scheduling heuristic alone (no search)"

  let schedule ?(options = Optimal.default_options) ?entry machine dag =
    let order = List_sched.schedule options.Optimal.seed dag in
    let r = Omega.evaluate ?entry machine dag ~order in
    {
      best = r;
      initial = r;
      calls = 1;
      completed = false;
      status = Budget.Complete;
      proved = None;
    }
end

let backends : (module S) list =
  [
    (module Bnb);
    (module Cp);
    (module Portfolio_backend);
    (module List_backend);
  ]

let find name =
  List.find_opt (fun (module B : S) -> B.name = name) backends

let names = List.map (fun (module B : S) -> B.name) backends
