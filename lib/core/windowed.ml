open Pipesched_ir
open Pipesched_machine
open Pipesched_sched
module Budget = Pipesched_prelude.Budget

type outcome = {
  best : Omega.result;
  initial : Omega.result;
  window : int;
  window_count : int;
  omega_calls : int;
  all_windows_completed : bool;
  status : Budget.status;
}

exception Budget_exhausted

let schedule ?(options = Optimal.default_options) ?entry ~window machine dag =
  if window < 1 then invalid_arg "Windowed.schedule: window must be >= 1";
  let n = Dag.length dag in
  (* One setup pass, as in Optimal: the seed heuristic's rank order is
     both the candidate order within windows and the order the seed
     walks, and the seed is scored on the state the windows then
     search. *)
  let cand_order =
    List_sched.rank_order (List_sched.priorities options.Optimal.seed dag)
  in
  let seed_order = List_sched.walk dag cand_order in
  let st = Omega.State.create ?entry machine dag in
  let initial = Omega.State.evaluate st ~order:seed_order in
  let budget =
    Budget.start
      {
        Budget.calls = Some options.Optimal.lambda;
        deadline_s = options.Optimal.deadline_s;
        cancel = options.Optimal.cancel;
      }
  in
  let omega_calls = ref 0 in
  let all_completed = ref true in
  (* Every Omega push is one Omega call and is accounted as such — the
     per-window incumbent evaluation and the committed best order
     included.  Those pushes happen even once the budget has run out,
     because committing each window is what keeps the final schedule
     legal and complete (the anytime guarantee); only the per-window DFS
     itself is interruptible. *)
  let spend_push pos =
    Budget.spend budget;
    incr omega_calls;
    Omega.State.push st pos
  in
  let budget_push pos =
    (match Budget.exhausted budget with
     | Some _ -> raise Budget_exhausted
     | None -> ());
    spend_push pos
  in
  let window_count = (n + window - 1) / window in
  let chunk_of = Array.make n 0 in
  Array.iteri (fun k pos -> chunk_of.(pos) <- k / window) seed_order;
  (* Schedule one window: DFS over the window's instructions on top of the
     committed prefix; commit the best order found. *)
  let schedule_window w first_k =
    let size = min window (n - first_k) in
    let in_window pos = chunk_of.(pos) = w in
    (* Incumbent: the window's slice of the list schedule. *)
    let incumbent = Array.sub seed_order first_k size in
    let base_depth = Omega.State.depth st in
    Array.iter spend_push incumbent;
    let best_nops = ref (Omega.State.nops st) in
    let best_order = ref (Array.copy incumbent) in
    for _ = 1 to size do
      Omega.State.pop st
    done;
    let current = Array.make size 0 in
    let completed =
      try
        let rec go depth =
          if depth = size then begin
            if Omega.State.nops st < !best_nops then begin
              best_nops := Omega.State.nops st;
              best_order := Array.copy current
            end
          end
          else
            let tried = ref 0 in
            Array.iter
              (fun pos ->
                if in_window pos && Omega.State.is_ready st pos then begin
                  incr tried;
                  budget_push pos;
                  current.(depth) <- pos;
                  if Omega.State.nops st < !best_nops then go (depth + 1);
                  Omega.State.pop st
                end)
              cand_order;
            assert (!tried > 0)
        in
        go 0;
        true
      with Budget_exhausted ->
        (* Unwind the partial descent the exception interrupted. *)
        while Omega.State.depth st > base_depth do
          Omega.State.pop st
        done;
        false
    in
    if not completed then all_completed := false;
    Array.iter spend_push !best_order;
    completed
  in
  let k = ref 0 in
  for w = 0 to window_count - 1 do
    ignore (schedule_window w !k);
    k := !k + window
  done;
  (* Every window commits its full slice, so nothing is left for the
     greedy completion here — but if it ever had work, its pushes would
     be Omega calls too, so account for them. *)
  let uncommitted = n - Omega.State.depth st in
  for _ = 1 to uncommitted do
    Budget.spend budget;
    incr omega_calls
  done;
  let best = Omega.State.complete_greedily st in
  (* Locally-optimal windows are not globally dominant: an improved early
     window can worsen a later window's context.  Never return something
     worse than the seed. *)
  let best = if best.Omega.nops > initial.Omega.nops then initial else best in
  let status =
    if !all_completed then Budget.Complete
    else
      match Budget.exhausted budget with
      | Some s -> s
      | None -> Budget.Curtailed_lambda
  in
  {
    best;
    initial;
    window;
    window_count;
    omega_calls = !omega_calls;
    all_windows_completed = !all_completed;
    status;
  }
