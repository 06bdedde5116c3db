open Pipesched_ir
open Pipesched_machine

let factorial_float n =
  let rec go acc k = if k <= 1 then acc else go (acc *. float_of_int k) (k - 1) in
  go 1.0 n

exception Cutoff_hit

let count_legal_schedules ?(cutoff = 10_000_000) dag =
  let n = Dag.length dag in
  let unsched_preds = Array.init n (fun i -> List.length (Dag.preds dag i)) in
  let emitted = Array.make n false in
  let count = ref 0 in
  let rec go depth =
    if depth = n then begin
      incr count;
      if !count >= cutoff then raise Cutoff_hit
    end
    else
      for i = 0 to n - 1 do
        if (not emitted.(i)) && unsched_preds.(i) = 0 then begin
          emitted.(i) <- true;
          List.iter
            (fun v -> unsched_preds.(v) <- unsched_preds.(v) - 1)
            (Dag.succs dag i);
          go (depth + 1);
          List.iter
            (fun v -> unsched_preds.(v) <- unsched_preds.(v) + 1)
            (Dag.succs dag i);
          emitted.(i) <- false
        end
      done
  in
  match go 0 with
  | () -> `Exact !count
  | exception Cutoff_hit -> `At_least cutoff

type search_result = {
  best : Omega.result;
  schedules_tried : int;
  complete : bool;
}

let legal_only_search ?(cutoff = 10_000_000) machine dag =
  let n = Dag.length dag in
  let st = Omega.State.create machine dag in
  let tried = ref 0 in
  let best = ref None in
  let rec go depth =
    if depth = n then begin
      incr tried;
      let r = Omega.State.complete_greedily st in
      (match !best with
       | Some (b : Omega.result) when b.nops <= r.nops -> ()
       | Some _ | None -> best := Some r);
      if !tried >= cutoff then raise Cutoff_hit
    end
    else
      for i = 0 to n - 1 do
        if Omega.State.is_ready st i then begin
          Omega.State.push st i;
          go (depth + 1);
          Omega.State.pop st
        end
      done
  in
  let complete =
    match go 0 with () -> true | exception Cutoff_hit -> false
  in
  (* The cutoff is checked after a leaf, so the first leaf (the empty
     schedule when n = 0) is always reached. *)
  { best = Option.get !best; schedules_tried = !tried; complete }

let greedy machine dag =
  let n = Dag.length dag in
  let h = Dag.heights dag ~edge_weight:(fun ~src:_ ~dst:_ -> 1) in
  let st = Omega.State.create machine dag in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    let best = ref (-1) and best_eta = ref max_int in
    for i = n - 1 downto 0 do
      if Omega.State.is_ready st i then begin
        Omega.State.push st i;
        let eta = Omega.State.last_eta st in
        Omega.State.pop st;
        if
          eta < !best_eta
          || (eta = !best_eta && (!best = -1 || h.(i) >= h.(!best)))
        then begin
          best := i;
          best_eta := eta
        end
      end
    done;
    Omega.State.push st !best;
    order.(k) <- !best
  done;
  order

let gross machine dag =
  let n = Dag.length dag in
  let h = Dag.heights dag ~edge_weight:(fun ~src:_ ~dst:_ -> 1) in
  let fanout i = List.length (Dag.succs dag i) in
  let st = Omega.State.create machine dag in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    let eta_of i =
      Omega.State.push st i;
      let eta = Omega.State.last_eta st in
      Omega.State.pop st;
      eta
    in
    (* Prefer zero-NOP candidates by fanout then height; otherwise take the
       candidate with the fewest NOPs (fanout as tie-break). *)
    let best = ref (-1) and best_key = ref (max_int, 0, 0) in
    for i = n - 1 downto 0 do
      if Omega.State.is_ready st i then begin
        let eta = eta_of i in
        let key = (eta, -fanout i, -h.(i)) in
        if !best = -1 || key <= !best_key then begin
          best := i;
          best_key := key
        end
      end
    done;
    Omega.State.push st !best;
    order.(k) <- !best
  done;
  order
