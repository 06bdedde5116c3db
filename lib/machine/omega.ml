open Pipesched_ir

type result = {
  order : int array;
  eta : int array;
  issue : int array;
  pipes : int array;
  nops : int;
}

let identity_order n = Array.init n (fun i -> i)

let neg_inf = min_int / 2

type entry = { pipe_last_use : int array }

let cold_entry machine =
  { pipe_last_use = Array.make (max (Machine.pipe_count machine) 1) neg_inf }

module State = struct
  type t = {
    machine : Machine.t;
    dag : Dag.t;
    n : int;
    preds : int array array;       (* Dag adjacency, flattened *)
    succs : int array array;
    default_pipe : int array;      (* by original position; -1 = none *)
    pipe_latency : int array;      (* by pipeline id *)
    pipe_enqueue : int array;      (* by pipeline id *)
    (* mutable search state *)
    issue : int array;             (* by original position *)
    prod_latency : int array;      (* latency of chosen pipe, by position *)
    scheduled : bool array;
    unsched_preds : int array;
    last_on_pipe : int array;      (* issue tick of last instr per pipe *)
    stack : int array;             (* positions, by depth *)
    eta_stack : int array;
    pipe_stack : int array;        (* chosen pipe per depth; -1 = none *)
    undo_last : int array;         (* previous last_on_pipe per depth *)
    mutable sp : int;
    mutable total_nops : int;
  }

  (* Plain loops and the DAG's own adjacency: this runs once per search,
     and a search that stops after a few Omega calls is mostly setup. *)
  let create ?entry machine dag =
    let n = Dag.length dag in
    let blk = Dag.block dag in
    let npipes = Machine.pipe_count machine in
    let preds = Dag.pred_table dag in
    let default_pipe = Array.make n (-1) and unsched_preds = Array.make n 0 in
    for i = 0 to n - 1 do
      default_pipe.(i) <-
        Machine.default_pipe_id machine (Block.tuple_at blk i).Tuple.op;
      unsched_preds.(i) <- Array.length preds.(i)
    done;
    let pipe_latency = Array.make npipes 0 in
    let pipe_enqueue = Array.make npipes 0 in
    for p = 0 to npipes - 1 do
      let pipe = Machine.pipe machine p in
      pipe_latency.(p) <- pipe.Pipe.latency;
      pipe_enqueue.(p) <- pipe.Pipe.enqueue
    done;
    {
      machine;
      dag;
      n;
      preds;
      succs = Dag.succ_table dag;
      default_pipe;
      pipe_latency;
      pipe_enqueue;
      issue = Array.make n 0;
      prod_latency = Array.make n 1;
      scheduled = Array.make n false;
      unsched_preds;
      last_on_pipe =
        (match entry with
         | None -> Array.make (max npipes 1) neg_inf
         | Some e ->
           if Array.length e.pipe_last_use < npipes then
             invalid_arg "Omega.State.create: entry state pipe count";
           Array.sub e.pipe_last_use 0 (max npipes 1));
      stack = Array.make n 0;
      eta_stack = Array.make n 0;
      pipe_stack = Array.make n (-1);
      undo_last = Array.make n 0;
      sp = 0;
      total_nops = 0;
    }

  let length st = st.n
  let depth st = st.sp
  let nops st = st.total_nops
  let is_scheduled st pos = st.scheduled.(pos)

  let is_ready st pos =
    (not st.scheduled.(pos)) && st.unsched_preds.(pos) = 0

  (* The push itself, on pipe [p] ([-1] = resource-free), which the
     callers have validated.  Plain loops, not [Array.iter]: this is the
     innermost search hot path and each closure would be a heap
     allocation per Omega call. *)
  let push_pipe st pos p =
    let base =
      if st.sp = 0 then 0 else st.issue.(st.stack.(st.sp - 1)) + 1
    in
    let t = ref base in
    if p >= 0 then begin
      let c = st.last_on_pipe.(p) + st.pipe_enqueue.(p) in
      if c > !t then t := c
    end;
    let preds = st.preds.(pos) in
    for i = 0 to Array.length preds - 1 do
      let u = preds.(i) in
      let c = st.issue.(u) + st.prod_latency.(u) in
      if c > !t then t := c
    done;
    let eta = !t - base in
    st.issue.(pos) <- !t;
    st.prod_latency.(pos) <- (if p >= 0 then st.pipe_latency.(p) else 1);
    st.scheduled.(pos) <- true;
    let succs = st.succs.(pos) in
    for i = 0 to Array.length succs - 1 do
      let v = succs.(i) in
      st.unsched_preds.(v) <- st.unsched_preds.(v) - 1
    done;
    st.stack.(st.sp) <- pos;
    st.eta_stack.(st.sp) <- eta;
    st.pipe_stack.(st.sp) <- p;
    st.undo_last.(st.sp) <- (if p >= 0 then st.last_on_pipe.(p) else 0);
    if p >= 0 then st.last_on_pipe.(p) <- !t;
    st.sp <- st.sp + 1;
    st.total_nops <- st.total_nops + eta

  let push_on st pos ~pipe =
    if not (is_ready st pos) then
      invalid_arg "Omega.State.push: instruction not ready";
    let p =
      match pipe with
      | None ->
        if st.default_pipe.(pos) <> -1 then
          invalid_arg "Omega.State.push: operation requires a pipeline";
        -1
      | Some p ->
        if
          not
            (List.mem p
               (Machine.candidates st.machine
                  (Block.tuple_at (Dag.block st.dag) pos).Tuple.op))
        then invalid_arg "Omega.State.push: pipeline is not a candidate";
        p
    in
    push_pipe st pos p

  (* The default pipe is a candidate by construction: no option to
     allocate, nothing to re-validate. *)
  let push st pos =
    if not (is_ready st pos) then
      invalid_arg "Omega.State.push: instruction not ready";
    push_pipe st pos st.default_pipe.(pos)

  let pop st =
    if st.sp = 0 then invalid_arg "Omega.State.pop: empty schedule";
    st.sp <- st.sp - 1;
    let pos = st.stack.(st.sp) in
    let p = st.pipe_stack.(st.sp) in
    st.total_nops <- st.total_nops - st.eta_stack.(st.sp);
    if p >= 0 then st.last_on_pipe.(p) <- st.undo_last.(st.sp);
    let succs = st.succs.(pos) in
    for i = 0 to Array.length succs - 1 do
      let v = succs.(i) in
      st.unsched_preds.(v) <- st.unsched_preds.(v) + 1
    done;
    st.scheduled.(pos) <- false

  let last_eta st =
    if st.sp = 0 then invalid_arg "Omega.State.last_eta: empty schedule";
    st.eta_stack.(st.sp - 1)

  let at_depth st k =
    if k < 0 || k >= st.sp then invalid_arg "Omega.State.at_depth";
    st.stack.(k)

  let prefix st = Array.sub st.stack 0 st.sp

  let ready_list st =
    let acc = ref [] in
    for pos = st.n - 1 downto 0 do
      if is_ready st pos then acc := pos :: !acc
    done;
    !acc

  let last_use st pid =
    if pid < 0 || pid >= Array.length st.last_on_pipe then
      invalid_arg "Omega.State.last_use: bad pipeline id";
    st.last_on_pipe.(pid)

  let issue_of st pos =
    if not st.scheduled.(pos) then
      invalid_arg "Omega.State.issue_of: not scheduled";
    st.issue.(pos)

  let avail_of st pos =
    if not st.scheduled.(pos) then
      invalid_arg "Omega.State.avail_of: not scheduled";
    st.issue.(pos) + st.prod_latency.(pos)

  let snapshot st =
    let order = prefix st in
    let eta = Array.sub st.eta_stack 0 st.sp in
    let issue = Array.make st.sp 0 in
    for k = 0 to st.sp - 1 do
      issue.(k) <- st.issue.(order.(k))
    done;
    let pipes = Array.sub st.pipe_stack 0 st.sp in
    { order; eta; issue; pipes; nops = st.total_nops }

  let exit_state st =
    if st.sp <> st.n then
      invalid_arg "Omega.State.exit_state: schedule incomplete";
    let shift = if st.sp = 0 then 0 else st.issue.(st.stack.(st.sp - 1)) + 1 in
    {
      pipe_last_use =
        Array.map
          (fun t -> if t <= neg_inf + shift then neg_inf else t - shift)
          st.last_on_pipe;
    }

  let pop_to st depth =
    while st.sp > depth do
      pop st
    done

  let complete_greedily st =
    let start_depth = st.sp in
    for pos = 0 to st.n - 1 do
      if not st.scheduled.(pos) then push st pos
    done;
    let r = snapshot st in
    pop_to st start_depth;
    r

  let evaluate st ~order =
    if st.sp <> 0 then invalid_arg "Omega.State.evaluate: schedule not empty";
    if Array.length order <> st.n then
      invalid_arg "Omega.evaluate: order length mismatch";
    match
      for k = 0 to st.n - 1 do
        push st order.(k)
      done
    with
    | () ->
      let r = snapshot st in
      pop_to st 0;
      r
    | exception e ->
      pop_to st 0;
      raise e
end

let evaluate_with_pipes ?entry machine dag ~order ~choice =
  let n = Dag.length dag in
  if Array.length order <> n then
    invalid_arg "Omega.evaluate: order length mismatch";
  if not (Dag.is_legal_order dag order) then
    invalid_arg "Omega.evaluate: order violates dependences";
  let st = State.create ?entry machine dag in
  Array.iter (fun pos -> State.push_on st pos ~pipe:choice.(pos)) order;
  State.snapshot st

let evaluate ?entry machine dag ~order =
  let n = Dag.length dag in
  if Array.length order <> n then
    invalid_arg "Omega.evaluate: order length mismatch";
  if not (Dag.is_legal_order dag order) then
    invalid_arg "Omega.evaluate: order violates dependences";
  State.evaluate (State.create ?entry machine dag) ~order

(* Latency of the pipeline slot [k] actually ran on.  [r.pipes] records
   the chosen pipeline per schedule position, so results produced by
   [evaluate_with_pipes] (or the multi-pipe search) are measured on their
   real pipelines, not the per-op default. *)
let slot_latency machine r k =
  match r.pipes.(k) with
  | -1 -> 1
  | p -> (Machine.pipe machine p).Pipe.latency

let span machine _dag r =
  let n = Array.length r.order in
  if n = 0 then 0
  else begin
    let finish = ref 0 in
    for k = 0 to n - 1 do
      let f = r.issue.(k) + slot_latency machine r k in
      if f > !finish then finish := f
    done;
    !finish
  end

type stall_cause = Dependence of int | Conflict of int

let explain machine dag (r : result) =
  let n = Array.length r.order in
  let new_pos = Array.make (Dag.length dag) (-1) in
  Array.iteri (fun k pos -> new_pos.(pos) <- k) r.order;
  (* The pipeline each slot actually ran on comes from the result itself
     ([r.pipes]), so schedules produced with non-default pipeline choices
     get their stalls attributed to the real culprit pipelines. *)
  let pipe_at k = r.pipes.(k) in
  let lat_of u = slot_latency machine r new_pos.(u) in
  let last_on_pipe = Array.make (max (Machine.pipe_count machine) 1) (-1) in
  let acc = ref [] in
  for k = 0 to n - 1 do
    let pos = r.order.(k) in
    if r.eta.(k) > 0 then begin
      (* Find the constraint whose release time equals the issue tick;
         dependences scanned first so ties blame them. *)
      let cause = ref None in
      List.iter
        (fun u ->
          if !cause = None && r.issue.(new_pos.(u)) + lat_of u = r.issue.(k)
          then cause := Some (Dependence u))
        (Dag.preds dag pos);
      (match pipe_at k with
       | p when p >= 0 && !cause = None ->
         let enq = (Machine.pipe machine p).Pipe.enqueue in
         if
           last_on_pipe.(p) >= 0
           && r.issue.(last_on_pipe.(p)) + enq = r.issue.(k)
         then cause := Some (Conflict p)
       | _ -> ());
      match !cause with
      | Some c -> acc := (k, r.eta.(k), c) :: !acc
      | None ->
        (* Only possible when the stall was forced by cross-block entry
           state (evaluated with ~entry); no in-block culprit to report. *)
        ()
    end;
    match pipe_at k with
    | p when p >= 0 -> last_on_pipe.(p) <- k
    | _ -> ()
  done;
  List.rev !acc

let explain_to_string machine dag (r : result) =
  let blk = Dag.block dag in
  explain machine dag r
  |> List.map (fun (k, eta, cause) ->
         let tu = Block.tuple_at blk r.order.(k) in
         match cause with
         | Dependence u ->
           Printf.sprintf
             "%d NOP%s before [%s]: waiting on the result of [%s]" eta
             (if eta = 1 then "" else "s")
             (Tuple.to_string tu)
             (Tuple.to_string (Block.tuple_at blk u))
         | Conflict p ->
           Printf.sprintf
             "%d NOP%s before [%s]: pipeline %s/%d still busy (enqueue \
              time %d)"
             eta
             (if eta = 1 then "" else "s")
             (Tuple.to_string tu)
             (Machine.pipe machine p).Pipe.label p
             (Machine.pipe machine p).Pipe.enqueue)
  |> String.concat "\n"
