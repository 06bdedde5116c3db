open Pipesched_ir
open Pipesched_machine
module Interp = Pipesched_frontend.Interp

type violation =
  | Shape of { what : string; expected : int; got : int }
  | Not_permutation of { slot : int; pos : int }
  | Illegal_pipe of { slot : int; pos : int; pipe : int }
  | Dependence_order of {
      producer : int;
      consumer : int;
      producer_slot : int;
      consumer_slot : int;
    }
  | Dependence_stall of {
      producer : int;
      consumer : int;
      available : int;
      issued : int;
    }
  | Conflict_stall of {
      pipe : int;
      earlier : int;
      later : int;
      ready : int;
      issued : int;
    }
  | Issue_not_monotonic of { slot : int; prev : int; cur : int }
  | Eta_mismatch of { slot : int; claimed : int; actual : int }
  | Nop_mismatch of { claimed : int; replayed : int }
  | Ordering_violated of {
      stronger : string;
      stronger_nops : int;
      weaker : string;
      weaker_nops : int;
    }
  | Semantics_diverged of { var : string; reference : int; scheduled : int }
  | Check_crashed of { what : string }

let explain = function
  | Shape { what; expected; got } ->
    Printf.sprintf "result shape: %s has length %d, block has %d" what got
      expected
  | Not_permutation { slot; pos } ->
    Printf.sprintf
      "order is not a permutation: slot %d holds position %d (out of range \
       or already used)"
      slot pos
  | Illegal_pipe { slot; pos; pipe } ->
    Printf.sprintf
      "illegal pipeline: slot %d (original position %d) recorded pipe %d, \
       which is not a candidate for its operation"
      slot pos pipe
  | Dependence_order { producer; consumer; producer_slot; consumer_slot } ->
    Printf.sprintf
      "dependence order: position %d (slot %d) reads position %d, which is \
       scheduled later (slot %d)"
      consumer consumer_slot producer producer_slot
  | Dependence_stall { producer; consumer; available; issued } ->
    Printf.sprintf
      "dependence stall violated: position %d issued at tick %d but its \
       producer at position %d is only available at tick %d"
      consumer issued producer available
  | Conflict_stall { pipe; earlier; later; ready; issued } ->
    Printf.sprintf
      "conflict stall violated: position %d issued at tick %d but pipe %d \
       (last enqueued by position %d) only re-accepts at tick %d"
      later issued pipe earlier ready
  | Issue_not_monotonic { slot; prev; cur } ->
    Printf.sprintf
      "issue ticks not increasing: slot %d issues at %d after slot %d \
       issued at %d"
      slot cur (slot - 1) prev
  | Eta_mismatch { slot; claimed; actual } ->
    Printf.sprintf
      "eta mismatch at slot %d: schedule claims %d NOPs, replay inserts %d"
      slot claimed actual
  | Nop_mismatch { claimed; replayed } ->
    Printf.sprintf "NOP count mismatch: schedule claims %d, replay counts %d"
      claimed replayed
  | Ordering_violated { stronger; stronger_nops; weaker; weaker_nops } ->
    Printf.sprintf
      "scheduler ordering violated: %s found %d NOPs but %s found %d \
       (expected %s <= %s)"
      stronger stronger_nops weaker weaker_nops stronger weaker
  | Semantics_diverged { var; reference; scheduled } ->
    Printf.sprintf
      "semantics diverged: variable %s is %d in the original block but %d \
       after reordering"
      var reference scheduled
  | Check_crashed { what } ->
    Printf.sprintf "certifier sub-check crashed: %s" what

let pp fmt v = Format.pp_print_string fmt (explain v)

let certified vs = vs = []
let explain_all vs = String.concat "\n" (List.map explain vs)

(* Dependences recomputed from the tuples themselves — independent of
   Dag.of_block, so a DAG-construction bug is also caught.  [preds.(v)]
   lists every earlier position [v] must wait for: positions whose value
   it references, and memory order (Load after Store, Store after Load,
   Store after Store on the same variable; Load after Load is free).
   This is the full constraint set, not a transitive reduction, which is
   equivalent for issue-time purposes: a constraint implied by a chain
   [u -> w -> v] is weaker than the chain's two constraints combined
   (latencies are >= 1). *)
let recompute_preds tus =
  let n = Array.length tus in
  let pos_of_id = Hashtbl.create (2 * n) in
  Array.iteri (fun i (tu : Tuple.t) -> Hashtbl.replace pos_of_id tu.id i) tus;
  let preds = Array.make n [] in
  for v = 0 to n - 1 do
    let tu = tus.(v) in
    List.iter
      (fun id ->
        match Hashtbl.find_opt pos_of_id id with
        | Some u when u <> v -> preds.(v) <- u :: preds.(v)
        | Some _ | None -> ())
      (Tuple.value_refs tu);
    (match Tuple.memory_var tu with
     | None -> ()
     | Some var ->
       for u = 0 to v - 1 do
         match Tuple.memory_var tus.(u) with
         | Some var'
           when var' = var
                && (Tuple.writes_memory tu || Tuple.writes_memory tus.(u)) ->
           preds.(v) <- u :: preds.(v)
         | Some _ | None -> ()
       done)
  done;
  preds

(* A pipe clock "never used" sentinel negative enough that
   [sentinel + enqueue] can never exceed a real tick. *)
let never = min_int / 2

let latency_of machine pipe = if pipe < 0 then 1 else (Machine.pipe machine pipe).Pipe.latency

(* The from-scratch replay: walk the schedule slot by slot, computing
   each minimal legal issue tick from (a) the previous slot's tick + 1,
   (b) every recomputed producer's availability, and (c) the chosen
   pipe's last enqueue + its enqueue time.  Cold start (quiescent
   pipes), matching every scheduler entry point certified here. *)
let replay machine tus preds (r : Omega.result) =
  let n = Array.length tus in
  let issue = Array.make n 0 in
  let avail = Array.make n 0 in (* by original position *)
  let last_use = Array.make (max 1 (Machine.pipe_count machine)) never in
  for k = 0 to n - 1 do
    let pos = r.Omega.order.(k) in
    let base = if k = 0 then 0 else issue.(k - 1) + 1 in
    let t = ref base in
    List.iter (fun u -> if avail.(u) > !t then t := avail.(u)) preds.(pos);
    let pipe = r.Omega.pipes.(k) in
    if pipe >= 0 then begin
      let ready = last_use.(pipe) + (Machine.pipe machine pipe).Pipe.enqueue in
      if ready > !t then t := ready
    end;
    issue.(k) <- !t;
    if pipe >= 0 then last_use.(pipe) <- !t;
    avail.(pos) <- !t + latency_of machine pipe
  done;
  issue

let check_shapes n (r : Omega.result) =
  let dim what a =
    let got = Array.length a in
    if got <> n then [ Shape { what; expected = n; got } ] else []
  in
  dim "order" r.Omega.order @ dim "eta" r.Omega.eta
  @ dim "issue" r.Omega.issue @ dim "pipes" r.Omega.pipes

let check_permutation n (r : Omega.result) =
  let seen = Array.make n false in
  let bad = ref [] in
  for slot = n - 1 downto 0 do
    let pos = r.Omega.order.(slot) in
    if pos < 0 || pos >= n || seen.(pos) then
      bad := Not_permutation { slot; pos } :: !bad
    else seen.(pos) <- true
  done;
  !bad

let check_pipes machine tus (r : Omega.result) =
  let npipes = Machine.pipe_count machine in
  let bad = ref [] in
  Array.iteri
    (fun slot pos ->
      let pipe = r.Omega.pipes.(slot) in
      let cands = Machine.candidates machine tus.(pos).Tuple.op in
      let legal =
        match cands with
        | [] -> pipe = -1
        | _ -> pipe >= 0 && pipe < npipes && List.mem pipe cands
      in
      if not legal then bad := Illegal_pipe { slot; pos; pipe } :: !bad)
    r.Omega.order;
  List.rev !bad

let check_dependence_order preds (r : Omega.result) =
  let n = Array.length r.Omega.order in
  let slot_of = Array.make n 0 in
  Array.iteri (fun slot pos -> slot_of.(pos) <- slot) r.Omega.order;
  let bad = ref [] in
  for consumer = 0 to n - 1 do
    List.iter
      (fun producer ->
        if slot_of.(producer) > slot_of.(consumer) then
          bad :=
            Dependence_order
              { producer; consumer;
                producer_slot = slot_of.(producer);
                consumer_slot = slot_of.(consumer) }
            :: !bad)
      preds.(consumer)
  done;
  List.rev !bad

(* Direct constraint checks on the *claimed* issue ticks, so a violated
   schedule is reported as the named constraint it breaks rather than as
   an opaque replay mismatch. *)
let check_claimed_constraints machine preds (r : Omega.result) =
  let n = Array.length r.Omega.order in
  let slot_of = Array.make n 0 in
  Array.iteri (fun slot pos -> slot_of.(pos) <- slot) r.Omega.order;
  let issue_of pos = r.Omega.issue.(slot_of.(pos)) in
  let pipe_of pos = r.Omega.pipes.(slot_of.(pos)) in
  let bad = ref [] in
  for slot = 1 to n - 1 do
    if r.Omega.issue.(slot) <= r.Omega.issue.(slot - 1) then
      bad :=
        Issue_not_monotonic
          { slot; prev = r.Omega.issue.(slot - 1); cur = r.Omega.issue.(slot) }
        :: !bad
  done;
  for consumer = 0 to n - 1 do
    List.iter
      (fun producer ->
        let available = issue_of producer + latency_of machine (pipe_of producer) in
        let issued = issue_of consumer in
        if issued < available then
          bad := Dependence_stall { producer; consumer; available; issued } :: !bad)
      preds.(consumer)
  done;
  let last_on_pipe = Array.make (max 1 (Machine.pipe_count machine)) (-1) in
  for slot = 0 to n - 1 do
    let pipe = r.Omega.pipes.(slot) in
    if pipe >= 0 then begin
      (match last_on_pipe.(pipe) with
       | -1 -> ()
       | prev_slot ->
         let ready =
           r.Omega.issue.(prev_slot) + (Machine.pipe machine pipe).Pipe.enqueue
         in
         if r.Omega.issue.(slot) < ready then
           bad :=
             Conflict_stall
               { pipe;
                 earlier = r.Omega.order.(prev_slot);
                 later = r.Omega.order.(slot);
                 ready;
                 issued = r.Omega.issue.(slot) }
             :: !bad);
      last_on_pipe.(pipe) <- slot
    end
  done;
  List.rev !bad

let check_replay machine tus preds (r : Omega.result) =
  let n = Array.length tus in
  let issue = replay machine tus preds r in
  let bad = ref [] in
  let total = ref 0 in
  for slot = 0 to n - 1 do
    let base = if slot = 0 then 0 else issue.(slot - 1) + 1 in
    let actual = issue.(slot) - base in
    total := !total + actual;
    if r.Omega.eta.(slot) <> actual then
      bad := Eta_mismatch { slot; claimed = r.Omega.eta.(slot); actual } :: !bad
  done;
  if r.Omega.nops <> !total then
    bad := Nop_mismatch { claimed = r.Omega.nops; replayed = !total } :: !bad;
  List.rev !bad

let check machine blk (r : Omega.result) =
  try
    let tus = Block.tuples blk in
    let n = Array.length tus in
    match check_shapes n r with
    | _ :: _ as bad -> bad
    | [] -> (
      match check_permutation n r with
      | _ :: _ as bad -> bad
      | [] ->
        let preds = recompute_preds tus in
        let structural =
          check_pipes machine tus r @ check_dependence_order preds r
        in
        (* Timing only means anything once the structure is sound. *)
        if structural <> [] then structural
        else
          check_claimed_constraints machine preds r
          @ check_replay machine tus preds r)
  with exn -> [ Check_crashed { what = Printexc.to_string exn } ]

let check_ordering pairs =
  let rec go = function
    | (stronger, s_nops) :: rest ->
      List.filter_map
        (fun (weaker, w_nops) ->
          if s_nops > w_nops then
            Some
              (Ordering_violated
                 { stronger; stronger_nops = s_nops; weaker;
                   weaker_nops = w_nops })
          else None)
        rest
      @ go rest
    | [] -> []
  in
  go pairs

(* Each seed's memory: every variable's value, a pure function of the
   seed and its name. *)
let memory seed v = Hashtbl.hash (seed, v) mod 1000

(* The check on two blocks: run the block and its reordering with the
   reference interpreter.  It raises what [Block.permute] and
   [Interp.run_block] raise, so [check_semantics] falls back to it
   whenever a prepared run declines. *)
let semantics_on_blocks seeds blk ~order =
  let scheduled = Block.permute blk order in
  List.concat_map
    (fun seed ->
      let env = memory seed in
      let reference = Interp.run_block blk ~env in
      let result = Interp.run_block scheduled ~env in
      List.filter_map
        (fun (var, x) ->
          match List.assoc_opt var result with
          | Some y when y = x -> None
          | Some y -> Some (Semantics_diverged { var; reference = x; scheduled = y })
          | None -> Some (Semantics_diverged { var; reference = x; scheduled = env var }))
        reference)
    seeds

(* Six runs per certified block over one prepared form.  A run that
   declines (a malformed block or order) sends the whole check to
   [semantics_on_blocks], whose results and errors are the reference. *)
let check_semantics ?(seeds = [ 1; 2; 3 ]) blk ~order =
  try
    let p = Interp.prepare blk in
    let vars = Interp.prepared_vars p in
    let identity = Array.init (Block.length blk) Fun.id in
    let rec go acc = function
      | [] -> List.concat (List.rev acc)
      | seed :: rest -> (
        let init = Array.map (memory seed) vars in
        match
          ( Interp.run_prepared p ~order:identity ~init,
            Interp.run_prepared p ~order ~init )
        with
        | Some reference, Some scheduled ->
          let diverged = ref [] in
          for i = Array.length vars - 1 downto 0 do
            if reference.(i) <> scheduled.(i) then
              diverged :=
                Semantics_diverged
                  { var = vars.(i); reference = reference.(i);
                    scheduled = scheduled.(i) }
                :: !diverged
          done;
          go (!diverged :: acc) rest
        | _ -> semantics_on_blocks seeds blk ~order)
    in
    (* With no seeds only the reordering itself is checked. *)
    if seeds = [] then semantics_on_blocks seeds blk ~order else go [] seeds
  with exn -> [ Check_crashed { what = Printexc.to_string exn } ]
