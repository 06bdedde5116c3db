(* Conflict-driven clause learning over the issue-slot encoding of Ω.
   See cp.mli for the encoding and the soundness anchors, DESIGN.md §14
   for the full argument.  Everything below is per-query mutable state in
   flat arrays; a query is one decision problem "schedule with <= target
   NOPs?", rebuilt as the optimizer tightens the bound. *)

open Pipesched_ir
open Pipesched_machine
open Pipesched_sched
module Budget = Pipesched_prelude.Budget

type stats = {
  queries : int;
  decisions : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  learned : int;
  completed : bool;
  status : Budget.status;
  proved : int option;
}

type outcome = { best : Omega.result; initial : Omega.result; stats : stats }

(* Refuse to build absurdly large encodings (a huge incumbent NOP count
   on a big block); the solve then reports a lambda curtailment with the
   incumbent, like any other budget trip. *)
let max_vars = 1 lsl 20

exception Too_big

(* Growable int vector; watch lists and the clause arena live in these. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let cap = max 4 (2 * Array.length v.a) in
      let a = Array.make cap 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

(* Literals: [2*v] asserts slot variable [v] true, [2*v + 1] false. *)
let neg l = l lxor 1

type conflict = No_confl | C_binary of int * int | C_alo of int | C_learned of int

(* Reason tags for implied assignments (decision/unassigned = 0). *)
let r_none = 0
let r_binary = 1 (* arg = the antecedent literal, currently true *)
let r_alo = 2 (* arg = instruction whose other slots are all false *)
let r_clause = 3 (* arg = learned-clause arena offset *)

type query = {
  n : int;
  horizon : int; (* M: largest admissible issue tick *)
  est : int array; (* per instruction *)
  lst : int array;
  var_base : int array; (* var of slot (i, est.(i)) *)
  var_inst : int array; (* var -> instruction *)
  var_tick : int array; (* var -> tick *)
  nvars : int;
  occ : int array array; (* tick -> vars at that tick, all instructions *)
  succs : int array array;
  preds : int array array;
  lat : int array; (* producer latency per instruction *)
  pipe_of : int array; (* default pipe per instruction; -1 resource-free *)
  enq : int array; (* per pipe *)
  pipe_members : int array array; (* pipe -> instructions *)
  (* assignment state *)
  assign : int array; (* var -> 0 unknown / 1 true / -1 false *)
  level : int array; (* var -> decision level *)
  reason_tag : int array;
  reason_arg : int array;
  trail : int array; (* literals in assignment order *)
  mutable trail_n : int;
  mutable qhead : int;
  trail_lim : int array; (* trail size at each decision *)
  mutable level_n : int;
  rem : int array; (* per instruction: non-false slots left *)
  placed : int array; (* per instruction: its true var, or -1 *)
  mutable placed_n : int;
  mutable confl : conflict;
  (* learned clauses: arena of [size; lit...] records, two watches each *)
  arena : Vec.t;
  watches : Vec.t array; (* per literal *)
  act : float array; (* per variable *)
  inst_act : float array; (* per instruction (decision tie-break) *)
  mutable var_inc : float;
  seen : bool array; (* per variable, conflict-analysis scratch *)
  learnt : Vec.t; (* conflict-analysis scratch *)
  (* packing-check scratch *)
  pk_min : int array;
  pk_max : int array;
  pk_sort : int array;
}

let value_lit q l =
  let a = q.assign.(l lsr 1) in
  if l land 1 = 0 then a else -a

(* Assign literal [l] (which must not already be false; callers check),
   recording its reason.  Updates the per-instruction slot counters the
   analysis and the decision heuristic rely on. *)
let enqueue q l ~tag ~arg =
  let v = l lsr 1 in
  q.assign.(v) <- (if l land 1 = 0 then 1 else -1);
  q.level.(v) <- q.level_n;
  q.reason_tag.(v) <- tag;
  q.reason_arg.(v) <- arg;
  q.trail.(q.trail_n) <- l;
  q.trail_n <- q.trail_n + 1;
  let i = q.var_inst.(v) in
  if l land 1 = 0 then begin
    q.placed.(i) <- v;
    q.placed_n <- q.placed_n + 1
  end
  else q.rem.(i) <- q.rem.(i) - 1

(* Falsify slot [u] because the true literal [a] forbids it. *)
let falsify q u ~antecedent =
  match q.assign.(u) with
  | -1 -> ()
  | 1 -> q.confl <- C_binary (neg antecedent, (2 * u) + 1)
  | _ -> enqueue q ((2 * u) + 1) ~tag:r_binary ~arg:antecedent

let var_of q i t = q.var_base.(i) + t - q.est.(i)

(* Propagate the consequences of slot (i, t) being taken: siblings, tick
   occupancy, dependence windows, and same-pipe spacing all falsify. *)
let propagate_true q v =
  let a = 2 * v in
  let i = q.var_inst.(v) and t = q.var_tick.(v) in
  (* at-most-one slot per instruction *)
  let b = q.var_base.(i) in
  let w = q.lst.(i) - q.est.(i) in
  let u = ref b in
  while q.confl == No_confl && !u <= b + w do
    if !u <> v then falsify q !u ~antecedent:a;
    incr u
  done;
  (* at most one instruction per tick *)
  let o = q.occ.(t) in
  let k = ref 0 in
  while q.confl == No_confl && !k < Array.length o do
    let u = o.(!k) in
    if u <> v then falsify q u ~antecedent:a;
    incr k
  done;
  (* dependence: successors at ticks < t + lat(i), predecessors at ticks
     > t - lat(pred) *)
  let ss = q.succs.(i) in
  let k = ref 0 in
  while q.confl == No_confl && !k < Array.length ss do
    let s = ss.(!k) in
    let hi = min q.lst.(s) (t + q.lat.(i) - 1) in
    let t' = ref q.est.(s) in
    while q.confl == No_confl && !t' <= hi do
      falsify q (var_of q s !t') ~antecedent:a;
      incr t'
    done;
    incr k
  done;
  let ps = q.preds.(i) in
  let k = ref 0 in
  while q.confl == No_confl && !k < Array.length ps do
    let p = ps.(!k) in
    let lo = max q.est.(p) (t - q.lat.(p) + 1) in
    let t' = ref lo in
    while q.confl == No_confl && !t' <= q.lst.(p) do
      falsify q (var_of q p !t') ~antecedent:a;
      incr t'
    done;
    incr k
  done;
  (* pipe conflicts: same-pipe mates within the enqueue window *)
  let p = q.pipe_of.(i) in
  if q.confl == No_confl && p >= 0 && q.enq.(p) > 1 then begin
    let e = q.enq.(p) in
    let ms = q.pipe_members.(p) in
    let k = ref 0 in
    while q.confl == No_confl && !k < Array.length ms do
      let j = ms.(!k) in
      if j <> i then begin
        let lo = max q.est.(j) (t - e + 1)
        and hi = min q.lst.(j) (t + e - 1) in
        let t' = ref lo in
        while q.confl == No_confl && !t' <= hi do
          falsify q (var_of q j !t') ~antecedent:a;
          incr t'
        done
      end;
      incr k
    done
  end

(* A slot went false: the instruction may now be forced (one slot left)
   or wiped out (none). *)
let propagate_false q v =
  let i = q.var_inst.(v) in
  if q.placed.(i) < 0 then begin
    if q.rem.(i) = 0 then q.confl <- C_alo i
    else if q.rem.(i) = 1 then begin
      let b = q.var_base.(i) in
      let last = ref (-1) in
      for u = b to b + q.lst.(i) - q.est.(i) do
        if q.assign.(u) = 0 then last := u
      done;
      (* rem = 1 and nothing placed: exactly one unassigned slot left *)
      enqueue q (2 * !last) ~tag:r_alo ~arg:i
    end
  end

(* Two-watched-literal pass over the learned clauses watching [l], which
   has just become false.  Arena layout per clause: [size; lit0; lit1;
   rest...]; watches sit on lit0/lit1. *)
let propagate_watches q l =
  let ws = q.watches.(l) in
  let r = ref 0 and w = ref 0 in
  let arena = q.arena.Vec.a in
  while !r < ws.Vec.n do
    let off = ws.Vec.a.(!r) in
    incr r;
    if q.confl != No_confl then begin
      (* conflict already found: retain the remaining watchers as-is *)
      ws.Vec.a.(!w) <- off;
      incr w
    end
    else begin
      let size = arena.(off) in
      if arena.(off + 1) = l then begin
        arena.(off + 1) <- arena.(off + 2);
        arena.(off + 2) <- l
      end;
      let first = arena.(off + 1) in
      if value_lit q first = 1 then begin
        ws.Vec.a.(!w) <- off;
        incr w
      end
      else begin
        let moved = ref false in
        let k = ref 3 in
        while (not !moved) && !k <= size do
          if value_lit q arena.(off + !k) <> -1 then begin
            arena.(off + 2) <- arena.(off + !k);
            arena.(off + !k) <- l;
            Vec.push q.watches.(arena.(off + 2)) off;
            moved := true
          end;
          incr k
        done;
        if not !moved then begin
          ws.Vec.a.(!w) <- off;
          incr w;
          if value_lit q first = -1 then q.confl <- C_learned off
          else enqueue q first ~tag:r_clause ~arg:off
        end
      end
    end
  done;
  ws.Vec.n <- !w

(* Drain the trail; returns with [q.confl] set on failure. *)
let propagate q =
  let props = ref 0 in
  while q.confl == No_confl && q.qhead < q.trail_n do
    let l = q.trail.(q.qhead) in
    q.qhead <- q.qhead + 1;
    incr props;
    if l land 1 = 0 then begin
      propagate_true q (l lsr 1);
      if q.confl == No_confl then propagate_watches q (neg l)
    end
    else begin
      propagate_false q (l lsr 1);
      if q.confl == No_confl then propagate_watches q (neg l)
    end
  done;
  !props

let rescale q =
  for v = 0 to q.nvars - 1 do
    q.act.(v) <- q.act.(v) *. 1e-100
  done;
  for i = 0 to q.n - 1 do
    q.inst_act.(i) <- q.inst_act.(i) *. 1e-100
  done;
  q.var_inc <- q.var_inc *. 1e-100

let bump q v =
  q.act.(v) <- q.act.(v) +. q.var_inc;
  let i = q.var_inst.(v) in
  q.inst_act.(i) <- q.inst_act.(i) +. q.var_inc;
  if q.act.(v) > 1e100 then rescale q

(* Iterate the false literals of the reason clause that implied [v]'s
   assignment (every yielded literal is false at call time). *)
let iter_reason q v f =
  let tag = q.reason_tag.(v) in
  if tag = r_binary then f (neg q.reason_arg.(v))
  else if tag = r_alo then begin
    let i = q.reason_arg.(v) in
    let b = q.var_base.(i) in
    for u = b to b + q.lst.(i) - q.est.(i) do
      if u <> v then f (2 * u)
    done
  end
  else if tag = r_clause then begin
    let off = q.reason_arg.(v) in
    let arena = q.arena.Vec.a in
    let size = arena.(off) in
    for k = 1 to size do
      let l = arena.(off + k) in
      if l lsr 1 <> v then f l
    done
  end

let iter_conflict q c f =
  match c with
  | No_confl -> ()
  | C_binary (l1, l2) ->
    f l1;
    f l2
  | C_alo i ->
    let b = q.var_base.(i) in
    for u = b to b + q.lst.(i) - q.est.(i) do
      f (2 * u)
    done
  | C_learned off ->
    let arena = q.arena.Vec.a in
    for k = 1 to arena.(off) do
      f arena.(off + k)
    done

(* 1-UIP analysis: returns the asserting literal and the backjump level;
   the learned clause (asserting lit first, backjump-level lit second) is
   appended to the arena and watched.  Standard first-UIP resolution over
   the implication graph, with activity bumps on every resolved var. *)
let analyze q confl =
  let learnt = q.learnt in
  learnt.Vec.n <- 0;
  let count = ref 0 in
  let process l =
    let v = l lsr 1 in
    if (not q.seen.(v)) && q.level.(v) > 0 then begin
      q.seen.(v) <- true;
      bump q v;
      if q.level.(v) >= q.level_n then incr count else Vec.push learnt l
    end
  in
  iter_conflict q confl process;
  let idx = ref (q.trail_n - 1) in
  let uip = ref (-1) in
  while !uip < 0 do
    while not q.seen.(q.trail.(!idx) lsr 1) do
      decr idx
    done;
    let p = q.trail.(!idx) in
    let v = p lsr 1 in
    q.seen.(v) <- false;
    decr count;
    if !count = 0 then uip := p
    else begin
      iter_reason q v process;
      decr idx
    end
  done;
  (* clear the seen marks left on lower-level lits *)
  for k = 0 to learnt.Vec.n - 1 do
    q.seen.(learnt.Vec.a.(k) lsr 1) <- false
  done;
  (* backjump level = highest level in the tail; move its lit to front *)
  let bl = ref 0 and bk = ref (-1) in
  for k = 0 to learnt.Vec.n - 1 do
    let lv = q.level.(learnt.Vec.a.(k) lsr 1) in
    if lv > !bl then begin
      bl := lv;
      bk := k
    end
  done;
  if !bk > 0 then begin
    let tmp = learnt.Vec.a.(0) in
    learnt.Vec.a.(0) <- learnt.Vec.a.(!bk);
    learnt.Vec.a.(!bk) <- tmp
  end;
  (* append [size; neg uip; tail...] to the arena *)
  let size = learnt.Vec.n + 1 in
  let off = q.arena.Vec.n in
  Vec.push q.arena size;
  Vec.push q.arena (neg !uip);
  for k = 0 to learnt.Vec.n - 1 do
    Vec.push q.arena learnt.Vec.a.(k)
  done;
  if size >= 2 then begin
    Vec.push q.watches.(q.arena.Vec.a.(off + 1)) off;
    Vec.push q.watches.(q.arena.Vec.a.(off + 2)) off
  end;
  (neg !uip, !bl, off)

let backtrack q bl =
  if q.level_n > bl then begin
    let target = q.trail_lim.(bl) in
    for k = q.trail_n - 1 downto target do
      let l = q.trail.(k) in
      let v = l lsr 1 in
      let i = q.var_inst.(v) in
      if l land 1 = 0 then begin
        q.placed.(i) <- -1;
        q.placed_n <- q.placed_n - 1
      end
      else q.rem.(i) <- q.rem.(i) + 1;
      q.assign.(v) <- 0;
      q.reason_tag.(v) <- r_none
    done;
    q.trail_n <- target;
    q.qhead <- target;
    q.level_n <- bl
  end

(* Learned-clause housekeeping, run at restarts (decision level 0).
   [analyze] never iterates the reason of a level-0 variable, so every
   level-0 assignment can be downgraded to a reason-free fact — which
   frees the whole arena for strengthening and deletion.  Each clause is
   strengthened by its level-0-false literals; satisfied clauses and
   clauses still wider than [keep_width] are dropped, the rest re-added
   and re-watched.  A unit survivor becomes a level-0 fact; an empty one
   refutes the query (returns false).  Dropping learned clauses is
   always sound — they are entailed — and keeps the watch lists short:
   without deletion the per-conflict cost grows without bound on hard
   UNSAT queries. *)
let keep_width = 30

let reduce_db q =
  for k = 0 to q.trail_n - 1 do
    q.reason_tag.(q.trail.(k) lsr 1) <- r_none
  done;
  for l = 0 to (2 * q.nvars) - 1 do
    q.watches.(l).Vec.n <- 0
  done;
  let old = q.arena.Vec.a and old_n = q.arena.Vec.n in
  let na = Vec.create () in
  let ok = ref true in
  let off = ref 0 in
  while !ok && !off < old_n do
    let size = old.(!off) in
    let sat = ref false in
    let kept = ref 0 in
    for k = 1 to size do
      match value_lit q old.(!off + k) with
      | 1 -> sat := true
      | 0 -> incr kept
      | _ -> ()
    done;
    if (not !sat) && !kept <= keep_width then begin
      if !kept = 0 then ok := false
      else if !kept = 1 then begin
        for k = 1 to size do
          let l = old.(!off + k) in
          if value_lit q l = 0 then enqueue q l ~tag:r_none ~arg:0
        done
      end
      else begin
        let noff = na.Vec.n in
        Vec.push na !kept;
        for k = 1 to size do
          let l = old.(!off + k) in
          if value_lit q l = 0 then Vec.push na l
        done;
        Vec.push q.watches.(na.Vec.a.(noff + 1)) noff;
        Vec.push q.watches.(na.Vec.a.(noff + 2)) noff
      end
    end;
    off := !off + size + 1
  done;
  q.arena.Vec.a <- na.Vec.a;
  q.arena.Vec.n <- na.Vec.n;
  !ok

(* Sound packing bound over the current (level-0, at restarts) domains.
   For any set of ops that must be pairwise [spacing] apart, the ones
   whose earliest tick is >= e need a last issue >= e + (k-1)*spacing;
   if that exceeds every member's latest tick, the query is infeasible.
   Checked per pipeline (spacing = enqueue) and globally over all
   instructions (spacing = 1: tick distinctness).  [members] lists the
   instructions of the group. *)
let pack_infeasible_group q members spacing =
  let k = Array.length members in
  if k < 2 then false
  else begin
    let sort = q.pk_sort in
    for j = 0 to k - 1 do
      let i = members.(j) in
      (* current domain min / max: first and last non-false slots *)
      let b = q.var_base.(i) in
      let w = q.lst.(i) - q.est.(i) in
      (if q.placed.(i) >= 0 then begin
         q.pk_min.(i) <- q.var_tick.(q.placed.(i));
         q.pk_max.(i) <- q.pk_min.(i)
       end
       else begin
         let lo = ref (-1) and hi = ref (-1) in
         for u = b to b + w do
           if q.assign.(u) <> -1 then begin
             if !lo < 0 then lo := u;
             hi := u
           end
         done;
         (* a wiped-out domain is caught by propagation, not here *)
         q.pk_min.(i) <- (if !lo < 0 then q.est.(i) else q.var_tick.(!lo));
         q.pk_max.(i) <- (if !hi < 0 then q.lst.(i) else q.var_tick.(!hi))
       end);
      sort.(j) <- i
    done;
    (* insertion sort by domain min (groups are small) *)
    for j = 1 to k - 1 do
      let x = sort.(j) in
      let m = ref (j - 1) in
      while !m >= 0 && q.pk_min.(sort.(!m)) > q.pk_min.(x) do
        sort.(!m + 1) <- sort.(!m);
        decr m
      done;
      sort.(!m + 1) <- x
    done;
    let bad = ref false in
    let max_lst = ref min_int in
    for j = k - 1 downto 0 do
      let i = sort.(j) in
      if q.pk_max.(i) > !max_lst then max_lst := q.pk_max.(i);
      if q.pk_min.(i) + ((k - 1 - j) * spacing) > !max_lst then bad := true
    done;
    !bad
  end

let pack_infeasible q all_insts =
  let bad = ref (pack_infeasible_group q all_insts 1) in
  let p = ref 0 in
  while (not !bad) && !p < Array.length q.enq do
    if q.enq.(!p) > 1 then
      bad := pack_infeasible_group q q.pipe_members.(!p) q.enq.(!p);
    incr p
  done;
  !bad

(* First-fail decision: the unplaced instruction with the fewest
   remaining slots, activity then index breaking ties; its value is the
   earliest remaining tick (chronological construction finds tight
   schedules fast; learned nogoods redirect it where it is wrong). *)
let decide q =
  let best = ref (-1) in
  for i = 0 to q.n - 1 do
    if q.placed.(i) < 0 then
      if
        !best < 0
        || q.rem.(i) < q.rem.(!best)
        || (q.rem.(i) = q.rem.(!best) && q.inst_act.(i) > q.inst_act.(!best))
      then best := i
  done;
  let i = !best in
  let b = q.var_base.(i) in
  let v = ref (-1) in
  let u = ref b in
  while !v < 0 do
    if q.assign.(!u) = 0 then v := !u;
    incr u
  done;
  q.trail_lim.(q.level_n) <- q.trail_n;
  q.level_n <- q.level_n + 1;
  enqueue q (2 * !v) ~tag:r_none ~arg:0

(* ------------------------------------------------------------------ *)
(* Encoding construction.                                              *)

type built = Infeasible | Query of query

let build machine dag ~entry ~target =
  let n = Dag.length dag in
  let blk = Dag.block dag in
  let npipes = Machine.pipe_count machine in
  let horizon = n - 1 + target in
  let pipe_of =
    Array.init n (fun i ->
        match Machine.default_pipe machine (Block.tuple_at blk i).Tuple.op with
        | Some p -> p
        | None -> -1)
  in
  let lat =
    Array.init n (fun i ->
        if pipe_of.(i) >= 0 then (Machine.pipe machine pipe_of.(i)).Pipe.latency
        else 1)
  in
  let enq =
    Array.init npipes (fun p -> (Machine.pipe machine p).Pipe.enqueue)
  in
  let preds = Array.init n (fun i -> Dag.preds_arr dag i) in
  let succs = Array.init n (fun i -> Dag.succs_arr dag i) in
  (* earliest ticks: entry release + latency-weighted longest path (block
     order is topological) *)
  let est = Array.make n 0 in
  let feasible = ref true in
  for i = 0 to n - 1 do
    let e = ref 0 in
    (if pipe_of.(i) >= 0 then
       let rel = entry.Omega.pipe_last_use.(pipe_of.(i)) + enq.(pipe_of.(i)) in
       if rel > !e then e := rel);
    Array.iter
      (fun u ->
        let a = est.(u) + lat.(u) in
        if a > !e then e := a)
      preds.(i);
    est.(i) <- !e
  done;
  (* latest ticks: backward from the horizon *)
  let lst = Array.make n horizon in
  for i = n - 1 downto 0 do
    Array.iter
      (fun s ->
        let b = lst.(s) - lat.(i) in
        if b < lst.(i) then lst.(i) <- b)
      succs.(i);
    if est.(i) > lst.(i) then feasible := false
  done;
  if not !feasible then Infeasible
  else begin
    let var_base = Array.make n 0 in
    let nvars = ref 0 in
    for i = 0 to n - 1 do
      var_base.(i) <- !nvars;
      nvars := !nvars + (lst.(i) - est.(i) + 1)
    done;
    let nvars = !nvars in
    if nvars > max_vars then raise Too_big;
    let var_inst = Array.make nvars 0 and var_tick = Array.make nvars 0 in
    for i = 0 to n - 1 do
      for t = est.(i) to lst.(i) do
        let v = var_base.(i) + t - est.(i) in
        var_inst.(v) <- i;
        var_tick.(v) <- t
      done
    done;
    let occ_n = Array.make (horizon + 1) 0 in
    for v = 0 to nvars - 1 do
      occ_n.(var_tick.(v)) <- occ_n.(var_tick.(v)) + 1
    done;
    let occ = Array.init (horizon + 1) (fun t -> Array.make occ_n.(t) 0) in
    Array.fill occ_n 0 (horizon + 1) 0;
    for v = 0 to nvars - 1 do
      let t = var_tick.(v) in
      occ.(t).(occ_n.(t)) <- v;
      occ_n.(t) <- occ_n.(t) + 1
    done;
    let members_n = Array.make (max npipes 1) 0 in
    for i = 0 to n - 1 do
      if pipe_of.(i) >= 0 then
        members_n.(pipe_of.(i)) <- members_n.(pipe_of.(i)) + 1
    done;
    let pipe_members =
      Array.init (max npipes 1) (fun p ->
          Array.make (if p < npipes then members_n.(p) else 0) 0)
    in
    Array.fill members_n 0 (Array.length members_n) 0;
    for i = 0 to n - 1 do
      let p = pipe_of.(i) in
      if p >= 0 then begin
        pipe_members.(p).(members_n.(p)) <- i;
        members_n.(p) <- members_n.(p) + 1
      end
    done;
    let q =
      {
        n;
        horizon;
        est;
        lst;
        var_base;
        var_inst;
        var_tick;
        nvars;
        occ;
        succs;
        preds;
        lat;
        pipe_of;
        enq;
        pipe_members;
        assign = Array.make nvars 0;
        level = Array.make nvars 0;
        reason_tag = Array.make nvars r_none;
        reason_arg = Array.make nvars 0;
        trail = Array.make nvars 0;
        trail_n = 0;
        qhead = 0;
        trail_lim = Array.make (n + 1) 0;
        level_n = 0;
        rem = Array.init n (fun i -> lst.(i) - est.(i) + 1);
        placed = Array.make n (-1);
        placed_n = 0;
        confl = No_confl;
        arena = Vec.create ();
        watches = Array.init (2 * nvars) (fun _ -> Vec.create ());
        act = Array.make nvars 0.0;
        inst_act = Array.make n 0.0;
        var_inc = 1.0;
        seen = Array.make nvars false;
        learnt = Vec.create ();
        pk_min = Array.make n 0;
        pk_max = Array.make n 0;
        pk_sort = Array.make n 0;
      }
    in
    Query q
  end

(* ------------------------------------------------------------------ *)
(* One decision problem under the shared budget.                       *)

type acc = {
  mutable a_decisions : int;
  mutable a_conflicts : int;
  mutable a_props : int;
  mutable a_restarts : int;
  mutable a_learned : int;
}

type qres = Sat of int array | Unsat | Curtailed

let run_query q budget acc ~all_insts =
  if pack_infeasible q all_insts then Unsat
  else begin
    let restart_lim = ref 128 in
    let since_restart = ref 0 in
    let result = ref None in
    while !result = None do
      let props = propagate q in
      acc.a_props <- acc.a_props + props;
      match q.confl with
      | No_confl ->
        if q.placed_n = q.n then begin
          let order = Array.make q.n 0 in
          for i = 0 to q.n - 1 do
            order.(i) <- i
          done;
          Array.sort
            (fun a b -> compare q.var_tick.(q.placed.(a)) q.var_tick.(q.placed.(b)))
            order;
          result := Some (Sat order)
        end
        else if Budget.exhausted budget then result := Some Curtailed
        else begin
          Budget.spend budget;
          acc.a_decisions <- acc.a_decisions + 1;
          decide q
        end
      | confl ->
        if q.level_n = 0 then result := Some Unsat
        else begin
          Budget.spend budget;
          acc.a_conflicts <- acc.a_conflicts + 1;
          incr since_restart;
          let asserting, bl, off = analyze q confl in
          acc.a_learned <- acc.a_learned + 1;
          q.confl <- No_confl;
          backtrack q bl;
          enqueue q asserting ~tag:r_clause ~arg:off;
          q.var_inc <- q.var_inc /. 0.95;
          if !since_restart >= !restart_lim then begin
            acc.a_restarts <- acc.a_restarts + 1;
            since_restart := 0;
            (* capped growth: deletion happens at restarts, so they must
               keep coming on long queries *)
            restart_lim := min (!restart_lim * 3 / 2) 2048;
            backtrack q 0;
            if not (reduce_db q) then result := Some Unsat
            else if pack_infeasible q all_insts then result := Some Unsat
            else if Budget.exhausted budget then result := Some Curtailed
          end
        end
    done;
    match !result with Some r -> r | None -> assert false
  end

(* ------------------------------------------------------------------ *)
(* Optimization: tighten the NOP bound from the list incumbent.        *)

(* Root lower bound on NOPs of any schedule: the latency-weighted
   critical path and the packing bound, both over the unbounded-horizon
   windows.  Closing [ub] against it skips the final UNSAT query. *)
let root_lower_bound machine dag ~entry =
  let n = Dag.length dag in
  match build machine dag ~entry ~target:(max 1 n * (1 + 8)) with
  | Infeasible -> 0
  | Query q ->
    (* critical path: est + latency tail *)
    let tail = Array.make n 0 in
    let span = ref 0 in
    for i = n - 1 downto 0 do
      Array.iter
        (fun s ->
          let t = q.lat.(i) + tail.(s) in
          if t > tail.(i) then tail.(i) <- t)
        q.succs.(i);
      if q.est.(i) + tail.(i) > !span then span := q.est.(i) + tail.(i)
    done;
    (* packing: the suffix bound per group, over est-sorted members *)
    let group members spacing =
      let k = Array.length members in
      if k >= 2 then begin
        let sort = Array.copy members in
        Array.sort (fun a b -> compare q.est.(a) q.est.(b)) sort;
        for j = 0 to k - 1 do
          let need = q.est.(sort.(j)) + ((k - 1 - j) * spacing) in
          if need > !span then span := need
        done
      end
    in
    group (Array.init n (fun i -> i)) 1;
    for p = 0 to Array.length q.enq - 1 do
      if q.enq.(p) > 1 then group q.pipe_members.(p) q.enq.(p)
    done;
    max 0 (!span - (n - 1))

let solve ?(lambda = 200_000) ?deadline_s ?(seed = List_sched.Max_distance)
    ?entry ?(bound = max_int) machine dag =
  let n = Dag.length dag in
  let entry_v =
    match entry with Some e -> e | None -> Omega.cold_entry machine
  in
  let seed_order = List_sched.schedule seed dag in
  let initial = Omega.evaluate ?entry machine dag ~order:seed_order in
  let budget = Budget.start ~lambda ?deadline_s () in
  let acc =
    { a_decisions = 0; a_conflicts = 0; a_props = 0; a_restarts = 0;
      a_learned = 0 }
  in
  let queries = ref 0 in
  let best = ref initial in
  let ub = ref (min initial.Omega.nops bound) in
  let status = ref Budget.Complete in
  let completed = ref false in
  let all_insts = Array.init n (fun i -> i) in
  (try
     if n = 0 then completed := true
     else begin
       (* Binary search on the NOP count between the root lower bound and
          the incumbent: UNSAT (or an infeasible horizon) raises the
          floor, a model lowers the ceiling to its evaluated NOP count.
          Meets at the optimum in log(gap) queries — the list seed can be
          far above the optimum, and stepping down one NOP at a time
          would re-prove a long chain of easy SAT queries. *)
       let lb = ref (root_lower_bound machine dag ~entry:entry_v) in
       let running = ref true in
       while !running do
         if !ub <= !lb then begin
           completed := true;
           running := false
         end
         else begin
           let target = !lb + ((!ub - 1 - !lb) / 2) in
           match build machine dag ~entry:entry_v ~target with
           | Infeasible -> lb := target + 1
           | Query q ->
             incr queries;
             (match run_query q budget acc ~all_insts with
              | Unsat -> lb := target + 1
              | Sat order ->
                let r = Omega.evaluate ?entry machine dag ~order in
                (* Ω re-evaluation can only shift issues earlier than the
                   model's ticks (DESIGN §14); a miss here is an encoding
                   soundness bug. *)
                assert (r.Omega.nops <= target);
                if r.Omega.nops < !best.Omega.nops then best := r;
                if r.Omega.nops < !ub then ub := r.Omega.nops
              | Curtailed ->
                status := budget.Budget.stopped;
                running := false)
         end
       done
     end
   with Too_big -> status := Budget.Curtailed_lambda);
  let stats =
    {
      queries = !queries;
      decisions = acc.a_decisions;
      conflicts = acc.a_conflicts;
      propagations = acc.a_props;
      restarts = acc.a_restarts;
      learned = acc.a_learned;
      completed = !completed;
      status = (if !completed then Budget.Complete else !status);
      proved = (if !completed then Some !ub else None);
    }
  in
  { best = !best; initial; stats }
