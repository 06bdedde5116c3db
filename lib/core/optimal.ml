open Pipesched_ir
open Pipesched_machine
open Pipesched_sched
module Budget = Pipesched_prelude.Budget
module Incumbent = Pipesched_prelude.Incumbent
module Memo_table = Pipesched_prelude.Memo_table

type lower_bound = Partial_nops | Critical_path

type memo_options = {
  memo_enabled : bool;
  memo_capacity : int;
  memo_activation : int;
}

type options = {
  lambda : int;
  deadline_s : float option;
  cancel : Budget.token option;
  seed : List_sched.heuristic;
  equivalence : bool;
  strong_equivalence : bool;
  alpha_beta : bool;
  lower_bound : lower_bound;
  memo : memo_options;
}

let default_memo =
  { memo_enabled = true; memo_capacity = 4_096; memo_activation = 256 }

let default_options =
  {
    lambda = 100_000;
    deadline_s = None;
    cancel = None;
    seed = List_sched.Max_distance;
    equivalence = true;
    strong_equivalence = false;
    alpha_beta = true;
    lower_bound = Partial_nops;
    memo = default_memo;
  }

type stats = {
  omega_calls : int;
  schedules_completed : int;
  improvements : int;
  completed : bool;
  status : Budget.status;
  elapsed_s : float;
  memo_hits : int;
  memo_misses : int;
  memo_entries : int;
  memo_evictions : int;
}

type outcome = { best : Omega.result; initial : Omega.result; stats : stats }

exception Curtailed

(* Shared machinery between the single-pipe and multi-pipe searches. *)
type search_env = {
  n : int;
  st : Omega.State.t;
  cand_order : int array;
  rank : int array;                (* inverse of cand_order *)
  ready : Pipesched_prelude.Bitset.t;
      (* ranks of the currently ready positions, maintained
         incrementally by [dfs] as instructions are pushed and popped *)
  preds : int array array;         (* Dag adjacency, flattened *)
  succs : int array array;
  is_free : bool array;
  (* Strong-equivalence class of each position, interned to a dense int
     in [make_env] so the per-node tried-signature check is an int-array
     probe instead of polymorphic hashing of array tuples. *)
  signature : int array;
  nsigs : int;
  (* Critical-path bound ingredients (admissible for any pipe choice). *)
  min_lat : int array;
  tail : int array;
  (* Resource-bound ingredients: the forced pipeline of each position
     (-1 when resource-free or when several candidates exist — such
     operations contribute nothing, keeping the bound admissible for the
     multi-pipe search too), and each pipeline's enqueue time. *)
  forced_pipe : int array;
  pipe_enqueue : int array;
  (* Largest producer latency any pipe can impose (>= 1, the resource-free
     latency): bounds how far back in the schedule stack a producer can
     still have a positive residual in [fingerprint]. *)
  max_prod_lat : int;
  dag : Dag.t;
  (* Dominance-memoization state: the scheduled-set key (maintained
     incrementally by [dfs]), the normalized-fingerprint scratch, and the
     transposition table itself (created lazily once the search has done
     [memo_activation] Omega calls, so tiny searches never pay the
     allocation). *)
  sched_set : Pipesched_prelude.Bitset.t;
  fp : int array;
  mutable memo_tbl : Memo_table.t option;
  mutable memo_hits : int;
  mutable memo_misses : int;
  (* Critical-path-bound scratch, preallocated so the bound is not
     O(n) in fresh arrays per node; [cp_bound.(d)] caches the admissible
     bound computed for the node currently open at depth [d]. *)
  cp_est : int array;
  cp_remaining : int array;
  cp_bound : int array;
  budget : Budget.t;
  (* The portfolio's shared incumbent ([None] for a standalone
     search). *)
  shared : Omega.result Incumbent.t option;
  mutable omega_calls : int;
  mutable schedules_completed : int;
  mutable improvements : int;
  mutable best_nops : int;
}

(* [multi]: the search may choose among candidate pipelines, so only
   single-candidate operations may be charged to a pipe in the resource
   bound; the single-pipe search pins every operation to its default. *)
let make_env ?entry ~multi ?shared machine dag options =
  let n = Dag.length dag in
  let blk = Dag.block dag in
  let pipe_of pos =
    Machine.default_pipe machine (Block.tuple_at blk pos).Tuple.op
  in
  let min_lat =
    Array.init n (fun pos ->
        let op = (Block.tuple_at blk pos).Tuple.op in
        match Machine.candidates machine op with
        | [] -> 1
        | pids ->
          List.fold_left
            (fun acc pid -> min acc (Machine.pipe machine pid).Pipe.latency)
            max_int pids)
  in
  let tail = Dag.heights dag ~edge_weight:(fun ~src ~dst:_ -> min_lat.(src)) in
  let forced_pipe =
    Array.init n (fun pos ->
        match
          Machine.candidates machine (Block.tuple_at blk pos).Tuple.op
        with
        | [ p ] -> p
        | [] -> -1
        | p :: _ :: _ -> if multi then -1 else p)
  in
  let pipe_enqueue =
    Array.init (Machine.pipe_count machine) (fun p ->
        (Machine.pipe machine p).Pipe.enqueue)
  in
  let max_prod_lat =
    let m = ref 1 in
    for p = 0 to Machine.pipe_count machine - 1 do
      let l = (Machine.pipe machine p).Pipe.latency in
      if l > !m then m := l
    done;
    !m
  in
  let preds = Array.init n (fun pos -> Dag.preds_arr dag pos) in
  let succs = Array.init n (fun pos -> Dag.succs_arr dag pos) in
  let cand_order = List_sched.order_by_priority options.seed dag in
  let rank = Array.make n 0 in
  Array.iteri (fun r pos -> rank.(pos) <- r) cand_order;
  (* Intern the strong-equivalence signatures — (pipe, preds, succs) —
     to dense ints once at construction (polymorphic hashing is fine
     here, off the search hot path), so the per-node check in [dfs]
     probes an int matrix. *)
  let sig_ids = Hashtbl.create (max n 1) in
  let nsigs = ref 0 in
  let signature =
    Array.init n (fun pos ->
        let key =
          ( (match pipe_of pos with Some p -> p | None -> -1),
            preds.(pos),
            succs.(pos) )
        in
        match Hashtbl.find_opt sig_ids key with
        | Some id -> id
        | None ->
          let id = !nsigs in
          Hashtbl.add sig_ids key id;
          incr nsigs;
          id)
  in
  let ready = Pipesched_prelude.Bitset.create (max n 1) in
  for pos = 0 to n - 1 do
    if Array.length preds.(pos) = 0 then
      Pipesched_prelude.Bitset.add ready rank.(pos)
  done;
  {
    n;
    st = Omega.State.create ?entry machine dag;
    cand_order;
    rank;
    ready;
    preds;
    succs;
    (* [5c] needs the successor-free refinement: two resource-free,
       predecessor-free instructions are only interchangeable in every
       completion when neither constrains anything downstream.  Without
       it the pruning can discard all optimal schedules (see the
       counterexample in test_core.ml). *)
    is_free =
      Array.init n (fun pos ->
          pipe_of pos = None
          && Array.length preds.(pos) = 0
          && Array.length succs.(pos) = 0);
    signature;
    nsigs = !nsigs;
    min_lat;
    tail;
    forced_pipe;
    pipe_enqueue;
    max_prod_lat;
    dag;
    sched_set = Pipesched_prelude.Bitset.create (max n 1);
    fp = Array.make (1 + Array.length pipe_enqueue + n) 0;
    memo_tbl = None;
    memo_hits = 0;
    memo_misses = 0;
    cp_est = Array.make (max n 1) 0;
    cp_remaining = Array.make (max (Array.length pipe_enqueue) 1) 0;
    cp_bound = Array.make (n + 1) 0;
    budget =
      Budget.start
        {
          Budget.calls = Some options.lambda;
          deadline_s = options.deadline_s;
          cancel = options.cancel;
        };
    shared;
    omega_calls = 0;
    schedules_completed = 0;
    improvements = 0;
    best_nops = max_int;
  }

(* Admissible lower bound on the final total NOPs of any completion of the
   current partial schedule: mu(Phi) refined with the earliest possible
   issue of each unscheduled instruction plus its latency-weighted tail
   (see optimal.mli).  est is computed over unscheduled positions in block
   order, which is topological.

   [floor] is a bound already known to be admissible for this node — the
   caller passes the parent's cached bound: the child's completions are a
   subset of the parent's, so any lower bound on the parent also bounds
   the child, and taking the max only tightens the result.

   The scratch arrays live in [search_env]: [cp_est] needs no clearing
   because every unscheduled position is written before it is read (block
   order is topological, and scheduled slots are never read); only the
   per-pipe [cp_remaining] counters are zeroed. *)
let critical_path_bound env ~floor =
  let st = env.st in
  let depth = Omega.State.depth st in
  if depth = env.n then max floor (Omega.State.nops st)
  else begin
    let est = env.cp_est in
    let last_issue =
      if depth = 0 then -1
      else Omega.State.issue_of st (Omega.State.at_depth st (depth - 1))
    in
    let bound = ref (max floor (Omega.State.nops st)) in
    let remaining_on = env.cp_remaining in
    Array.fill remaining_on 0 (Array.length remaining_on) 0;
    for v = 0 to env.n - 1 do
      if not (Omega.State.is_scheduled st v) then begin
        if env.forced_pipe.(v) >= 0 then
          remaining_on.(env.forced_pipe.(v)) <-
            remaining_on.(env.forced_pipe.(v)) + 1;
        let e = ref (last_issue + 1) in
        Array.iter
          (fun u ->
            let avail =
              if Omega.State.is_scheduled st u then
                Omega.State.issue_of st u + env.min_lat.(u)
              else est.(u) + env.min_lat.(u)
            in
            if avail > !e then e := avail)
          env.preds.(v);
        est.(v) <- !e;
        let b = !e + env.tail.(v) - (env.n - 1) in
        if b > !bound then bound := b
      end
    done;
    (* Resource component: the R_p unscheduled operations forced onto pipe
       p each need [enqueue_p] ticks after the previous enqueue, starting
       from the pipe's current last use (or from the next issue slot when
       the pipe is still untouched). *)
    Array.iteri
      (fun p r ->
        if r > 0 then begin
          let last = Omega.State.last_use st p in
          let finish =
            if last > min_int / 4 then last + (r * env.pipe_enqueue.(p))
            else last_issue + 1 + ((r - 1) * env.pipe_enqueue.(p))
          in
          let b = finish - (env.n - 1) in
          if b > !bound then bound := b
        end)
      remaining_on;
    !bound
  end

let bound_value env options ~floor =
  match options.lower_bound with
  | Partial_nops -> max floor (Omega.State.nops env.st)
  | Critical_path -> critical_path_bound env ~floor

(* Normalized state fingerprint for the dominance check, written into
   [env.fp].  All ticks are expressed relative to [base], the earliest
   tick the next instruction could issue at ([issue(last) + 1], or 0 for
   the empty prefix), so prefixes reaching the same scheduled set at
   different absolute ticks but with the same *shape* compare equal.

     fp.(0)                = mu(Phi), the NOPs accumulated so far
     fp.(1 + p)            = per-pipe last-use tick relative to base,
                             clamped below at -enqueue_p: anything
                             earlier imposes no conflict constraint on
                             issues >= base, so distinguishing such
                             values would only weaken the dominance test
     fp.(1 + npipes + v)   = residual latency of the value produced at
                             position v — how many ticks past base until
                             it becomes available — clamped at 0, and 0
                             whenever v is unscheduled or every consumer
                             of v is already scheduled (then it can no
                             longer stall anything)

   Which components are "relevant" (scheduled producers with unscheduled
   consumers; pipes) is a function of the scheduled *set* alone, so two
   fingerprints for the same key are always componentwise comparable. *)
let fingerprint env =
  let st = env.st in
  let depth = Omega.State.depth st in
  let base =
    if depth = 0 then 0
    else Omega.State.issue_of st (Omega.State.at_depth st (depth - 1)) + 1
  in
  let fp = env.fp in
  fp.(0) <- Omega.State.nops st;
  let npipes = Array.length env.pipe_enqueue in
  for p = 0 to npipes - 1 do
    fp.(1 + p) <-
      max (Omega.State.last_use st p - base) (- env.pipe_enqueue.(p))
  done;
  (* A producer's residual is positive only when [issue + prod_latency >
     base], and prod_latency <= max_prod_lat; issue ticks are strictly
     increasing along the schedule stack, so every such producer sits in
     a suffix of the stack.  Zero the whole region with one fill and walk
     only that suffix — O(n/word + max_lat * succs) per node instead of a
     successor scan for all n positions. *)
  Array.fill fp (1 + npipes) env.n 0;
  let k = ref (depth - 1) in
  let live = ref true in
  while !live && !k >= 0 do
    let v = Omega.State.at_depth st !k in
    if Omega.State.issue_of st v + env.max_prod_lat <= base then live := false
    else begin
      let residual = Omega.State.avail_of st v - base in
      if residual > 0 then begin
        (* Plain loop, not [Array.iter]: runs per memoized node, and the
           closure would be one heap allocation per position per call. *)
        let succs = env.succs.(v) in
        let pending = ref false in
        for i = 0 to Array.length succs - 1 do
          if not (Omega.State.is_scheduled st succs.(i)) then pending := true
        done;
        if !pending then fp.(1 + npipes + v) <- residual
      end;
      decr k
    end
  done

(* Dominance cut over the transposition table.  Returns [true] when the
   current node may be pruned without affecting the reported optimum.

   Soundness: the key is the scheduled *set*, and legality of a suffix
   depends only on that set, so every completion available below the
   stored prefix B is also available below the current prefix A and vice
   versa.  The stored fingerprint dominating the current one
   componentwise means B had accumulated no more NOPs AND imposed
   constraints on the future (pipe last-uses, unconsumed producer
   availabilities, all relative to the next issue slot) that are no
   tighter than A's.  Omega is monotone in those constraints: relaxing
   any of them can only lower each suffix instruction's forced issue
   tick, hence each eta, hence the final NOP total.  So for every
   completion, B's total <= A's total: the best completion below A
   cannot beat the best below B.

   Under alpha-beta this composes, even though B's subtree may itself
   have been pruned: the incumbent only ever decreases, and both the
   lower bounds and this dominance cut only discard subtrees whose every
   completion is >= some schedule already found or still reachable.  By
   induction over the order nodes are closed, when B's subtree finished,
   either it had established incumbent <= (best completion below B) or
   the incumbent was already that good; either way the incumbent at any
   later point is <= best-below-B <= best-below-A, so pruning A loses
   nothing.  The same argument covers the equivalence prunings (they
   only drop schedules whose NOP totals are matched by a retained
   sibling) and the register-bounded search (Pressure's live/remaining
   state is a pure function of the scheduled set, so A and B admit the
   same feasible suffixes).  Curtailment aborts the whole search, so a
   wrongly-kept entry can at worst have made the curtailed prefix
   smaller — completed searches are unaffected.

   Misses store the current state; on a key match the entry is
   overwritten unconditionally, which is always sound (any stored,
   actually-explored state yields a valid dominance witness). *)
let memo_cut env =
  match env.memo_tbl with
  | None -> false
  | Some tbl ->
    let module Bitset = Pipesched_prelude.Bitset in
    let module Memo_table = Pipesched_prelude.Memo_table in
    fingerprint env;
    let hash = Bitset.hash env.sched_set in
    let key = Bitset.raw_words env.sched_set in
    let slot = Memo_table.find tbl ~hash key in
    if slot >= 0 && Memo_table.dominates tbl slot env.fp then begin
      env.memo_hits <- env.memo_hits + 1;
      true
    end
    else begin
      env.memo_misses <- env.memo_misses + 1;
      ignore
        (Memo_table.store tbl ~hash
           ~depth:(Omega.State.depth env.st)
           ~key ~value:env.fp
          : bool);
      false
    end

let maybe_activate_memo env options =
  if
    env.memo_tbl = None
    && options.memo.memo_enabled
    && env.n > 1
    && env.omega_calls >= options.memo.memo_activation
  then
    (* Start tiny and let the table double as entries land: searches
       that activate the memo but stay small (the common case under
       modest lambdas) never pay the full-capacity allocate-and-zero
       that used to make memo-on slower than memo-off. *)
    env.memo_tbl <-
      Some
        (Memo_table.create_growing ~initial:64
           ~capacity:options.memo.memo_capacity
           ~key_words:
             (Array.length (Pipesched_prelude.Bitset.raw_words env.sched_set))
           ~value_words:(Array.length env.fp))

(* Exclusive pruning limit: the tighter of this searcher's own best and
   the shared incumbent's bound (when racing).  Reading the bound is one
   atomic load; staleness is sound — see Incumbent. *)
let prune_limit env =
  match env.shared with
  | None -> env.best_nops
  | Some inc ->
    let s = Incumbent.bound inc in
    if s < env.best_nops then s else env.best_nops

(* The search skeleton.  [push_candidates f pos] must invoke [f] once per
   distinct way of scheduling [pos] next (once for the single-pipe search;
   once per non-symmetric candidate pipe for the multi-pipe search), with
   the instruction pushed for the dynamic extent of the call. *)
let dfs env options ~push_candidates ~on_complete =
  let module Bitset = Pipesched_prelude.Bitset in
  (* Per-depth scratch, allocated once per search: a snapshot buffer for
     the ready set (as ranks, so snapshots come out in priority order)
     and, for the strong-equivalence pruning, a generation-stamped matrix
     of signature classes already expanded at this node (int probes; the
     signatures were interned in [make_env]).  Using [env.ready]
     incrementally replaces the old O(n) scan of [cand_order] at every
     node with a word-skipping walk over the ready positions only. *)
  let snapshot = Array.make_matrix (env.n + 1) (max env.n 1) 0 in
  let sig_rows = if options.strong_equivalence then env.n + 1 else 1 in
  let sig_seen = Array.make_matrix sig_rows (max env.nsigs 1) 0 in
  let sig_gen = ref 0 in
  (* Per-depth slots for the candidate being expanded plus one callback
     closure per depth ([cbs], filled below): expanding a node allocates
     nothing.  An inline callback would capture the loop variables and
     cost one heap allocation per Omega call — enough to dominate minor
     GC. *)
  let cb_rank = Array.make (env.n + 1) 0 in
  let cb_pos = Array.make (env.n + 1) 0 in
  let cbs = Array.make (env.n + 1) ignore in
  let rec go depth =
    if depth = env.n then begin
      env.schedules_completed <- env.schedules_completed + 1;
      let nops = Omega.State.nops env.st in
      if nops < prune_limit env then begin
        env.best_nops <- nops;
        env.improvements <- env.improvements + 1;
        on_complete ()
      end
    end
    else if depth > 0 && memo_cut env then ()
    else begin
      (* The ready set is restored after each child, so this snapshot is
         exactly the set of positions the old full scan would accept. *)
      let buf = snapshot.(depth) in
      let count = Bitset.to_buffer env.ready buf in
      let tried_free = ref false in
      let node_gen =
        if options.strong_equivalence then begin
          incr sig_gen;
          !sig_gen
        end
        else 0
      in
      for i = 0 to count - 1 do
        let rk = buf.(i) in
        let pos = env.cand_order.(rk) in
        let skip =
          (options.equivalence && env.is_free.(pos) && !tried_free)
          || (options.strong_equivalence
              && sig_seen.(depth).(env.signature.(pos)) = node_gen)
        in
        if not skip then begin
          if env.is_free.(pos) then tried_free := true;
          if options.strong_equivalence then
            sig_seen.(depth).(env.signature.(pos)) <- node_gen;
          cb_rank.(depth) <- rk;
          cb_pos.(depth) <- pos;
          push_candidates pos cbs.(depth)
        end
      done
    end
  and expand depth () =
    (* The candidate for this depth is pushed for the extent of this
       callback (its rank/position are in the per-depth slots): drop it
       from the ready set (and add it to the scheduled-set key) and admit
       any successor whose last unscheduled predecessor it was, then
       undo.  Plain loops over the successors, not [Array.iter]: each
       would allocate a closure per expanded node. *)
    let rk = cb_rank.(depth) in
    let pos = cb_pos.(depth) in
    let succs = env.succs.(pos) in
    Bitset.remove env.ready rk;
    Bitset.add env.sched_set pos;
    for j = 0 to Array.length succs - 1 do
      let s = succs.(j) in
      if Omega.State.is_ready env.st s then Bitset.add env.ready env.rank.(s)
    done;
    (if not options.alpha_beta then go (depth + 1)
     else begin
       (* The parent's bound is an admissible floor for every child
          (completions below a child are a subset of those below the
          parent), so when the incumbent has improved past it since the
          parent was expanded, all remaining siblings fail without
          recomputation. *)
       let parent_bound = env.cp_bound.(depth) in
       if parent_bound < prune_limit env then begin
         let b = bound_value env options ~floor:parent_bound in
         env.cp_bound.(depth + 1) <- b;
         if b < prune_limit env then go (depth + 1)
       end
     end);
    for j = 0 to Array.length succs - 1 do
      let s = succs.(j) in
      if Omega.State.is_ready env.st s then Bitset.remove env.ready env.rank.(s)
    done;
    Bitset.remove env.sched_set pos;
    Bitset.add env.ready rk
  in
  for d = 0 to env.n do
    cbs.(d) <- expand d
  done;
  (* A floor of 0 NOPs is trivially admissible for the root. *)
  env.cp_bound.(0) <- 0;
  go 0

(* One Omega call: check the combined budget (lambda / deadline / token),
   raising [Curtailed] once any limit trips — the search then unwinds and
   reports the incumbent.  The check precedes the spend, matching the
   paper's "curtail when Lambda reaches lambda" exactly. *)
let count_call env options =
  (match Budget.exhausted env.budget with
   | Some _ -> raise Curtailed
   | None -> ());
  Budget.spend env.budget;
  env.omega_calls <- env.omega_calls + 1;
  maybe_activate_memo env options

let stats_of env ~completed =
  let entries, evictions =
    match env.memo_tbl with
    | None -> (0, 0)
    | Some tbl -> (Memo_table.entries tbl, Memo_table.evictions tbl)
  in
  let status =
    if completed then Budget.Complete
    else
      (* [expiry] re-evaluates every limit without the strided deadline
         gate, so the reported reason is the limit that actually tripped
         (a deadline that passed between strided clock reads is no longer
         misreported as lambda). *)
      match Budget.expiry env.budget with
      | Some s -> s
      | None ->
        (* Unreachable when the search itself stopped us (Curtailed is
           only raised after a limit trips, which is sticky); kept for
           unwinds by foreign exceptions. *)
        Budget.Curtailed_lambda
  in
  {
    omega_calls = env.omega_calls;
    schedules_completed = env.schedules_completed;
    improvements = env.improvements;
    completed;
    status;
    elapsed_s = Budget.elapsed_s env.budget;
    memo_hits = env.memo_hits;
    memo_misses = env.memo_misses;
    memo_entries = entries;
    memo_evictions = evictions;
  }

(* The search behind every entry point: it evaluates the seed list
   schedule, builds the env, runs [dfs] and catches curtailment.  An
   entry point supplies only [expand], which turns the env into its
   candidate expander ([push_candidates] for [dfs]), and optionally
   [on_best], run after each new best has been snapshotted.

   [seeded]: the evaluated seed is the initial incumbent.  Otherwise
   (the register-bounded search, whose seed may be infeasible) it is
   evaluated only when the caller forces it.  [shared] races the search
   against peers through a shared incumbent: the seed and each new best
   are submitted to it, and its bound tightens pruning whenever a peer
   publishes first.

   Returns the lazy seed, the last new best (if any), the stats, and on
   completion the proved optimum — [min own-best shared-bound], since
   with a peer in play the witness may live on the peer's side of the
   incumbent. *)
let search ?entry ?(multi = false) ?shared ?(on_best = ignore) ~seeded
    machine dag options ~expand =
  let initial =
    lazy
      (Omega.evaluate ?entry machine dag
         ~order:(List_sched.schedule options.seed dag))
  in
  let submit (r : Omega.result) =
    match shared with
    | Some inc ->
      ignore (Incumbent.submit inc ~nops:r.nops (fun () -> r) : bool)
    | None -> ()
  in
  if Option.is_some shared then submit (Lazy.force initial);
  let env = make_env ?entry ~multi ?shared machine dag options in
  if seeded then env.best_nops <- (Lazy.force initial).nops;
  let best = ref None in
  let on_complete () =
    let r = Omega.State.complete_greedily env.st in
    best := Some r;
    on_best ();
    submit r
  in
  let completed =
    match dfs env options ~push_candidates:(expand env) ~on_complete with
    | () -> true
    | exception Curtailed -> false
  in
  let proved = if completed then Some (prune_limit env) else None in
  (initial, !best, stats_of env ~completed, proved)

(* Each operation on its default pipe: one push per candidate. *)
let push_default options env =
  let push pos k =
    count_call env options;
    Omega.State.push env.st pos;
    k ();
    Omega.State.pop env.st
  in
  push

let schedule_default ~options ?entry ?shared machine dag =
  let initial, best, stats, proved =
    search ?entry ?shared ~seeded:true machine dag options
      ~expand:(push_default options)
  in
  let initial = Lazy.force initial in
  ({ best = Option.value best ~default:initial; initial; stats }, proved)

let schedule ?(options = default_options) ?entry machine dag =
  fst (schedule_default ~options ?entry machine dag)

(* The B&B side of the portfolio racer (see Portfolio). *)
let schedule_shared ?(options = default_options) ?entry ~shared machine dag =
  schedule_default ~options ?entry ~shared machine dag

let schedule_multi ?(options = default_options) ?entry machine dag =
  let n = Dag.length dag in
  let blk = Dag.block dag in
  let default_choice =
    Array.init n (fun pos ->
        Machine.default_pipe machine (Block.tuple_at blk pos).Tuple.op)
  in
  let candidates_of =
    Array.init n (fun pos ->
        Machine.candidates machine (Block.tuple_at blk pos).Tuple.op)
  in
  let npipes = Machine.pipe_count machine in
  (* Dense id per distinct (latency, enqueue) pair, so the symmetric-pipe
     pruning below keys on a small int instead of a nested tuple. *)
  let param_id = Array.make (max npipes 1) 0 in
  let nparams = ref 0 in
  let param_seen = Hashtbl.create 8 in
  for p = 0 to npipes - 1 do
    let pipe = Machine.pipe machine p in
    let key = (pipe.Pipe.latency, pipe.Pipe.enqueue) in
    match Hashtbl.find_opt param_seen key with
    | Some id -> param_id.(p) <- id
    | None ->
      param_id.(p) <- !nparams;
      Hashtbl.add param_seen key !nparams;
      incr nparams
  done;
  let enqueue_of =
    Array.init (max npipes 1) (fun p ->
        if p < npipes then (Machine.pipe machine p).Pipe.enqueue else 0)
  in
  let choice = Array.copy default_choice in
  let best_choice = ref (Array.copy default_choice) in
  let expand env =
    (* Per-depth scratch for the symmetric-pipe pruning: keys already
       tried at this choice point, as ints, linear-scanned (candidate
       lists are a handful of pipes at most). *)
    let tried_buf = Array.make_matrix (n + 1) (max npipes 1) 0 in
    let push pos k =
      match candidates_of.(pos) with
      | [] ->
        count_call env options;
        Omega.State.push_on env.st pos ~pipe:None;
        choice.(pos) <- None;
        k ();
        Omega.State.pop env.st
      | pids ->
        (* Symmetric-pipe pruning: two candidate pipes with equal
           parameters and equal effective last-use tick lead to identical
           subtrees.  The key is one int, [(clamped last-use) * nparams +
           param class]: a last use at or below [-enqueue] imposes no
           conflict constraint on any issue tick >= 0, so all such values
           collapse to [-enqueue] — never less pruning than the exact
           tick, still only collapsing identical subtrees. *)
        let buf = tried_buf.(Omega.State.depth env.st) in
        let nseen = ref 0 in
        List.iter
          (fun p ->
            let enq = enqueue_of.(p) in
            let lu = Omega.State.last_use env.st p in
            let lc = if lu < -enq then -enq else lu in
            let key = (lc * !nparams) + param_id.(p) in
            let dup = ref false in
            for i = 0 to !nseen - 1 do
              if buf.(i) = key then dup := true
            done;
            if not !dup then begin
              buf.(!nseen) <- key;
              incr nseen;
              count_call env options;
              Omega.State.push_on env.st pos ~pipe:(Some p);
              choice.(pos) <- Some p;
              k ();
              Omega.State.pop env.st
            end)
          pids
    in
    push
  in
  let initial, best, stats, _ =
    search ?entry ~multi:true ~seeded:true machine dag options ~expand
      ~on_best:(fun () -> best_choice := Array.copy choice)
  in
  let initial = Lazy.force initial in
  ( { best = Option.value best ~default:initial; initial; stats },
    !best_choice )

(* Incremental register-demand bookkeeping for the bounded search.  A
   value is live from its definition until its last remaining consumer is
   scheduled; a definition transiently demands one more register
   (read-then-write, matching Regalloc.Alloc). *)
module Pressure = struct
  type t = {
    uses : (int * int) array array;
        (* per position: (producer position, multiplicity) it reads;
           flattened for the per-push/pop traversals of the search *)
    produces : bool array;
    consumer_count : int array; (* total reads of each position's value *)
    remaining : int array;      (* mutable during search *)
    mutable live : int;
  }

  let create dag =
    let blk = Dag.block dag in
    let n = Dag.length dag in
    let consumer_count = Array.make n 0 in
    let uses =
      Array.init n (fun pos ->
          let refs =
            List.map
              (fun id -> Block.pos_of_id blk id)
              (Tuple.value_refs (Block.tuple_at blk pos))
          in
          let tbl = Hashtbl.create 4 in
          List.iter
            (fun u ->
              Hashtbl.replace tbl u
                (1 + Option.value ~default:0 (Hashtbl.find_opt tbl u)))
            refs;
          let a =
            Array.of_list (Hashtbl.fold (fun u m acc -> (u, m) :: acc) tbl [])
          in
          (* Monomorphic: producer positions are distinct Hashtbl keys,
             so the first component alone orders the array. *)
          Array.sort (fun ((u1 : int), _) ((u2 : int), _) -> compare u1 u2) a;
          a)
    in
    Array.iter
      (fun pairs ->
        Array.iter
          (fun (u, m) -> consumer_count.(u) <- consumer_count.(u) + m)
          pairs)
      uses;
    {
      uses;
      produces =
        Array.init n (fun pos ->
            Tuple.produces_value (Block.tuple_at blk pos));
      consumer_count;
      remaining = Array.copy consumer_count;
      live = 0;
    }

  (* Register demand if [pos] were scheduled next. *)
  let demand p pos =
    let deaths =
      Array.fold_left
        (fun acc (u, m) -> if p.remaining.(u) = m then acc + 1 else acc)
        0 p.uses.(pos)
    in
    p.live - deaths + (if p.produces.(pos) then 1 else 0)

  let push p pos =
    Array.iter
      (fun (u, m) ->
        if p.remaining.(u) = m then p.live <- p.live - 1;
        p.remaining.(u) <- p.remaining.(u) - m)
      p.uses.(pos);
    if p.produces.(pos) && p.consumer_count.(pos) > 0 then
      p.live <- p.live + 1

  let pop p pos =
    if p.produces.(pos) && p.consumer_count.(pos) > 0 then
      p.live <- p.live - 1;
    Array.iter
      (fun (u, m) ->
        p.remaining.(u) <- p.remaining.(u) + m;
        if p.remaining.(u) = m then p.live <- p.live + 1)
      p.uses.(pos)
end

let schedule_bounded ?(options = default_options) ~registers machine dag =
  if registers < 1 then
    invalid_arg "Optimal.schedule_bounded: registers must be >= 1";
  let expand env =
    let pressure = Pressure.create dag in
    let push pos k =
      if Pressure.demand pressure pos <= registers then begin
        count_call env options;
        Omega.State.push env.st pos;
        Pressure.push pressure pos;
        k ();
        Pressure.pop pressure pos;
        Omega.State.pop env.st
      end
    in
    push
  in
  (* The seed is only a reference point, never an incumbent: it may
     violate the register bound.  Evaluating it is pure waste when the
     search comes up empty, so it is forced only on success. *)
  match search ~seeded:false machine dag options ~expand with
  | initial, Some best, stats, _ ->
    Ok { best; initial = Lazy.force initial; stats }
  | _, None, _, _ -> Error ()

let verify_optimal machine dag (outcome : outcome) =
  let r = Baselines.legal_only_search machine dag in
  r.Baselines.complete && r.Baselines.best.Omega.nops = outcome.best.Omega.nops
