open Pipesched_ir
open Pipesched_machine
open Pipesched_sched
module Bitset = Pipesched_prelude.Bitset
module Budget = Pipesched_prelude.Budget
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

(* The dominance memo's state encoding and its test, kept together.

   The dense form of a state is one vector: mu(Phi), each pipe's last
   use, and one residual per position, all relative to [base], the
   earliest tick the next instruction could issue at ([issue(last) + 1],
   or 0 for the empty prefix), so prefixes reaching the same scheduled
   set at different absolute ticks but with the same *shape* compare
   equal:

     mu(Phi)               the NOPs accumulated so far
     pipe p                last-use tick relative to base, clamped below
                           at -enqueue_p: anything earlier imposes no
                           conflict constraint on issues >= base, so
                           distinguishing such values would only weaken
                           the dominance test
     residual v            how many ticks past base until the value
                           produced at v becomes available, clamped at
                           0, and 0 whenever v is unscheduled or every
                           consumer of v is already scheduled (then it
                           can no longer stall anything)

   Which components are "relevant" (scheduled producers with unscheduled
   consumers; pipes) is a function of the scheduled *set* alone, so two
   states with the same set are always componentwise comparable, and a
   stored state dominates the current one when it is componentwise <=.

   Few residuals are ever positive.  A producer's residual is
   [issue + latency - base], issue ticks rise strictly along the
   schedule stack and the top one is [base - 1], so the producer [j]
   places below the top has residual at most [latency - 1 - j]: only the
   top [max_lat - 1] producers can be positive.  A row therefore holds
   the dense prefix (mu and the pipes), a count, and at most
   [min n (max_lat - 1)] (position, residual) pairs of the positive
   residuals, instead of one word per position:

     row.(0)                    mu(Phi)
     row.(1 + p)                pipe p
     row.(1 + npipes)           c, the number of pairs
     row.(2 + npipes + 2j)      position of pair j < c
     row.(3 + npipes + 2j)      its residual, > 0

   [dominates] is exactly the dense componentwise <=: the dense prefix
   compares word by word, a stored pair must be <= the current residual
   at its position (0 when the current row has no pair there), and a
   component the stored row leaves out is 0, which no current residual
   is below. *)
module Fingerprint = struct
  type t = {
    npipes : int;
    enqueue : int array;  (* by pipe *)
    max_lat : int;  (* largest producer latency, >= 1 (resource-free) *)
    width : int;
  }

  let create machine dag =
    let npipes = Machine.pipe_count machine in
    let enqueue =
      Array.init npipes (fun p -> (Machine.pipe machine p).Pipe.enqueue)
    in
    let max_lat = ref 1 in
    for p = 0 to npipes - 1 do
      max_lat := max !max_lat (Machine.pipe machine p).Pipe.latency
    done;
    let pairs = min (Dag.length dag) (!max_lat - 1) in
    { npipes; enqueue; max_lat = !max_lat; width = 2 + npipes + (2 * pairs) }

  let width t = t.width

  (* Plain loops throughout, no closures: this runs at every memoized
     node. *)
  let write t (st : Omega.State.t) row =
    let sp = st.sp in
    let base = if sp = 0 then 0 else st.issue.(st.stack.(sp - 1)) + 1 in
    row.(0) <- st.total_nops;
    for p = 0 to t.npipes - 1 do
      let rel = st.last_on_pipe.(p) - base and floor = - t.enqueue.(p) in
      row.(1 + p) <- (if rel > floor then rel else floor)
    done;
    (* Walk down the stack while a producer can still be positive. *)
    let c = ref 0 in
    let k = ref (sp - 1) in
    while !k >= 0 && st.issue.(st.stack.(!k)) + t.max_lat > base do
      let v = st.stack.(!k) in
      let residual = st.issue.(v) + st.prod_latency.(v) - base in
      if residual > 0 then begin
        let succs = st.succs.(v) in
        let pending = ref false in
        for i = 0 to Array.length succs - 1 do
          if not st.scheduled.(succs.(i)) then pending := true
        done;
        if !pending then begin
          row.(2 + t.npipes + (2 * !c)) <- v;
          row.(3 + t.npipes + (2 * !c)) <- residual;
          incr c
        end
      end;
      decr k
    done;
    row.(1 + t.npipes) <- !c

  let dominates t rows off row =
    let dense = 1 + t.npipes in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < dense do
      if rows.{off + !i} > row.(!i) then ok := false;
      incr i
    done;
    let current = row.(dense) in
    let j = ref 0 in
    while !ok && !j < rows.{off + dense} do
      let pos = rows.{off + dense + 1 + (2 * !j)} in
      let residual = ref 0 in
      for m = 0 to current - 1 do
        if row.(dense + 1 + (2 * m)) = pos then
          residual := row.(dense + 2 + (2 * m))
      done;
      if rows.{off + dense + 2 + (2 * !j)} > !residual then ok := false;
      incr j
    done;
    !ok
end

(* One search: the state, its setup, its scratch and its counters. *)
type search_env = {
  n : int;
  st : Omega.State.t;
  options : options;
  cand_order : int array;
  rank : int array;                (* inverse of cand_order *)
  (* The ready set (as ranks, so snapshots come out in priority order)
     and the scheduled set (by position, the memo's key), updated in
     place through their words: [word_of.(i)] and [mask_of.(i)] place
     member [i]. *)
  ready : Bitset.t;
  ready_words : int array;
  sched_set : Bitset.t;
  sched_words : int array;
  word_of : int array;
  mask_of : int array;
  is_free : bool array;
  (* Strong-equivalence class of each position, interned to a dense int
     so the per-node tried-signature check is an int-array probe; empty
     when strong equivalence is off. *)
  signature : int array;
  (* Critical-path bound ingredients (admissible for any pipe choice);
     empty unless [lower_bound = Critical_path]. *)
  min_lat : int array;
  tail : int array;
  (* Resource-bound ingredient: the forced pipeline of each position (-1
     when resource-free or when several candidates exist — such
     operations contribute nothing, keeping the bound admissible for the
     multi-pipe search too). *)
  forced_pipe : int array;
  (* Dominance memoization: the encoding, and the scratch row of the
     node being looked up and the transposition table itself, both
     created once the search has done [memo_activation] Omega calls (at
     call [activate_at]; [max_int] once created or when the memo is off),
     so tiny searches never pay the allocation. *)
  fp : Fingerprint.t;
  mutable row : int array;
  mutable memo_tbl : Memo_table.t option;
  mutable activate_at : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  (* Critical-path-bound scratch, preallocated so the bound is not
     O(n) in fresh arrays per node; [cp_bound.(d)] caches the admissible
     bound computed for the node currently open at depth [d]. *)
  cp_est : int array;
  cp_remaining : int array;
  cp_bound : int array;
  (* Per-depth DFS scratch: a snapshot buffer for the ready set, the
     generation-stamped signature classes already expanded at each node
     (strong equivalence only), and, for an entry point with its own
     candidate expander, the candidate being expanded at each depth and
     the callback that expands it (all three allocated by [dfs], and only
     for such an entry point). *)
  snapshot : int array array;
  sig_seen : int array array;
  mutable sig_gen : int;
  mutable cb_rank : int array;
  mutable cb_pos : int array;
  mutable cbs : (unit -> unit) array;
  (* The budget: lambda alone is checked inline; [budget] is [Some] only
     when a deadline or a cancellation token is set. *)
  lambda : int;
  budget : Budget.t option;
  mutable omega_calls : int;
  mutable schedules_completed : int;
  mutable improvements : int;
  mutable best_nops : int;
}

(* [multi]: the search may choose among candidate pipelines, so only
   single-candidate operations may be charged to a pipe in the resource
   bound; the single-pipe search pins every operation to its default.
   [cand_order] is the seed heuristic's rank order, computed once per
   search for both the seed and the candidate order. *)
let make_env ?entry ~multi machine dag options ~cand_order =
  let n = Dag.length dag in
  let blk = Dag.block dag in
  let st = Omega.State.create ?entry machine dag in
  let op pos = (Block.tuple_at blk pos).Tuple.op in
  let critical = options.lower_bound = Critical_path in
  let min_lat =
    if not critical then [||]
    else
      Array.init n (fun pos ->
          match Machine.candidates machine (op pos) with
          | [] -> 1
          | pids ->
            List.fold_left
              (fun acc pid -> min acc (Machine.pipe machine pid).Pipe.latency)
              max_int pids)
  in
  let tail =
    if not critical then [||]
    else Dag.heights dag ~edge_weight:(fun ~src ~dst:_ -> min_lat.(src))
  in
  let forced_pipe =
    if not critical then [||]
    else
      Array.init n (fun pos ->
          match Machine.candidates machine (op pos) with
          | [ p ] -> p
          | [] -> -1
          | p :: _ :: _ -> if multi then -1 else p)
  in
  let preds = st.Omega.State.preds and succs = st.Omega.State.succs in
  let default_pipe = st.Omega.State.default_pipe in
  (* Plain loops from here on: a search that stops after a few Omega
     calls is mostly this setup.  Member [i] of the ready and scheduled
     sets is bit [i mod bits_per_word] of word [i / bits_per_word],
     counted up without a division. *)
  let rank = Array.make n 0 in
  let word_of = Array.make n 0 and mask_of = Array.make n 0 in
  let w = ref 0 and b = ref 0 in
  for i = 0 to n - 1 do
    rank.(cand_order.(i)) <- i;
    word_of.(i) <- !w;
    mask_of.(i) <- 1 lsl !b;
    incr b;
    if !b = Bitset.bits_per_word then begin
      b := 0;
      incr w
    end
  done;
  (* Intern the strong-equivalence signatures — (pipe, preds, succs) —
     to dense ints once at construction (polymorphic hashing is fine
     here, off the search hot path), so the per-node check probes an int
     matrix. *)
  let signature, nsigs =
    if not options.strong_equivalence then ([||], 0)
    else begin
      let sig_ids = Hashtbl.create (max n 1) in
      let nsigs = ref 0 in
      let signature =
        Array.init n (fun pos ->
            let key = (default_pipe.(pos), preds.(pos), succs.(pos)) in
            match Hashtbl.find_opt sig_ids key with
            | Some id -> id
            | None ->
              let id = !nsigs in
              Hashtbl.add sig_ids key id;
              incr nsigs;
              id)
      in
      (signature, !nsigs)
    end
  in
  let ready = Bitset.create (max n 1) in
  let ready_words = Bitset.raw_words ready in
  (* [5c] needs the successor-free refinement: two resource-free,
     predecessor-free instructions are only interchangeable in every
     completion when neither constrains anything downstream.  Without
     it the pruning can discard all optimal schedules (see the
     counterexample in test_core.ml). *)
  let is_free = Array.make n false in
  for pos = 0 to n - 1 do
    if Array.length preds.(pos) = 0 then begin
      let r = rank.(pos) in
      ready_words.(word_of.(r)) <- ready_words.(word_of.(r)) lor mask_of.(r);
      is_free.(pos) <-
        default_pipe.(pos) = -1 && Array.length succs.(pos) = 0
    end
  done;
  (* Row [d] holds the ready set of a node at depth [d]: at most the
     [n - d] unscheduled positions.  No node opens at depth [n]. *)
  let snapshot = Array.make (n + 1) [||] in
  for d = 0 to n - 1 do
    snapshot.(d) <- Array.make (n - d) 0
  done;
  let sched_set = Bitset.create (max n 1) in
  let fp = Fingerprint.create machine dag in
  let timed = options.deadline_s <> None || options.cancel <> None in
  {
    n;
    st;
    options;
    cand_order;
    rank;
    ready;
    ready_words;
    sched_set;
    sched_words = Bitset.raw_words sched_set;
    word_of;
    mask_of;
    is_free;
    signature;
    min_lat;
    tail;
    forced_pipe;
    fp;
    row = [||];
    memo_tbl = None;
    activate_at =
      (if options.memo.memo_enabled && n > 1 then
         options.memo.memo_activation
       else max_int);
    memo_hits = 0;
    memo_misses = 0;
    cp_est = (if critical then Array.make (max n 1) 0 else [||]);
    cp_remaining =
      (if critical then Array.make (max (Machine.pipe_count machine) 1) 0
       else [||]);
    cp_bound = Array.make (n + 1) 0;
    snapshot;
    sig_seen =
      (if options.strong_equivalence then
         Array.make_matrix (n + 1) (max nsigs 1) 0
       else [||]);
    sig_gen = 0;
    cb_rank = [||];
    cb_pos = [||];
    cbs = [||];
    lambda = options.lambda;
    budget =
      (if timed then
         Some
           (Budget.start
              {
                Budget.calls = Some options.lambda;
                deadline_s = options.deadline_s;
                cancel = options.cancel;
              })
       else None);
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
  let depth = st.Omega.State.sp in
  let nops = st.Omega.State.total_nops in
  if depth = env.n then max floor nops
  else begin
    let est = env.cp_est in
    let issue = st.Omega.State.issue and scheduled = st.Omega.State.scheduled in
    let last_issue =
      if depth = 0 then -1 else issue.(st.Omega.State.stack.(depth - 1))
    in
    let bound = ref (max floor nops) in
    let remaining_on = env.cp_remaining in
    Array.fill remaining_on 0 (Array.length remaining_on) 0;
    for v = 0 to env.n - 1 do
      if not scheduled.(v) then begin
        if env.forced_pipe.(v) >= 0 then
          remaining_on.(env.forced_pipe.(v)) <-
            remaining_on.(env.forced_pipe.(v)) + 1;
        let e = ref (last_issue + 1) in
        let preds = st.Omega.State.preds.(v) in
        for i = 0 to Array.length preds - 1 do
          let u = preds.(i) in
          let avail =
            if scheduled.(u) then issue.(u) + env.min_lat.(u)
            else est.(u) + env.min_lat.(u)
          in
          if avail > !e then e := avail
        done;
        est.(v) <- !e;
        let b = !e + env.tail.(v) - (env.n - 1) in
        if b > !bound then bound := b
      end
    done;
    (* Resource component: the R_p unscheduled operations forced onto pipe
       p each need [enqueue_p] ticks after the previous enqueue, starting
       from the pipe's current last use (or from the next issue slot when
       the pipe is still untouched). *)
    for p = 0 to Array.length remaining_on - 1 do
      let r = remaining_on.(p) in
      if r > 0 then begin
        let last = st.Omega.State.last_on_pipe.(p) in
        let enqueue = st.Omega.State.pipe_enqueue.(p) in
        let finish =
          if last > min_int / 4 then last + (r * enqueue)
          else last_issue + 1 + ((r - 1) * enqueue)
        in
        let b = finish - (env.n - 1) in
        if b > !bound then bound := b
      end
    done;
    !bound
  end

let bound_value env ~floor =
  match env.options.lower_bound with
  | Partial_nops ->
    let nops = env.st.Omega.State.total_nops in
    if floor > nops then floor else nops
  | Critical_path -> critical_path_bound env ~floor

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
    let row = env.row in
    Fingerprint.write env.fp env.st row;
    let hash = Bitset.hash env.sched_set in
    let key = env.sched_words in
    let slot = Memo_table.find tbl ~hash key in
    if
      slot >= 0
      && Fingerprint.dominates env.fp (Memo_table.values tbl)
           (slot * Fingerprint.width env.fp)
           row
    then begin
      env.memo_hits <- env.memo_hits + 1;
      true
    end
    else begin
      env.memo_misses <- env.memo_misses + 1;
      ignore
        (Memo_table.store tbl ~hash ~depth:env.st.Omega.State.sp ~key
           ~value:row
          : bool);
      false
    end

let activate_memo env =
  env.activate_at <- max_int;
  env.row <- Array.make (Fingerprint.width env.fp) 0;
  (* Start tiny and let the table double as entries land: searches
     that activate the memo but stay small (the common case under
     modest lambdas) never pay the full-capacity allocate-and-zero
     that used to make memo-on slower than memo-off. *)
  env.memo_tbl <-
    Some
      (Memo_table.create_growing ~initial:64
         ~capacity:env.options.memo.memo_capacity
         ~key_words:(Array.length env.sched_words)
         ~value_words:(Fingerprint.width env.fp))

(* One Omega call: check the budget, raising [Curtailed] once any limit
   trips — the search then unwinds and reports the incumbent.  The check
   precedes the spend, matching the paper's "curtail when Lambda reaches
   lambda" exactly.  Without a deadline or a token the check is one
   comparison against lambda. *)
let count_call env =
  (match env.budget with
   | None -> if env.omega_calls >= env.lambda then raise Curtailed
   | Some budget ->
     (match Budget.exhausted budget with
      | Some _ -> raise Curtailed
      | None -> ());
     Budget.spend budget);
  env.omega_calls <- env.omega_calls + 1;
  if env.omega_calls >= env.activate_at then activate_memo env

(* The search skeleton.  [go] opens the node at [depth]: a complete
   schedule is compared against the incumbent; otherwise, unless the
   memo cuts it, every ready candidate the equivalence rules keep is
   pushed and expanded.  The default expander pushes each candidate on
   its default pipe right here; an entry point with its own ([push pos
   k], which must invoke [k] once per distinct way of scheduling [pos]
   next, with the instruction pushed for the dynamic extent of the
   call) is reached through the per-depth callbacks in [env.cbs].
   Nothing here allocates: the scratch is per search. *)
let rec go env ~push ~on_complete depth =
  if depth = env.n then begin
    env.schedules_completed <- env.schedules_completed + 1;
    let nops = env.st.Omega.State.total_nops in
    if nops < env.best_nops then begin
      env.best_nops <- nops;
      env.improvements <- env.improvements + 1;
      on_complete ()
    end
  end
  else if depth > 0 && memo_cut env then ()
  else begin
    (* The ready set is restored after each child, so this snapshot is
       exactly the set of positions a full scan would accept. *)
    let buf = env.snapshot.(depth) in
    let count = Bitset.to_buffer env.ready buf in
    let equivalence = env.options.equivalence in
    let strong = env.options.strong_equivalence in
    let tried_free = ref false in
    let node_gen =
      if strong then begin
        env.sig_gen <- env.sig_gen + 1;
        env.sig_gen
      end
      else 0
    in
    for i = 0 to count - 1 do
      let rk = buf.(i) in
      let pos = env.cand_order.(rk) in
      let skip =
        (* [5c]: at most one free candidate per node. *)
        (equivalence && env.is_free.(pos) && !tried_free)
        (* Strong equivalence: one candidate per signature class. *)
        || (strong && env.sig_seen.(depth).(env.signature.(pos)) = node_gen)
      in
      if not skip then begin
        if env.is_free.(pos) then tried_free := true;
        if strong then env.sig_seen.(depth).(env.signature.(pos)) <- node_gen;
        match push with
        | None ->
          count_call env;
          Omega.State.push env.st pos;
          expand env ~push ~on_complete depth rk pos;
          Omega.State.pop env.st
        | Some push ->
          env.cb_rank.(depth) <- rk;
          env.cb_pos.(depth) <- pos;
          push pos env.cbs.(depth)
      end
    done
  end

(* The candidate [pos] (rank [rk]) is pushed for the extent of this
   call: drop it from the ready set, add it to the scheduled-set key and
   admit any successor whose last unscheduled predecessor it was (a
   successor of [pos] cannot be scheduled yet); run the alpha-beta test
   and the child; then undo. *)
and expand env ~push ~on_complete depth rk pos =
  let st = env.st in
  let ready = env.ready_words and word_of = env.word_of in
  let mask_of = env.mask_of in
  let succs = st.Omega.State.succs.(pos) in
  ready.(word_of.(rk)) <- ready.(word_of.(rk)) land lnot mask_of.(rk);
  env.sched_words.(word_of.(pos)) <-
    env.sched_words.(word_of.(pos)) lor mask_of.(pos);
  for j = 0 to Array.length succs - 1 do
    let s = succs.(j) in
    if st.Omega.State.unsched_preds.(s) = 0 then begin
      let r = env.rank.(s) in
      ready.(word_of.(r)) <- ready.(word_of.(r)) lor mask_of.(r)
    end
  done;
  (if not env.options.alpha_beta then go env ~push ~on_complete (depth + 1)
   else begin
     (* Alpha-beta.  The parent's bound is an admissible floor for every
        child (completions below a child are a subset of those below the
        parent), so when the incumbent has improved past it since the
        parent was expanded, all remaining siblings fail without
        recomputation. *)
     let parent_bound = env.cp_bound.(depth) in
     if parent_bound < env.best_nops then begin
       let b = bound_value env ~floor:parent_bound in
       env.cp_bound.(depth + 1) <- b;
       if b < env.best_nops then go env ~push ~on_complete (depth + 1)
     end
   end);
  for j = 0 to Array.length succs - 1 do
    let s = succs.(j) in
    if st.Omega.State.unsched_preds.(s) = 0 then begin
      let r = env.rank.(s) in
      ready.(word_of.(r)) <- ready.(word_of.(r)) land lnot mask_of.(r)
    end
  done;
  env.sched_words.(word_of.(pos)) <-
    env.sched_words.(word_of.(pos)) land lnot mask_of.(pos);
  ready.(word_of.(rk)) <- ready.(word_of.(rk)) lor mask_of.(rk)

let dfs env ~push ~on_complete =
  (match push with
   | None -> ()
   | Some _ ->
     env.cb_rank <- Array.make (env.n + 1) 0;
     env.cb_pos <- Array.make (env.n + 1) 0;
     env.cbs <-
       Array.init (env.n + 1) (fun d () ->
           expand env ~push ~on_complete d env.cb_rank.(d) env.cb_pos.(d)));
  (* A floor of 0 NOPs is trivially admissible for the root. *)
  env.cp_bound.(0) <- 0;
  go env ~push ~on_complete 0

let stats_of env ~completed =
  let entries, evictions =
    match env.memo_tbl with
    | None -> (0, 0)
    | Some tbl -> (Memo_table.entries tbl, Memo_table.evictions tbl)
  in
  let status, elapsed_s =
    match env.budget with
    | None ->
      ((if completed then Budget.Complete else Budget.Curtailed_lambda), 0.0)
    | Some budget ->
      ( (if completed then Budget.Complete
         else
           (* [expiry] re-evaluates every limit without the strided
              deadline gate, so the reported reason is the limit that
              actually tripped (a deadline that passed between strided
              clock reads is no longer misreported as lambda). *)
           match Budget.expiry budget with
           | Some s -> s
           | None ->
             (* Unreachable when the search itself stopped us (Curtailed
                is only raised after a limit trips, which is sticky);
                kept for unwinds by foreign exceptions. *)
             Budget.Curtailed_lambda),
        Budget.elapsed_s budget )
  in
  {
    omega_calls = env.omega_calls;
    schedules_completed = env.schedules_completed;
    improvements = env.improvements;
    completed;
    status;
    elapsed_s;
    memo_hits = env.memo_hits;
    memo_misses = env.memo_misses;
    memo_entries = entries;
    memo_evictions = evictions;
  }

(* The search behind every entry point: one setup pass (the seed
   heuristic's priorities once, one Omega state), the seed evaluated on
   that state, [dfs], and curtailment caught.  An entry point supplies
   only [expand] when it needs its own candidate expander (see [go]),
   and optionally [on_best], run after each new best has been
   snapshotted.

   [seeded]: the evaluated seed is the initial incumbent.  Otherwise
   (the register-bounded search, whose seed may be infeasible) it is
   evaluated only when the caller asks for it, after the search.
   [bound] is an exclusive NOP bound known from outside (a schedule
   with that many NOPs exists): the search starts with the tighter of
   it and the seed, so it only looks for schedules below both.

   Returns the seed (a function: evaluated on demand when not
   [seeded]), the last new best (if any), the stats, and on completion
   the proved optimum — [min own-best bound], whose witness is the
   caller's when no schedule below [bound] exists. *)
let search ?entry ?(multi = false) ?(bound = max_int) ?(on_best = ignore)
    ?expand ~seeded machine dag options =
  if options.memo.memo_enabled && options.memo.memo_capacity < 1 then
    invalid_arg "Optimal: memo_capacity must be >= 1";
  let cand_order =
    List_sched.rank_order (List_sched.priorities options.seed dag)
  in
  let env = make_env ?entry ~multi machine dag options ~cand_order in
  let seed () =
    Omega.State.pop_to env.st 0;
    Omega.State.evaluate env.st ~order:(List_sched.walk dag cand_order)
  in
  let initial =
    if seeded then begin
      let r = seed () in
      env.best_nops <- min r.nops bound;
      fun () -> r
    end
    else seed
  in
  let best = ref None in
  let on_complete () =
    let r = Omega.State.complete_greedily env.st in
    best := Some r;
    on_best ()
  in
  let push = Option.map (fun expand -> expand env) expand in
  let completed =
    match dfs env ~push ~on_complete with
    | () -> true
    | exception Curtailed -> false
  in
  let proved = if completed then Some env.best_nops else None in
  (initial, !best, stats_of env ~completed, proved)

let schedule_default ~options ?entry ?bound machine dag =
  let initial, best, stats, proved =
    search ?entry ?bound ~seeded:true machine dag options
  in
  let initial = initial () in
  ({ best = Option.value best ~default:initial; initial; stats }, proved)

let schedule ?(options = default_options) ?entry machine dag =
  fst (schedule_default ~options ?entry machine dag)

(* The B&B side of the portfolio's rounds (see Portfolio). *)
let schedule_shared ?(options = default_options) ?entry ~bound machine dag =
  schedule_default ~options ?entry ~bound machine dag

let schedule_multi ?(options = default_options) ?entry machine dag =
  let n = Dag.length dag in
  let blk = Dag.block dag in
  let default_choice =
    Array.init n (fun pos ->
        Machine.default_pipe machine (Block.tuple_at blk pos).Tuple.op)
  in
  let candidates_of =
    Array.init n (fun pos ->
        Array.of_list
          (Machine.candidates machine (Block.tuple_at blk pos).Tuple.op))
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
  let nparams = !nparams in
  let enqueue_of =
    Array.init (max npipes 1) (fun p ->
        if p < npipes then (Machine.pipe machine p).Pipe.enqueue else 0)
  in
  (* Preallocated, so choosing a pipe allocates nothing. *)
  let some_pipe = Array.init npipes (fun p -> Some p) in
  let choice = Array.copy default_choice in
  let best_choice = ref (Array.copy default_choice) in
  let expand env =
    (* Per-depth scratch for the symmetric-pipe pruning: keys already
       tried at this choice point, as ints, linear-scanned (candidate
       lists are a handful of pipes at most). *)
    let tried_buf = Array.make_matrix (n + 1) (max npipes 1) 0 in
    let st = env.st in
    let push pos k =
      let pids = candidates_of.(pos) in
      if Array.length pids = 0 then begin
        count_call env;
        Omega.State.push_on st pos ~pipe:None;
        choice.(pos) <- None;
        k ();
        Omega.State.pop st
      end
      else begin
        (* Symmetric-pipe pruning: two candidate pipes with equal
           parameters and equal effective last-use tick lead to identical
           subtrees.  The key is one int, [(clamped last-use) * nparams +
           param class]: a last use at or below [-enqueue] imposes no
           conflict constraint on any issue tick >= 0, so all such values
           collapse to [-enqueue] — never less pruning than the exact
           tick, still only collapsing identical subtrees. *)
        let buf = tried_buf.(st.Omega.State.sp) in
        let nseen = ref 0 in
        for c = 0 to Array.length pids - 1 do
          let p = pids.(c) in
          let enq = enqueue_of.(p) in
          let lu = st.Omega.State.last_on_pipe.(p) in
          let lc = if lu < -enq then -enq else lu in
          let key = (lc * nparams) + param_id.(p) in
          let dup = ref false in
          for i = 0 to !nseen - 1 do
            if buf.(i) = key then dup := true
          done;
          if not !dup then begin
            buf.(!nseen) <- key;
            incr nseen;
            count_call env;
            Omega.State.push_on st pos ~pipe:some_pipe.(p);
            choice.(pos) <- some_pipe.(p);
            k ();
            Omega.State.pop st
          end
        done
      end
    in
    push
  in
  let initial, best, stats, _ =
    search ?entry ~multi:true ~seeded:true machine dag options ~expand
      ~on_best:(fun () -> best_choice := Array.copy choice)
  in
  let initial = initial () in
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

  (* These run once per Omega call of the bounded search: plain loops,
     since a closure over [p] would be a heap allocation per call. *)

  (* Register demand if [pos] were scheduled next. *)
  let demand p pos =
    let uses = p.uses.(pos) in
    let deaths = ref 0 in
    for i = 0 to Array.length uses - 1 do
      let u, m = uses.(i) in
      if p.remaining.(u) = m then incr deaths
    done;
    p.live - !deaths + (if p.produces.(pos) then 1 else 0)

  let push p pos =
    let uses = p.uses.(pos) in
    for i = 0 to Array.length uses - 1 do
      let u, m = uses.(i) in
      if p.remaining.(u) = m then p.live <- p.live - 1;
      p.remaining.(u) <- p.remaining.(u) - m
    done;
    if p.produces.(pos) && p.consumer_count.(pos) > 0 then
      p.live <- p.live + 1

  let pop p pos =
    if p.produces.(pos) && p.consumer_count.(pos) > 0 then
      p.live <- p.live - 1;
    let uses = p.uses.(pos) in
    for i = 0 to Array.length uses - 1 do
      let u, m = uses.(i) in
      p.remaining.(u) <- p.remaining.(u) + m;
      if p.remaining.(u) = m then p.live <- p.live + 1
    done
end

let schedule_bounded ?(options = default_options) ~registers machine dag =
  if registers < 1 then
    invalid_arg "Optimal.schedule_bounded: registers must be >= 1";
  let expand env =
    let pressure = Pressure.create dag in
    let push pos k =
      if Pressure.demand pressure pos <= registers then begin
        count_call env;
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
     search comes up empty, so it is evaluated only on success. *)
  match search ~seeded:false machine dag options ~expand with
  | initial, Some best, stats, _ -> Ok { best; initial = initial (); stats }
  | _, None, _, _ -> Error ()

let verify_optimal machine dag (outcome : outcome) =
  let r = Baselines.legal_only_search machine dag in
  r.Baselines.complete && r.Baselines.best.Omega.nops = outcome.best.Omega.nops
