(** The optimal pipeline scheduler (§4.2.3) — the paper's core contribution.

    A depth-first branch-and-bound over legal instruction orders:

    + the {!Pipesched_sched.List_sched} heuristic produces the initial
      schedule, which is evaluated with Omega and becomes the incumbent
      [pi] (§4.2.3 step [1]);
    + the search extends a partial schedule [Phi] one ready instruction at
      a time, inserting minimal NOPs incrementally (steps [2]–[5]);
    + {b legality pruning}: only candidates whose DAG predecessors are all
      in [Phi] are tried (the quick [earliest]/[latest] window test [5a] is
      subsumed by O(1) ready-count maintenance; the real test [5b] is what
      the count implements);
    + {b equivalence pruning} (step [5c]): at a choice point, at most one
      candidate that is {e free} — no pipeline resource, no predecessors
      {e and no successors} — is explored, since such instructions are
      mutually interchangeable fillers.  (The paper's condition omits the
      successor requirement; taken literally it can prune every optimal
      schedule — a predecessor-free instruction whose consumers come later
      is not interchangeable with an unconstrained one, because its
      position bounds where its consumers may go.  See the counterexample
      in the test suite and DESIGN.md.);
    + {b alpha-beta pruning} (step [6]): a partial schedule whose NOP count
      already reaches the incumbent's is abandoned — completing it can only
      add NOPs;
    + {b curtailment} (step [4]): after [lambda] Omega calls the search
      stops with the best schedule found, which may be suboptimal.

    None of the prunings can discard {e every} optimal schedule, so a
    completed search returns a provably optimal schedule (the paper's
    termination case [1]).

    Extensions beyond the paper (all optionality-preserving, all
    ablation-switchable): a stronger {e interchangeable-candidates} check,
    an admissible critical-path lower bound, and a search over pipeline
    {e assignment} for machines that offer several pipelines per operation
    (the feature footnote 3 excludes from the paper's algorithm).

    Cost: a search's setup is one pass.  It computes the seed
    heuristic's rank order once ({!List_sched.rank_order}), walks it for
    the seed ({!List_sched.walk}) and enumerates candidates in it, builds
    one {!Omega.State} over the DAG's own adjacency, scores the seed on
    it, and allocates the DFS's per-depth scratch (row [d] of the ready
    snapshot holds at most [n - d] positions).  For a block under 64
    instructions no setup array exceeds 256 words, OCaml's
    [Max_young_wosize], so the setup never allocates in the major heap
    directly: larger arrays would skip the minor heap, and the study's
    peak RSS grows with its major heap (a variant that flattened the
    snapshot into one [(n + 1) * n] array read study [peak_rss_mb] +19%
    at unchanged throughput).  After the setup an Omega call allocates
    nothing but the memo table's growth, in every entry point. *)

open Pipesched_ir
open Pipesched_machine
open Pipesched_sched

(** Admissible lower bound used by step [6]. *)
type lower_bound =
  | Partial_nops
      (** mu(Phi) alone — exactly the paper's alpha-beta condition *)
  | Critical_path
      (** mu(Phi) refined with the latency-weighted critical path of the
          unscheduled suffix (extension; strictly stronger, still never
          prunes all optima) *)

(** Dominance-memoization settings (extension).  The search keeps a
    bounded transposition table keyed by the {e set} of scheduled
    positions; a node is pruned when a previously explored prefix over
    the same set left the machine in a componentwise no-worse normalized
    state (no more NOPs, no later pipe last-uses, no larger residual
    producer latencies — all relative to the next issue slot; stored
    compactly, see {!Fingerprint}).  The cut is exact: it never changes
    the reported optimum, only the number of Omega calls spent reaching
    it (see the soundness argument in optimal.ml).  A capacity below 1
    raises [Invalid_argument] as the search starts. *)
type memo_options = {
  memo_enabled : bool;  (** master switch for the dominance cut *)
  memo_capacity : int;
      (** table capacity bound in entries, at least 1 (checked as the
          search starts, whatever lambda is), rounded up to a power of
          two; the allocation starts small and doubles as entries land,
          and at the bound old entries are evicted (deepest first) *)
  memo_activation : int;
      (** create the table only once this many Omega calls have been
          spent, so trivial searches never pay even the small initial
          allocation *)
}

(** Memoization on, 4096 entries, activation after 256 Omega calls. *)
val default_memo : memo_options

type options = {
  lambda : int;
      (** curtail point: maximum Omega calls (incremental NOP insertions)
          before the search gives up; the paper's user-supplied lambda *)
  deadline_s : float option;
      (** wall-clock deadline in seconds, measured from search start
          (extension).  [None] (the default) means call-count-only
          budgeting — the clock is then never read, so results are
          bit-for-bit deterministic.  On expiry the search returns its
          incumbent with status {!Pipesched_prelude.Budget.Curtailed_deadline}. *)
  cancel : Pipesched_prelude.Budget.token option;
      (** shared cancellation token, safe to trip from another domain
          (extension); on cancellation the search returns its incumbent
          with status {!Pipesched_prelude.Budget.Cancelled} *)
  seed : List_sched.heuristic;  (** initial-schedule heuristic *)
  equivalence : bool;           (** step [5c] on/off *)
  strong_equivalence : bool;
      (** also skip a candidate when an already-tried sibling has the same
          pipeline, the same predecessor set and the same successor set
          (fully interchangeable instructions; extension) *)
  alpha_beta : bool;            (** step [6] on/off *)
  lower_bound : lower_bound;
  memo : memo_options;          (** dominance memoization (extension) *)
}

(** The paper's configuration: [lambda = 100_000], no deadline, no
    cancellation token, {!List_sched.Max_distance} seed, equivalence and
    alpha-beta pruning on, [Partial_nops] bound, strong equivalence off,
    {!default_memo} memoization. *)
val default_options : options

(** Search statistics.  Without a deadline or a cancellation token every
    field is deterministic. *)
type stats = {
  omega_calls : int;
      (** incremental NOP insertions performed (the paper's Lambda) *)
  schedules_completed : int;
      (** complete schedules reached and compared against the incumbent *)
  improvements : int;
      (** times the incumbent was improved (including the seed's first
          evaluation is not counted) *)
  completed : bool;
      (** true: termination case [1], the result is provably optimal;
          false: case [2], curtailed — see [status] for which limit *)
  status : Pipesched_prelude.Budget.status;
      (** how the search ended: [Complete] iff [completed]; otherwise
          which budget limit stopped it (lambda, wall-clock deadline, or
          cancellation token).  The returned incumbent is a legal
          schedule in every case. *)
  elapsed_s : float;
      (** wall time spent in the search; [0.0] when no deadline was set
          (the clock is not read at all then, for determinism) *)
  memo_hits : int;
      (** nodes pruned by the dominance cut (subtrees never entered) *)
  memo_misses : int;
      (** dominance lookups that found no dominating entry *)
  memo_entries : int;  (** entries resident in the table at the end *)
  memo_evictions : int;
      (** entries displaced by the bounded table's eviction policy *)
}

type outcome = {
  best : Omega.result;     (** best schedule found *)
  initial : Omega.result;  (** the evaluated seed (list) schedule *)
  stats : stats;
}

(** The dominance memo's state encoding and its test (the
    [memo_options] extension), exposed so tests can check the test
    against the dense vector it encodes.

    The dense form of a state is mu(Phi), each pipe's last use and one
    residual latency per position, all relative to the next issue slot
    (see optimal.ml).  Only the top [max_latency - 1] producers of the
    schedule stack can have a positive residual, so a row stores mu(Phi),
    the pipe words, a count and at most [min n (max_latency - 1)]
    (position, residual) pairs: 10 words on the simulation machine,
    whatever the block's size. *)
module Fingerprint : sig
  type t

  (** The encoding for searches of [dag] on [machine]. *)
  val create : Machine.t -> Dag.t -> t

  (** Words per row. *)
  val width : t -> int

  (** [write t st row] encodes the state [st] into [row.(0 .. width - 1)].
      Allocates nothing. *)
  val write : t -> Omega.State.t -> int array -> unit

  (** [dominates t rows off row] — does the row stored at [off] in
      [rows] (a memo table's {!Pipesched_prelude.Memo_table.values})
      dominate [row]?  Both must encode states over the same scheduled
      set; the verdict is exactly the dense vectors' componentwise
      [<=]. *)
  val dominates :
    t -> Pipesched_prelude.Memo_table.rows -> int -> int array -> bool
end

(** [schedule ?options machine dag] runs the search with each operation on
    its default pipeline (the paper's algorithm).  [entry] carries
    pipeline state in from preceding code (see {!Omega.entry} and
    {!Region}). *)
val schedule :
  ?options:options -> ?entry:Omega.entry -> Machine.t -> Dag.t -> outcome

(** [schedule_shared ~bound machine dag] — {!schedule} below an
    exclusive NOP bound known from outside, for the portfolio's rounds
    ({!Pipesched_core.Portfolio}): the caller holds a schedule with
    [bound] NOPs, so the search prunes at the tighter of [bound] and its
    own best and only accepts schedules below both.  Returns the usual
    outcome plus [Some proved] when the search ran to completion: the
    proved optimal NOP count, [min own-best bound].  When no schedule
    below [bound] exists the proof is [bound] itself, the witness is the
    caller's and [best] is the seed.  With [~bound:max_int] the outcome
    equals {!schedule}'s. *)
val schedule_shared :
  ?options:options ->
  ?entry:Omega.entry ->
  bound:int ->
  Machine.t ->
  Dag.t ->
  outcome * int option

(** [schedule_multi ?options machine dag] additionally searches over the
    pipeline assignment when operations have several candidate pipelines
    (§4.1's two-loader example; extension).  Symmetric pipelines (equal
    parameters and equal last-use state) are explored only once per choice
    point.  Returns the chosen pipe per original position alongside the
    outcome. *)
val schedule_multi :
  ?options:options -> ?entry:Omega.entry -> Machine.t -> Dag.t ->
  outcome * int option array

(** [schedule_bounded ?options ~registers machine dag] searches only
    schedules whose register demand never exceeds [registers] — the §3.1
    concern made into a hard constraint instead of a pre-pass (extension).
    A value is live from its definition until its last remaining consumer
    is scheduled (read-then-write convention, matching
    [Pipesched_regalloc.Alloc]); candidates whose definition would push
    the live count past the file are pruned as illegal.

    Returns [Ok outcome] with the best feasible schedule found
    ([outcome.stats.completed] means provably optimal {e among feasible
    schedules}), or [Error ()] when no feasible complete schedule was
    found within [lambda] (the block needs §3.1 spill rewriting first).
    Note the seed list schedule may itself be infeasible — it is {e not}
    used as an incumbent, and is only evaluated (to fill
    [outcome.initial], as a reference point) when the search succeeds;
    on [Error ()] no Omega evaluation of the seed happens at all. *)
val schedule_bounded :
  ?options:options -> registers:int -> Machine.t -> Dag.t ->
  (outcome, unit) result

(** [verify_optimal machine dag outcome] cross-checks an outcome against
    the exhaustive legal-only search (test helper; exponential, use on
    small blocks only).  True when the NOP counts agree. *)
val verify_optimal : Machine.t -> Dag.t -> outcome -> bool
