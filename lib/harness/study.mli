(** The scheduling study engine behind Table 7 and Figures 1, 4-7.

    Runs the optimal scheduler over a population of synthetic blocks and
    collects one record per block.  All populations are generated from a
    seed, so studies are reproducible. *)

open Pipesched_ir
open Pipesched_machine
open Pipesched_core

type record = {
  size : int;               (** instructions in the (optimized) block *)
  initial_nops : int;       (** NOPs of the list schedule *)
  final_nops : int;         (** NOPs of the best schedule found *)
  omega_calls : int;
  schedules_completed : int;
  memo_hits : int;          (** subtrees pruned by the dominance memo *)
  completed : bool;         (** search ran to completion (provably optimal) *)
  status : Pipesched_prelude.Budget.status;
      (** [Complete] iff [completed]; otherwise which budget limit
          (lambda or the wall-clock deadline) curtailed this
          block's search — the record's [final_nops] is then the legal
          incumbent's *)
  time_s : float;           (** wall-clock seconds for the search *)
  unique : bool;
      (** true: this block's search was actually run (it was the first
          presentation of its canonical equivalence class, or dedup was
          off); false: the record was fanned out from a canonically
          identical block solved earlier in the study *)
}

(** One contained per-block fault: the exception text and the backtrace
    captured in the worker that hit it. *)
type failure = { exn : string; backtrace : string }

(** One block's fate in a fault-isolated study: a record, or the
    contained failure that replaced it. *)
type result = Scheduled of record | Failed of failure

(** Raised by {!run_block} when [certify] is set and the independent
    certifier ({!Pipesched_verify.Certify}) rejects the schedule; the
    payload is the violation explanations, one per line.  Inside
    {!run}'s non-strict mode this is contained into a {!Failed} entry
    like any other per-block exception. *)
exception Certification_failed of string

(** The [Scheduled] records of a result list, in order. *)
val records : result list -> record list

(** The [Failed] entries of a result list, in order. *)
val failures : result list -> failure list

(** [run_block ?options ?certify machine blk] schedules one block and
    records it.  With [certify] (default false), the best schedule is
    re-checked by the independent certifier — machine-model replay,
    optimal-vs-list NOP ordering, and interpreter semantics on the
    reordered block — and {!Certification_failed} is raised on any
    violation.

    [backend] selects the scheduler by {!Scheduler} registry name
    (default ["bnb"], the direct {!Optimal.schedule} path, which is also
    the only one reporting [memo_hits]/[schedules_completed]; the
    generic path leaves them 0 and puts the backend's own work units in
    [omega_calls]).  Raises [Invalid_argument] on an unknown name. *)
val run_block :
  ?options:Optimal.options ->
  ?certify:bool ->
  ?backend:string ->
  Machine.t ->
  Block.t ->
  record

(** [run_protected ?strict ?jobs f xs] is the study's fault-containment
    boundary, exposed for corpus-shaped drivers and tests: maps [f] over
    [xs] across [jobs] domains; by default an item that raises becomes
    one [Failed] entry (exception + backtrace) and the rest of the
    corpus still runs, in input order.  [strict] restores fail-fast: the
    first exception propagates to the caller. *)
val run_protected :
  ?strict:bool ->
  ?jobs:int ->
  ?progress:(int -> unit) ->
  ('a -> record) ->
  'a list ->
  result list

(** [run_dedup ?strict ?jobs ~key ~solve items] is the duplicate
    elimination underneath {!run}, exposed for corpus-shaped drivers
    (the fuzzer, tests): keys every item in parallel, groups equal keys
    serially in input order, [solve]s only the first presentation of
    each class across [jobs] domains, and fans its record back out to
    the other members with [unique = false].  With one job it keys and
    solves one item at a time, holding no item past its own solve; the
    records are the same.  Sound whenever equal keys
    imply equal search results — the intended key is
    [Machine.fingerprint ^ Canonical.key].  Fault containment and the
    [strict] switch behave as in {!run_protected} (a raise inside [key]
    or [solve] fails that item, or its whole class, respectively). *)
val run_dedup :
  ?strict:bool ->
  ?jobs:int ->
  ?progress:(int -> unit) ->
  key:('a -> string) ->
  solve:('a -> record) ->
  'a list ->
  result list

(** [run ?options ?deadline_s ?block_deadline_s ?freq ?jobs ~seed
    ~count machine] generates [count] blocks with the paper's size mix
    and schedules each, distributing blocks over [jobs] domains (default:
    [PIPESCHED_JOBS] or the machine's recommended domain count; see
    Pipesched_parallel.Pool).

    Deterministic at any job count: every block's RNG seed is pre-drawn
    serially from [seed] before any parallel work starts, so the records
    are identical — field for field, in order — whether [jobs] is 1 or
    64.  The only exception is the wall-clock [time_s] field.

    Deadlines make the study {e anytime} without breaking its shape:
    [deadline_s] bounds the whole sweep (each block's search receives the
    time remaining as its budget; once the sweep deadline passes,
    remaining blocks return their list-schedule incumbents near
    instantly), and [block_deadline_s] bounds each block's search
    individually.  Every block always yields a record — curtailed ones
    are marked by their [status].  When neither deadline is set the clock
    is never consulted and the determinism contract above holds
    bit-for-bit; with a deadline, which blocks get curtailed depends on
    wall time.

    Fault isolation: a raise inside one block's generation, search or
    certification becomes one [Failed] entry and the study continues
    ({!run_protected}); [strict] (default false) restores fail-fast.
    [certify] runs the independent certifier on every block's result
    (see {!run_block}).

    [backend] selects the scheduler per {!run_block} (default the
    branch-and-bound); every other knob — budgets, dedup, fault
    isolation, certification — applies to any backend.

    Duplicate elimination (extension): with [dedup] (default true) the
    population is grouped by {!Pipesched_ir.Canonical} key first and
    only one representative per equivalence class is actually searched;
    every other member receives a copy of its representative's record
    with [unique = false].  Sound because canonically equal blocks have
    isomorphic DAGs — the search result (NOP counts, status) transfers
    exactly.  Still deterministic at any job count: generation +
    canonicalization is a [parallel_map], grouping is serial in input
    order, and representative solving is another [parallel_map].  A
    serial run ([jobs] 1) does this one block at a time, so no block
    outlives its own search; the records are the same.
    [dedup:false] restores one search per block (the A/B lever for
    testing the soundness claim).  {!dedup_stats} summarizes the
    savings.

    [progress] is a {!Pipesched_parallel.Pool} progress callback wired
    to the {e solve} phase: cumulative searches finished, out of the
    unique classes (or out of [count] with [dedup:false]).  It runs on
    worker domains — see {!Pipesched_parallel.Pool.parallel_map}.

    The default [options] use [lambda = 50_000] (large relative to a
    typical complete search, per §5.3). *)
val run :
  ?options:Optimal.options ->
  ?deadline_s:float ->
  ?block_deadline_s:float ->
  ?freq:Pipesched_synth.Frequency.t ->
  ?jobs:int ->
  ?strict:bool ->
  ?certify:bool ->
  ?backend:string ->
  ?dedup:bool ->
  ?progress:(int -> unit) ->
  seed:int ->
  count:int ->
  Machine.t ->
  result list

(** Aggregates of a record sub-population (one Table 7 column). *)
type aggregate = {
  runs : int;
  pct : float;              (** share of the whole population, percent *)
  avg_size : float;
  avg_initial_nops : float;
  avg_final_nops : float;
  avg_omega_calls : float;
  avg_time_s : float;
  n_curtailed_lambda : int;   (** blocks stopped by the lambda budget *)
  n_curtailed_deadline : int; (** blocks stopped by a wall-clock deadline *)
}

(** [aggregate ~total records] summarizes a sub-population against the
    whole population's size [total]. *)
val aggregate : total:int -> record list -> aggregate

(** Per-block-size bucketing: [(size, records)] sorted by size. *)
val by_size : record list -> (int * record list) list

(** [(unique, total, dedup_rate)] over the scheduled records:
    [unique] classes actually searched out of [total] blocks;
    [dedup_rate = 1 - unique/total] (0 when dedup was off or every
    block was distinct). *)
val dedup_stats : result list -> int * int * float
