(** Reproduction drivers: one per table and figure of the paper.

    Each printer emits the paper's reported rows side by side with our
    measured values, so the regenerated artifact is self-comparing.
    [run_all] executes everything (EXPERIMENTS.md is produced from its
    output). *)

(** Per-block results from the main scheduling study, shared by Table 7
    and Figures 1 and 4-7.  Fault-isolated: a block whose search raised
    appears as a [Study.Failed] entry (counted by Table 7) instead of
    killing the sweep. *)
type study = Study.result list

(** [run_study ~seed ~count ()] runs the §5.3 study (16,000 blocks in the
    paper) on the simulation machine.  [lambda] is the curtail point
    (default 50,000 Omega calls); [strong] additionally enables the
    strong-equivalence pruning extension (default off = paper mode).
    [memo] configures the dominance-memoization extension (default
    {!Pipesched_core.Optimal.default_memo}; the cut never changes the
    reported optima, only the Omega calls spent).  [deadline_s] bounds
    the whole sweep in wall-clock seconds and [block_deadline_s] each
    block's search (anytime mode: curtailed blocks record their legal
    incumbents — see Study.run).  [jobs] sets the number of worker
    domains blocks are scheduled across; without deadlines, results are
    identical at any job count (see Study.run).  [strict] disables
    per-block fault containment (fail-fast); [certify] re-checks every
    schedule with the independent certifier (see Study.run_block).  [backend] selects the
    scheduler by {!Pipesched_core.Scheduler} registry name (default
    ["bnb"]; see Study.run_block for what the generic backends report). *)
val run_study :
  ?seed:int -> ?count:int -> ?lambda:int -> ?strong:bool ->
  ?memo:Pipesched_core.Optimal.memo_options ->
  ?deadline_s:float -> ?block_deadline_s:float -> ?jobs:int ->
  ?strict:bool -> ?certify:bool -> ?backend:string ->
  ?progress:(int -> unit) ->
  unit -> study

(** Table 1: search-space sizes for representative blocks (exhaustive vs
    illegal-pruned vs proposed).  Generates blocks matching the paper's
    row sizes; [legal_cutoff] bounds the topological-order count
    (default 10,000,000, printed as ">9,999,000" when hit). *)
val print_table1 :
  ?seed:int -> ?legal_cutoff:int -> Format.formatter -> unit -> unit

(** Tables 2/3 and 4/5: the machine descriptions (inputs, printed for
    completeness). *)
val print_machines : Format.formatter -> unit

(** Table 6: the synthetic statement-frequency table in use. *)
val print_table6 : Format.formatter -> unit

(** Table 7: termination statistics of the study. *)
val print_table7 : Format.formatter -> study -> unit

(** Figure 1: schedules searched vs block size (completed runs). *)
val print_fig1 : Format.formatter -> study -> unit

(** Figure 4: initial and final NOPs vs block size. *)
val print_fig4 : Format.formatter -> study -> unit

(** Figure 5: distribution of block sizes. *)
val print_fig5 : Format.formatter -> study -> unit

(** Figure 6: average search runtime vs block size. *)
val print_fig6 : Format.formatter -> study -> unit

(** Figure 7: percentage of provably optimal runs vs block size. *)
val print_fig7 : Format.formatter -> study -> unit

(** The §2.3 Omega-cost measurement: mean seconds per full-schedule Omega
    evaluation on a typical 15-instruction block (the paper measured
    0.12 ms on a Gould NP1 and 0.3 ms on a Sun 3/50). *)
val omega_cost : ?seed:int -> unit -> float

(** Extension: the study repeated on every preset machine (§6's "ongoing
    work examines more complex pipeline structures").  Blocks are
    scheduled across [jobs] domains. *)
val print_machine_sweep :
  ?seed:int -> ?count:int -> ?jobs:int -> Format.formatter -> unit

(** Extension: optimal NOPs over a grid of multiplier latency and enqueue
    values (the paper's deferred pipeline-structure study in miniature).
    Each grid cell's population is scheduled across [jobs] domains. *)
val print_structure_sweep :
  ?seed:int -> ?count:int -> ?jobs:int -> Format.formatter -> unit

(** Extension: windowed scheduling of very large blocks (§5.3's suggested
    splitting), comparing quality and Omega calls against the full search
    at several window sizes. *)
val print_windowed_study :
  ?seed:int -> ?count:int -> Format.formatter -> unit

(** Extension: entry-state threading across adjacent blocks (footnote 1)
    vs cold-start per-block scheduling, on multiply-heavy regions. *)
val print_region_study :
  ?seed:int -> ?count:int -> Format.formatter -> unit

(** Extension: the quality/time ladder of one-pass heuristics (source
    order, greedy, Gross-style, list) against windowed and full optimal
    search on a shared population. *)
val print_heuristic_study :
  ?seed:int -> ?count:int -> Format.formatter -> unit

(** Extension: named numeric kernels (dot product, FIR, Horner, ...)
    scheduled on the simulation and multi-pipe demo machines. *)
val print_kernel_study : Format.formatter -> unit

(** Extension: register pressure of source/list/optimal schedules (the
    §3.1 premise) and the feasibility/NOP trade-off of the
    pressure-bounded search. *)
val print_pressure_study :
  ?seed:int -> ?count:int -> Format.formatter -> unit

(** Extension: whole programs with loops and branches (§6 "arbitrary
    control flow"), comparing dynamic executed cycles under the optimal
    scheduler, the list schedule alone, and source order. *)
val print_dynamic_study :
  ?seed:int -> ?count:int -> Format.formatter -> unit

(** Extension: the portfolio (DESIGN.md §14).  Runs
    {!Pipesched_core.Portfolio.run} over [count] machine/block pairs —
    alternating the simulation machine with {!Generator.random_machine}
    draws — and reports which side proved each block, the proved
    fraction, and the number of disagreements, proofs the held schedule
    does not realize (always 0 unless a solver is buggy; CI greps the
    ["portfolio disagreements: 0"] line).  [lambda] is each side's
    last-round budget in its own units (default 50,000).  The output is
    deterministic. *)
val print_portfolio_study :
  ?seed:int -> ?count:int -> ?lambda:int -> Format.formatter -> unit

(** Every section, named, in the order a full run prints it: machines,
    table6, table1, table7, fig1, fig4-fig7, omega-cost, ablation,
    machine-sweep, structure-sweep, windowed, region, heuristics,
    kernels, pressure, dynamic, portfolio.  The options are {!run_all}'s;
    the main study behind Table 7 and the figures runs once, when the
    first of those sections prints, and the sizes of the other studies
    derive from [count]. *)
val sections :
  ?seed:int -> ?count:int -> ?lambda:int -> ?strong:bool ->
  ?memo:Pipesched_core.Optimal.memo_options ->
  ?deadline_s:float -> ?block_deadline_s:float -> ?jobs:int ->
  ?strict:bool -> ?certify:bool -> ?backend:string ->
  ?progress:(int -> unit) -> unit ->
  (string * (Format.formatter -> unit)) list

(** A title line, then every {!sections} entry in order, with the given
    study size (default 16,000).  [jobs] is threaded to the main study,
    the ablation, and the machine and structure sweeps; [deadline_s] /
    [block_deadline_s] deadline the main study (see {!run_study});
    [backend] selects the main study's scheduler (see {!run_study}). *)
val run_all :
  ?seed:int -> ?count:int -> ?lambda:int -> ?strong:bool ->
  ?memo:Pipesched_core.Optimal.memo_options ->
  ?deadline_s:float -> ?block_deadline_s:float -> ?jobs:int ->
  ?strict:bool -> ?certify:bool -> ?backend:string ->
  ?progress:(int -> unit) ->
  Format.formatter -> unit
