(** Target machine descriptions (§4.1).

    A machine is a set of pipelines (Table 2 / Table 4 of the paper) plus an
    operation-to-pipeline mapping (Table 3 / Table 5).  An operation mapped
    to the empty pipeline set — the paper's [sigma(zeta) = emptyset] case —
    executes in a single cycle, occupies no shared resource, and its result
    is available on the next tick. *)

open Pipesched_ir

type t

(** [make ~name pipes ~assign] builds a machine description.

    [assign] maps each operation kind to the list of pipeline indices (into
    [pipes], 0-based) able to execute it; operations absent from [assign]
    get the empty set (single-cycle, resource-free).  Raises
    [Invalid_argument] on out-of-range indices or duplicate [assign] keys. *)
val make : name:string -> Pipe.t array -> assign:(Op.t * int list) list -> t

val name : t -> string

(** The pipelines, indexed by pipeline id.  Fresh array. *)
val pipes : t -> Pipe.t array

(** Number of pipelines. *)
val pipe_count : t -> int

(** [pipe t pid] is the pipeline with index [pid]. *)
val pipe : t -> int -> Pipe.t

(** All pipelines able to execute [op] (possibly empty).  Read from a
    per-operation array built by {!make}: no hashing, no allocation. *)
val candidates : t -> Op.t -> int list

(** The default pipeline for [op]: the first candidate, or [None] when the
    operation uses no pipeline.  This is the paper's [sigma] (the algorithm
    of §4.2 fixes one pipeline per operation; choosing among several is the
    multi-pipe extension in {!Pipesched_core}). *)
val default_pipe : t -> Op.t -> int option

(** [default_pipe_id t op] is {!default_pipe} as a plain int, [-1] when
    the operation uses no pipeline; like {!candidates}, an array read. *)
val default_pipe_id : t -> Op.t -> int

(** Result latency of [op] on its default pipeline (1 for resource-free
    operations). *)
val latency : t -> Op.t -> int

(** Structural fingerprint of the description: a compact string that is
    identical for two machines exactly when scheduling cannot tell them
    apart — same pipe parameters in the same id order, same
    op-to-candidate-pipes map (candidate {e order} included, since the
    first candidate is the default pipe).  Names and pipe labels are
    ignored.  Used with {!Pipesched_ir.Canonical} as the schedule-cache
    key.  Rendered once by {!make}; this returns the stored string. *)
val fingerprint : t -> string

(** {2 Validation}

    Structured validation of machine descriptions, for surfacing
    description mistakes as CLI diagnostics (exit code 2) instead of a
    crash — or a silent misinterpretation — deep inside the search.
    {!make} already rejects out-of-range pipe indices and duplicate
    [assign] keys by raising; {!validate} covers the cases [make]
    accepts but that almost certainly indicate a broken description. *)

type diagnostic =
  | No_pipes  (** the pipeline table is empty *)
  | Bad_latency of { pipe : int; label : string; latency : int }
      (** defensive: unreachable through {!Pipe.make} *)
  | Bad_enqueue of { pipe : int; label : string; enqueue : int }
      (** defensive: unreachable through {!Pipe.make} *)
  | No_candidates of { op : Op.t }
      (** an operation explicitly mapped to the {e empty} pipe set —
          legal (resource-free) but a likely typo in a description file,
          since omitting the op entirely means the same thing *)
  | Duplicate_candidate of { op : Op.t; pipe : int }
      (** the same pipe id listed twice for one operation *)

(** Human-readable one-line rendering of a diagnostic. *)
val diagnostic_to_string : diagnostic -> string

(** [validate m] returns every diagnostic for the description ([[]] =
    clean).  Never raises. *)
val validate : t -> diagnostic list

(** {2 Presets} *)

module Presets : sig
  (** The paper's simulation machine (Tables 4 and 5): a loader with
      latency 2 / enqueue 1 serving [Load], and a multiplier with latency 4
      / enqueue 2 serving [Mul], [Div] and [Mod].  All other operations are
      single-cycle and resource-free. *)
  val simulation : t

  (** The illustrative machine of Tables 2 and 3: two loaders (2/1), two
      adders (4/3) shared by [Add]/[Sub], one multiplier (4/2) shared by
      [Mul]/[Div].  Exercises multi-pipeline selection. *)
  val demo : t

  (** A deeply pipelined machine (loader 4/1, adder 3/1, multiplier 6/2,
      divider 12/12 non-pipelined) used by the extension studies. *)
  val deep : t

  (** A machine whose multiplier and divider have recovery (enqueue)
      times {e exceeding} their result latencies — modelling iterative
      units that must flush between operations.  The only preset on which
      pipeline state can still be hot at a block boundary (see
      {!Pipesched_core.Region} and DESIGN.md): when [enqueue <= latency]
      and every result is consumed in-block, the trailing dependence
      always drains the unit before the block can end. *)
  val throttled : t

  (** A machine with a single universal pipeline of the given parameters:
      every operation (except [Const], kept free) flows through it.  Useful
      for modelling classical single-pipe processors (Bernstein's fixed
      setting when [enqueue = 1]). *)
  val uniform : latency:int -> enqueue:int -> t

  (** All named presets with their lookup keys (for CLIs). *)
  val all : (string * t) list

  (** [find key] looks a preset up by name. *)
  val find : string -> t option
end

(** Render the two description tables (pipeline table and op->pipe map) in
    the style of the paper's Tables 2 and 3. *)
val pp_tables : Format.formatter -> t -> unit

(** {2 Textual machine descriptions}

    A simple line format for describing machines in files (the CLI's
    [--machine-file]):

    {v
      # the Table 4/5 machine
      machine simulation
      pipe loader 2 1          # label latency enqueue
      pipe multiplier 4 2
      ops Load -> 0            # operations -> candidate pipe indices
      ops Mul Div Mod -> 1
    v} *)

(** Serialize a machine in the {!parse} format (round-trips). *)
val to_text : t -> string

(** Parse a textual description.  [Error (line, msg)] points at the first
    offending 1-based line. *)
val parse : string -> (t, int * string) result
