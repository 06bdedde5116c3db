(** The common SCHEDULER interface: every backend — exact searches,
    the heuristic seed, the portfolio — as a first-class module taking the
    same inputs (options, entry state, machine, DAG) and producing the
    same outcome shape.  Study drivers, the daemon, the fuzzer and the
    CLI dispatch on a backend {e name} instead of hard-wiring
    {!Optimal}; adding a backend means adding one registry entry.

    Outcome contract, checked per backend by the conformance suite
    (test/test_scheduler.ml):

    - [best] and [initial] are legal schedules of the block
      (certify-clean), with [best.nops <= initial.nops];
    - the backend is {e anytime}: it honors [options.lambda] and
      [options.deadline_s] and still returns a legal incumbent when
      curtailed, with [status] naming the tripped limit;
    - [completed = true] iff [status = Complete] iff [proved = Some _],
      and then [proved = Some best.nops] claims proved optimality
      (exact backends only; heuristic backends always report
      [completed = false] with status [Complete] — they terminate
      naturally but prove nothing);
    - with no deadline, the reported schedule is deterministic. *)

open Pipesched_ir
open Pipesched_machine

type outcome = {
  best : Omega.result;
  initial : Omega.result;
  calls : int;
      (** work units spent, in backend-specific units (Omega calls for
          the searches, decisions + conflicts for cp, the sum of both
          sides for portfolio) *)
  completed : bool;  (** optimality proved *)
  status : Pipesched_prelude.Budget.status;
  proved : int option;  (** the proved optimal NOP count, iff completed *)
}

module type S = sig
  val name : string

  (** Human-oriented one-liner for listings. *)
  val describe : string

  val schedule :
    ?options:Optimal.options ->
    ?entry:Omega.entry ->
    Machine.t ->
    Dag.t ->
    outcome
end

(** The registry, in listing order: ["bnb"] ({!Optimal.schedule}),
    ["cp"] ({!Pipesched_solve.Cp.solve}), ["portfolio"]
    ({!Portfolio.run}), ["list"] (the seed heuristic alone). *)
val backends : (module S) list

(** [find name] looks the backend up by name. *)
val find : string -> (module S) option

(** Registered names, in listing order. *)
val names : string list
