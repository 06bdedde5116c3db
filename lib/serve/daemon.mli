(** Intake/admission/drain state machine of the scheduling daemon.

    [bin/pipesched_server] used to keep the job queue, the draining
    flag and the listening socket inline; the logic moved here so its
    invariants are unit-testable without spawning a process:

    + {b no silent drops}: every line that reaches {!submit} gets
      exactly one terminal answer — a scheduling response, a degraded
      response, an [overloaded] refusal, or the [shutting down] line;
    + {b bounded queueing}: with [max_queue] set, the daemon sheds
      instead of queueing without bound, so offered load beyond capacity
      cannot grow RSS or latency without limit;
    + {b deadline honesty}: a request whose own [deadline_ms] is
      provably unmeetable at the current depth (estimated wait from a
      smoothed service time already exceeds it) is refused up front
      with a [retry_after_ms] hint instead of being solved for nobody;
    + {b graceful degradation}: when the server was created with
      [~degrade:true], would-be-shed scheduling requests are answered
      immediately on the intake thread by the certified list scheduler
      ({!Server.handle_parsed_degraded}) — a legal schedule now instead
      of an optimal schedule never — and shed [stats] and [ping] ops
      are answered as usual, since they run no search;
    + {b fault containment}: a failed response write (client gone,
      EPIPE, or an armed {!Pipesched_prelude.Fault.Write_response}
      chaos fault) is contained and counted; any {e unexpected}
      exception kills only its worker domain, which {!supervise}
      respawns;
    + {b no close-vs-write race}: {!reader_loop} returns at EOF only
      after every job it submitted has finished, so the caller may
      close the connection immediately;
    + {b no startup race}: the listening socket is published under the
      queue mutex ({!install_listener}), the same mutex
      {!begin_shutdown} takes — a SIGTERM arriving between [listen(2)]
      and publication either sees the fd (and closes it) or is seen
      (and {!install_listener} closes the fd itself and refuses), so
      the acceptor can never be left parked in [accept(2)].

    Threading: intake runs on systhreads, workers on domains (one per
    {!supervise} slot); all shared state is under one mutex/condition
    pair. *)

type t

(** What {!submit} did with a line. *)
type admission =
  | Accepted  (** queued; a worker will answer and then run [on_done] *)
  | Answered  (** shed — already answered (refusal or degraded) on the
                  calling thread; [on_done] will {e not} be run *)
  | Draining  (** refused because the daemon is shutting down; the
                  caller should answer {!shutdown_response} and stop *)

(** [create server] — a fresh daemon around [server].  Not draining,
    no listener, empty queue.  Installs the daemon's counters as the
    server's extra [stats] fields ([queue_depth], [inflight], [served],
    [shed], [write_contained], [respawns]).

    [max_queue] bounds the number of {e queued} (not yet executing)
    jobs; [0] (the default) means unbounded.  A shed request is
    answered with the certified list scheduler when the server degrades
    ({!Server.degrade}), with an [overloaded] refusal otherwise. *)
val create : ?max_queue:int -> Server.t -> t

val server : t -> Server.t

(** The response line sent to a request that arrives while draining. *)
val shutdown_response : string

(** [submit t ~line ~write ~on_done] parses [line] once, before taking
    the queue lock, then runs admission control and either enqueues the
    parsed job or answers it on the spot; see {!admission}.
    [on_done] is called exactly once when an [Accepted] job has been
    fully processed (response written or write failure contained) — and
    never for [Answered]/[Draining] — so a connection reader can wait
    for its outstanding jobs before closing the fd. *)
val submit :
  t ->
  line:string ->
  write:(string -> unit) ->
  on_done:(unit -> unit) ->
  admission

(** Stop intake: set draining, wake every worker, and close the
    published listener (kicking the acceptor out of [accept(2)]).
    Idempotent. *)
val begin_shutdown : t -> unit

val draining : t -> bool

(** [install_listener t fd] publishes the listening socket so
    {!begin_shutdown} can close it.  If the daemon is already draining
    the fd is closed here and [false] is returned — the caller must
    not start an acceptor on it. *)
val install_listener : t -> Unix.file_descr -> bool

(** [reader_loop t ic write] reads request lines from [ic] until EOF,
    submitting each with [write] as its response channel.  Shed lines
    are answered inline; a line refused because the daemon is draining
    is answered with {!shutdown_response} and the loop stops reading.
    Returns only once every job this connection submitted has finished,
    so the caller may close the fd immediately after. *)
val reader_loop : t -> in_channel -> (string -> unit) -> unit

(** [worker t rank] drains jobs (handling each with
    {!Server.handle_parsed} and answering on the job's own writer) until
    the queue is empty {e and} the daemon is draining.  Expected write
    failures are contained (see the module preamble); unexpected
    exceptions propagate and kill the calling domain. *)
val worker : t -> int -> unit

(** [supervise t ~jobs] runs [jobs] supervised worker slots and blocks
    until all have drained.  Each slot runs {!worker} on its own
    domain; a slot whose domain dies to an uncontained exception counts
    a respawn and starts a fresh domain, so worker crashes cost the
    crashing request only, never the service's capacity. *)
val supervise : t -> jobs:int -> unit

(** [observe_service_ms t ms] feeds one service-time observation into
    the EWMA used for [retry_after_ms] and deadline-unmeetable
    estimates.  Workers do this automatically; exposed for tests that
    need a primed estimator without running real jobs. *)
val observe_service_ms : t -> float -> unit

(** {2 Counters} (monotone since {!create}) *)

(** Requests answered by workers. *)
val served : t -> int

(** Requests refused (or degraded) by admission control. *)
val shed : t -> int

(** Response writes that failed and were contained. *)
val write_contained : t -> int

(** Worker domains restarted by {!supervise}. *)
val respawns : t -> int

(** Jobs currently queued (excludes executing). *)
val queue_depth : t -> int
