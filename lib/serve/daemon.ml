module Json = Pipesched_prelude.Json
module Fault = Pipesched_prelude.Fault

type job = {
  req : (Json.t, string) result; (* the line, parsed once on intake *)
  write : string -> unit;
  on_done : unit -> unit;
      (* always runs exactly once, whether the job's write succeeded,
         was contained, or the worker died — connection readers rely on
         it to know when it is safe to close the fd *)
}

type admission = Accepted | Answered | Draining

type t = {
  server : Server.t;
  queue : job Queue.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  mutable draining : bool; (* no new jobs will be accepted *)
  mutable listen_fd : Unix.file_descr option;
  max_queue : int; (* 0 = unbounded *)
  mutable inflight : int; (* jobs taken but not yet finished (under qmutex) *)
  mutable ewma_ms : float; (* smoothed service time; 0 = unprimed (under qmutex) *)
  mutable jobs : int; (* worker count, for wait estimation *)
  served : int Atomic.t;
  shed : int Atomic.t; (* requests refused by admission control *)
  write_contained : int Atomic.t; (* response writes that failed (EPIPE, chaos) *)
  respawns : int Atomic.t; (* worker domains restarted by the supervisor *)
}

let create ?(max_queue = 0) server =
  let t =
    {
      server;
      queue = Queue.create ();
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      draining = false;
      listen_fd = None;
      max_queue;
      inflight = 0;
      ewma_ms = 0.0;
      jobs = 1;
      served = Atomic.make 0;
      shed = Atomic.make 0;
      write_contained = Atomic.make 0;
      respawns = Atomic.make 0;
    }
  in
  (* One [stats] op shows the whole service, not just the cache. *)
  Server.set_extra_stats server (fun () ->
      Mutex.lock t.qmutex;
      let depth = Queue.length t.queue and inflight = t.inflight in
      Mutex.unlock t.qmutex;
      [ ("queue_depth", Json.Int depth);
        ("inflight", Json.Int inflight);
        ("served", Json.Int (Atomic.get t.served));
        ("shed", Json.Int (Atomic.get t.shed));
        ("write_contained", Json.Int (Atomic.get t.write_contained));
        ("respawns", Json.Int (Atomic.get t.respawns)) ]);
  t

let server t = t.server
let served t = Atomic.get t.served
let shed t = Atomic.get t.shed
let write_contained t = Atomic.get t.write_contained
let respawns t = Atomic.get t.respawns

let queue_depth t =
  Mutex.lock t.qmutex;
  let d = Queue.length t.queue in
  Mutex.unlock t.qmutex;
  d

(* Callers hold qmutex. *)
let observe_locked t ms =
  if ms >= 0.0 then
    t.ewma_ms <- (if t.ewma_ms <= 0.0 then ms else (0.8 *. t.ewma_ms) +. (0.2 *. ms))

let observe_service_ms t ms =
  Mutex.lock t.qmutex;
  observe_locked t ms;
  Mutex.unlock t.qmutex

let shutdown_response =
  Json.to_string
    (Json.Assoc
       [ ("id", Json.Null);
         ("ok", Json.Bool false);
         ("error", Json.String "shutting down") ])

let overload_response id retry_after_ms =
  Json.to_string
    (Json.Assoc
       [ ("id", id);
         ("ok", Json.Bool false);
         ("error", Json.String "overloaded");
         ("retry_after_ms", Json.Int (max 0 retry_after_ms)) ])

(* Expected wait (ms) for a request admitted behind [depth] others,
   from the smoothed per-job service time spread over the workers.
   [depth] is the floor when the EWMA is unprimed: better a too-small
   hint than a zero that invites an instant retry storm. *)
let est_wait_ms t ~depth =
  if t.ewma_ms > 0.0 then t.ewma_ms *. float_of_int depth /. float_of_int (max 1 t.jobs)
  else float_of_int depth

let submit t ~line ~write ~on_done =
  (* Parsed before taking the lock: the deadline check, the shed
     answers and the worker all read this one parse. *)
  let req = Json.parse line in
  Mutex.lock t.qmutex;
  if t.draining then begin
    Mutex.unlock t.qmutex;
    Draining
  end
  else begin
    let qlen = Queue.length t.queue in
    let depth = qlen + t.inflight in
    (* Admission: refuse when the queue bound is hit, or when the
       request's own deadline is provably unmeetable at the current
       depth — solving it anyway would burn a worker on an answer the
       client has already abandoned. *)
    let over_bounds = t.max_queue > 0 && qlen >= t.max_queue in
    let unmeetable =
      (not over_bounds) && t.ewma_ms > 0.0 && depth > 0
      &&
      match req with
      | Error _ -> false
      | Ok req -> (
        match Option.bind (Json.member "deadline_ms" req) Json.to_float_opt with
        | Some d when d > 0.0 -> est_wait_ms t ~depth > d
        | _ -> false)
    in
    if over_bounds || unmeetable then begin
      let retry_after = int_of_float (Float.ceil (est_wait_ms t ~depth)) in
      Mutex.unlock t.qmutex;
      Atomic.incr t.shed;
      (* Never a silent drop: a shed request is answered immediately on
         the intake thread — degraded (certified list schedule) when the
         server was created to degrade, an explicit overload refusal
         otherwise. *)
      if Server.degrade t.server then
        write (Server.handle_parsed_degraded t.server req)
      else begin
        let id =
          match req with
          | Ok req -> Option.value ~default:Json.Null (Json.member "id" req)
          | Error _ -> Json.Null
        in
        write (overload_response id retry_after)
      end;
      Answered
    end
    else begin
      Queue.push { req; write; on_done } t.queue;
      Condition.signal t.qcond;
      Mutex.unlock t.qmutex;
      Accepted
    end
  end

let draining t =
  Mutex.lock t.qmutex;
  let d = t.draining in
  Mutex.unlock t.qmutex;
  d

let begin_shutdown t =
  Mutex.lock t.qmutex;
  t.draining <- true;
  Condition.broadcast t.qcond;
  let fd = t.listen_fd in
  t.listen_fd <- None;
  Mutex.unlock t.qmutex;
  (* Closing the listener kicks the acceptor thread out of accept(2). *)
  match fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

(* Publication happens under [qmutex] so it cannot interleave with
   [begin_shutdown]'s read: either the shutdown sees the fd and closes
   it, or it has already set [draining] and we close the fd here
   ourselves.  (The old daemon wrote [listen_fd] unlocked, so a SIGTERM
   during startup could miss the fd and leave the acceptor parked in
   accept(2) forever.) *)
let install_listener t fd =
  Mutex.lock t.qmutex;
  let accepted = not t.draining in
  if accepted then t.listen_fd <- Some fd;
  Mutex.unlock t.qmutex;
  if not accepted then (try Unix.close fd with Unix.Unix_error _ -> ());
  accepted

let reader_loop t ic write =
  (* Per-connection accounting of jobs accepted but not yet finished.
     The caller closes the connection right after we return, so we must
     not return at EOF while a worker still owes this connection a
     response — the old loop did, and the close raced (and beat) the
     response write, losing the reply to any request whose final line
     arrived just before EOF. *)
  let pmutex = Mutex.create () in
  let pcond = Condition.create () in
  let pending = ref 0 in
  let on_done () =
    Mutex.lock pmutex;
    decr pending;
    Condition.signal pcond;
    Mutex.unlock pmutex
  in
  let rec go () =
    match input_line ic with
    | "" -> go ()
    | line -> (
      (* Count before submitting: once the job is in the queue a worker
         may finish it (and run [on_done]) before we run another line. *)
      Mutex.lock pmutex;
      incr pending;
      Mutex.unlock pmutex;
      match submit t ~line ~write ~on_done with
      | Accepted -> go ()
      | Answered ->
        on_done ();
        go ()
      | Draining ->
        on_done ();
        (* Answer definitively and stop reading — the old
           [ignore (submit ...)] left accepted-but-unanswered clients
           hanging forever. *)
        write shutdown_response)
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
  in
  go ();
  Mutex.lock pmutex;
  while !pending > 0 do
    Condition.wait pcond pmutex
  done;
  Mutex.unlock pmutex

(* Worker domain: drain jobs until the queue is empty *and* intake has
   stopped. *)
let worker t _rank =
  let rec loop () =
    Mutex.lock t.qmutex;
    while Queue.is_empty t.queue && not t.draining do
      Condition.wait t.qcond t.qmutex
    done;
    match Queue.take_opt t.queue with
    | Some job ->
      t.inflight <- t.inflight + 1;
      Mutex.unlock t.qmutex;
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          (* Runs even when the write raised and this worker is about to
             die: the connection's pending count must come down exactly
             once per job, or its reader waits forever at EOF. *)
          job.on_done ();
          Mutex.lock t.qmutex;
          t.inflight <- t.inflight - 1;
          observe_locked t ((Unix.gettimeofday () -. t0) *. 1000.0);
          Mutex.unlock t.qmutex)
        (fun () ->
          (* [Server.handle_parsed] never raises — request-level faults are
             contained inside it.  The write back to the client is this
             worker's own hazard: a vanished client (EPIPE, closed pipe)
             or an armed [write_response] chaos fault is an expected,
             per-connection failure and is contained here; anything else
             is an unknown bug and is allowed to kill the worker, which
             the supervisor then respawns. *)
          let response = Server.handle_parsed t.server job.req in
          (try
             Fault.guard Fault.Write_response ~key:response;
             job.write response
           with
          | Fault.Injected _ | Sys_error _ | End_of_file
          | Unix.Unix_error _ ->
            Atomic.incr t.write_contained);
          Atomic.incr t.served);
      loop ()
    | None ->
      (* Empty and draining: done. *)
      Mutex.unlock t.qmutex
  in
  loop ()

let drained t =
  Mutex.lock t.qmutex;
  let d = t.draining && Queue.is_empty t.queue in
  Mutex.unlock t.qmutex;
  d

let supervise t ~jobs =
  let jobs = max 1 jobs in
  Mutex.lock t.qmutex;
  t.jobs <- jobs;
  Mutex.unlock t.qmutex;
  (* One systhread per worker slot; each runs the worker on its own
     domain and, should the domain die to an uncontained exception,
     respawns it — the service keeps its capacity through worker
     crashes, and the crash is visible as a counter rather than a
     wedged queue. *)
  let slot rank =
    let rec run () =
      let d = Domain.spawn (fun () -> worker t rank) in
      match Domain.join d with
      | () -> ()
      | exception _ ->
        Atomic.incr t.respawns;
        if not (drained t) then run ()
    in
    run ()
  in
  let threads = List.init jobs (fun rank -> Thread.create slot rank) in
  List.iter Thread.join threads
