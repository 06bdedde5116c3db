(* The scheduling daemon: line-delimited JSON requests over stdin/stdout
   and (optionally) a Unix-domain socket, answered by a team of
   supervised worker domains sharing one LRU schedule cache.

   Threading model: I/O (the stdin reader, the socket acceptor, one
   reader per connection) runs on systhreads, which park in blocking
   calls without occupying a domain; compute runs on [Daemon.supervise]
   worker domains that drain a shared job queue and are respawned if an
   uncontained exception kills one.  Responses go back through a
   per-channel mutex, so concurrent workers never interleave bytes on
   one stream.

   The queue/admission/drain/listener state machine lives in
   [Pipesched_serve.Daemon] (unit-tested there); this binary is the I/O
   plumbing around it.

   Shutdown: stdin EOF or SIGTERM stops intake (the listening socket is
   closed), requests arriving after that are answered with an explicit
   "shutting down" error, the workers drain every queued job, and the
   process exits 0. *)

module Pool = Pipesched_parallel.Pool
module Fault = Pipesched_prelude.Fault
module Server = Pipesched_serve.Server
module Daemon = Pipesched_serve.Daemon

(* A writer that frames one response per line under [mutex], ignoring
   write failures (the peer may have hung up before its answer — with
   SIGPIPE ignored that surfaces as EPIPE here, not as process death). *)
let line_writer mutex oc response =
  Mutex.lock mutex;
  (try
     output_string oc response;
     output_char oc '\n';
     flush oc
   with Sys_error _ | Unix.Unix_error _ -> ());
  Mutex.unlock mutex

let stdin_reader st () =
  let stdout_mutex = Mutex.create () in
  Daemon.reader_loop st stdin (line_writer stdout_mutex stdout);
  (* stdin EOF is the daemon's stop signal. *)
  Daemon.begin_shutdown st

let connection_thread st fd () =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let mutex = Mutex.create () in
  (* reader_loop returns only after every job this connection submitted
     has been answered, so the close below cannot race a worker's
     response write. *)
  Daemon.reader_loop st ic (line_writer mutex oc);
  try Unix.close fd with Unix.Unix_error _ -> ()

let acceptor st listen_fd () =
  let accepted = ref 0 in
  let rec go () =
    match Unix.accept ~cloexec:true listen_fd with
    | fd, _ ->
      incr accepted;
      (* Chaos site: an armed [accept] fault hangs up on the fresh
         connection immediately — the client sees a clean EOF and must
         cope (the load client retries on a fresh connection). *)
      if Fault.fire Fault.Accept ~key:(string_of_int !accepted) then (
        (try Unix.close fd with Unix.Unix_error _ -> ());
        go ())
      else begin
        ignore (Thread.create (connection_thread st fd) ());
        go ()
      end
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> () (* closed *)
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ()

let run socket_path cache_capacity certify jobs lambda deadline_ms backend
    max_queue degrade faults =
  if Pipesched_core.Scheduler.find backend = None then begin
    Printf.eprintf "pipesched_server: unknown backend %S (have: %s)\n%!"
      backend
      (String.concat ", " Pipesched_core.Scheduler.names);
    124
  end
  else
  match Fault.arm_spec (Option.value ~default:"" faults) with
  | Error msg ->
    Printf.eprintf "pipesched_server: --faults: %s\n%!" msg;
    124
  | Ok () ->
    let server =
      Server.create ~cache_capacity ~certify ~degrade
        ?lambda
        ?deadline_ms
        ~backend
        ()
    in
    let st = Daemon.create ~max_queue server in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* Every thread of this process parks in blocking calls (cond waits,
       read(2), accept(2)), so an asynchronous [Signal_handle] would never
       reach a safe point.  Instead block the shutdown signals everywhere
       and give them a dedicated watcher thread that receives them
       synchronously. *)
    ignore (Thread.sigmask SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
    ignore
      (Thread.create
         (fun () ->
           let (_ : int) = Thread.wait_signal [ Sys.sigterm; Sys.sigint ] in
           Daemon.begin_shutdown st)
         ());
    (match socket_path with
    | None -> ()
    | Some path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Unix.bind fd (ADDR_UNIX path);
      Unix.listen fd 64;
      (* Publication and shutdown share the daemon's mutex: if a SIGTERM
         already started draining, [install_listener] closes the fd and
         no acceptor is spawned. *)
      if Daemon.install_listener st fd then
        ignore (Thread.create (acceptor st fd) ()));
    ignore (Thread.create (stdin_reader st) ());
    let jobs = Pool.resolve_jobs jobs in
    Daemon.supervise st ~jobs;
    (match socket_path with
    | None -> ()
    | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ()));
    Printf.eprintf
      "pipesched_server: served %d request(s), cache hits %d / misses %d, \
       shed %d, degraded %d, contained %d, respawns %d\n\
       %!"
      (Daemon.served st) (Server.cache_hits server)
      (Server.cache_misses server) (Daemon.shed st)
      (Server.degraded_served server)
      (Server.contained server + Daemon.write_contained st)
      (Daemon.respawns st);
    0

open Cmdliner

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Also listen on a Unix-domain stream socket at $(docv) (stdin is \
           always served).  The socket file is created at startup and \
           removed on exit.")

let cache_capacity =
  Arg.(
    value & opt int 4096
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:
          "Schedule-cache capacity in entries (LRU eviction beyond it; 0 \
           disables caching).")

let certify =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Run the independent certifier on every fresh solve before it \
           may enter the cache; a violation fails that request instead of \
           poisoning the cache.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains answering requests concurrently (default: \
           $(b,PIPESCHED_JOBS) or the machine's core count).")

let lambda =
  Arg.(
    value
    & opt (some int) None
    & info [ "lambda" ] ~docv:"N"
        ~doc:
          "Default per-request Omega-call budget (requests may override \
           with a \"lambda\" field).")

let deadline_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Default per-request wall-clock deadline for the anytime search \
           (requests may override with a \"deadline_ms\" field).")

let backend =
  Arg.(
    value & opt string "bnb"
    & info [ "backend" ] ~docv:"NAME"
        ~doc:
          "Default scheduler backend: $(b,bnb) (branch-and-bound, \
           default), $(b,cp) (propagation/learning), $(b,portfolio) \
           (bnb then cp in restart rounds), or $(b,list).  Requests may \
           override with a \"backend\" field; the backend is part of \
           the schedule-cache key.")

let max_queue =
  Arg.(
    value & opt int 0
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Bound the job queue at $(docv) waiting requests; beyond it, \
           admission control sheds with an \"overloaded\" refusal (or a \
           degraded answer under $(b,--degrade)) carrying a \
           retry_after_ms hint.  0 (default) = unbounded.")

let degrade =
  Arg.(
    value & flag
    & info [ "degrade" ]
        ~doc:
          "Graceful degradation: answer requests that would be shed (and \
           requests whose solve fails) with the certified list scheduler \
           instead of an error — a legal schedule marked \
           \"degraded\": true, with no optimality claim.")

let faults =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~env:(Cmd.Env.info "PIPESCHED_FAULTS")
        ~doc:
          "Arm deterministic chaos injection: comma-separated \
           site:prob:seed triples over sites solver, cache_insert, \
           write_response, accept (e.g. \
           \"solver:0.05:1,write_response:0.02:7\").  Fault verdicts are \
           a pure function of (spec, request bytes), so a chaos run \
           replays exactly.")

let cmd =
  Cmd.v
    (Cmd.info "pipesched_server"
       ~doc:
         "long-lived scheduling service: line-delimited JSON requests on \
          stdin and an optional Unix socket, duplicate blocks answered \
          from a canonical-form schedule cache")
    Term.(
      const run $ socket $ cache_capacity $ certify $ jobs $ lambda
      $ deadline_ms $ backend $ max_queue $ degrade $ faults)

let () = exit (Cmd.eval' cmd)
