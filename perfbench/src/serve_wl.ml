(* The two serving workloads: a [pipesched_server --jobs 1] child that
   the benchmark starts, owns and always reaps, driven over its Unix
   socket by the single-threaded client in {!Client}.

   An untraced run: set up (spawn until the daemon answers a ping, plus
   serve-hot's warm pass) several times, each on a fresh daemon, keeping
   the last; serve-race then fills the cache untimed; then, in rounds, a
   closed loop on two connections measures throughput and an open loop
   at the workload's fixed rate measures latency from each request's due
   time. *)

open Pipesched_ir
open Pipesched_machine
module Json = Pipesched_prelude.Json
module Lru = Pipesched_prelude.Lru
module Budget = Pipesched_prelude.Budget
module Optimal = Pipesched_core.Optimal
module Portfolio = Pipesched_core.Portfolio
module Scheduler = Pipesched_core.Scheduler
module Certify = Pipesched_verify.Certify
module Server = Pipesched_serve.Server
module Daemon = Pipesched_serve.Daemon
module Stats = Pipesched_harness.Stats

type config = {
  name : string;
  cache_capacity : int;
  certify : bool;
  rate : float;  (** open-loop offered rate, requests per second *)
  closed_per_s : float;
      (** closed-loop lines generated per second of closed-loop phase;
          above the daemon's throughput, so the phase is time-bound *)
  fill : int;  (** untimed requests before the closed loop (serve-race) *)
  warm : bool;  (** serve-hot: the warm pass is part of set-up *)
  grace : float;  (** seconds an answer may take after its phase ends *)
}

(* Offered rates are a third or less of the closed-loop throughput on a
   2-core host, so even the slower seeds keep the open loop well below
   saturation. *)
let hot =
  { name = "serve-hot"; cache_capacity = 16384; certify = false; rate = 2500.0;
    closed_per_s = 12000.0; fill = 0; warm = true; grace = 10.0 }

let race =
  { name = "serve-race"; cache_capacity = 16; certify = true; rate = 200.0;
    closed_per_s = 2000.0; fill = 16; warm = false; grace = 30.0 }

let daemon_args cfg =
  [ "--jobs"; "1"; "--socket"; "d.sock"; "--cache-capacity";
    string_of_int cfg.cache_capacity ]
  @ if cfg.certify then [ "--certify" ] else []

let closed_share = 0.45
let open_share = 0.45

(* The timed phases alternate, a closed loop then an open loop, in this
   many rounds: the host's speed drifts over seconds, and each metric
   then samples the whole run instead of one stretch of it.  Throughput
   is the closed loops' completions over their total time; the tail
   percentiles are medians over windows of 1000 open-loop samples, the
   fewest that leave ten beyond the 99th percentile. *)
let rounds = 10
let latency_window = 1000

(* Set-ups per run; the median is reported.  Each serve-hot set-up
   includes its warm pass, so it takes fewer. *)
let setups cfg = if cfg.warm then 3 else 9

(* How far the open-loop generator may fall behind its schedule, as a
   share of a round's open loop, before the run is invalid. *)
let max_behind = 0.05

type lines = {
  first_pass : Requests.request array;  (** the warm pass or the fill *)
  closed : Requests.request array;
  opened : Requests.request array;
  due : float array;
}

let lines cfg ~seed ~seconds =
  let closed = int_of_float (cfg.closed_per_s *. seconds *. closed_share) in
  let opened = max 1 (int_of_float (cfg.rate *. seconds *. open_share)) in
  let warm, closed, opened, due =
    if cfg.warm then Requests.serve_hot ~seed ~closed ~opened ~rate:cfg.rate
    else
      Requests.serve_race ~seed ~fill:cfg.fill ~closed ~opened ~rate:cfg.rate
  in
  { first_pass = warm; closed; opened; due }

let texts reqs = Array.map (fun r -> r.Requests.line) reqs

(* ---------------------------------------------------------------- *)
(* The daemon child                                                  *)

type daemon = { child : Child.t; conns : Client.conn list }

let counter = ref 0

let start ~server ~out cfg =
  incr counter;
  let name = Printf.sprintf "d-%d-%d" (Unix.getpid ()) !counter in
  let dir = Filename.concat out name in
  let child = Child.spawn ~exe:server ~args:(daemon_args cfg) ~dir in
  Printf.eprintf "perfbench: %s daemon pid %d\n%!" cfg.name child.Child.pid;
  Child.send child {|{"id":0,"op":"ping"}|};
  match Child.read_line child with
  | Some l when String.length l > 0 ->
    (* the stdin reader starts after the listener is installed, so the
       socket accepts once the ping is answered *)
    let socket =
      Filename.concat (Filename.concat Filename.parent_dir_name name) "d.sock"
    in
    { child; conns = [ Client.connect socket; Client.connect socket ] }
  | _ ->
    ignore (Child.stop ~grace:1.0 child);
    failwith (cfg.name ^ ": the daemon did not answer its ping")

let stop_daemon tally d =
  List.iter Client.close d.conns;
  match Child.stop d.child with
  | None -> ()
  | Some e ->
    if e.Child.killed || e.Child.status <> Unix.WEXITED 0 then
      Report.fail_run tally
        (Printf.sprintf "daemon %d: %s%s\n%s" d.child.Child.pid
           (Child.describe_status e.Child.status)
           (if e.Child.killed then " (killed after the grace period)" else "")
           e.Child.stderr);
    List.iter
      (fun f ->
        if f <> "d.sock" then
          Report.fail_run tally
            (Printf.sprintf "daemon %d left %s behind (a portfolio repro?)"
               d.child.Child.pid f))
      e.Child.leftovers

(* A closed loop over all of [reqs] (the warm pass, the fill). *)
let pass d cfg reqs =
  if Array.length reqs = 0 then None
  else
    Some
      (fst
         (Client.closed_loop d.conns ~lines:(texts reqs)
            ~first:reqs.(0).Requests.id
            ~stop_sending:(Unix.gettimeofday () +. 120.0)
            ~grace:cfg.grace))

(* ---------------------------------------------------------------- *)
(* Checks over answered requests                                     *)

type phase = { reqs : Requests.request array; run : Client.run; sent : int }

type checked = {
  mutable proved : int;
  mutable nops : int;
  mutable ok : int;
  mutable hits : int;
  mutable small : (Machine.t * Block.t * int) list;
}

(* Both lines without their leading ["id"] field, which the client
   renders and the server echoes first. *)
let after_id line =
  match String.index_opt line ',' with
  | Some i -> String.sub line i (String.length line - i)
  | None -> line

(* Every request sent must be answered, succeed and certify; serve-hot
   answers must match a cache-disabled server, serve-race proofs must
   agree with a standalone bnb.  [timed] phases feed the metrics.  A
   pair of request and answer that repeats one already checked (a hot
   block answered again alike) takes that check's verdict: the checks
   are functions of the two lines without their ids. *)
let check_phases cfg tally phases =
  let c = { proved = 0; nops = 0; ok = 0; hits = 0; small = [] } in
  let parity = if cfg.warm then Some (Checks.parity ()) else None in
  let seen = Hashtbl.create 16384 in
  let check req line =
    let key = after_id req.Requests.line ^ "\n" ^ after_id line in
    match Hashtbl.find_opt seen key with
    | Some verdict -> verdict
    | None ->
      let verdict =
        Result.bind (Checks.certify_answer req line) (fun a ->
            let extra =
              match parity with
              | Some par -> Checks.check_parity par req a
              | None -> Checks.check_agreement ~lambda:Requests.race_lambda req a
            in
            Result.map (fun () -> a) extra)
      in
      Hashtbl.replace seen key verdict;
      Result.iter
        (fun a ->
          if a.Checks.completed then
            c.small <- (req.Requests.machine, req.Requests.block, a.Checks.nops) :: c.small)
        verdict;
      verdict
  in
  List.iter
    (fun (is_timed, p) ->
      for i = 0 to p.sent - 1 do
        let req = p.reqs.(i) in
        tally.Report.attempted <- tally.Report.attempted + 1;
        match p.run.Client.answers.(i) with
        | None -> Report.fail tally (Printf.sprintf "request %d unanswered" req.Requests.id)
        | Some line -> (
          match check req line with
          | Error msg -> Report.fail tally msg
          | Ok a ->
            if is_timed then begin
              c.ok <- c.ok + 1;
              c.nops <- c.nops + a.Checks.nops;
              if a.Checks.completed then c.proved <- c.proved + 1;
              if a.Checks.cached then c.hits <- c.hits + 1
            end)
      done)
    phases;
  c

let check_small ~seed tally c =
  List.iter
    (fun x ->
      match Checks.check_exhaustive x with
      | Ok () -> ()
      | Error msg -> Report.fail tally msg)
    (Checks.sample_small ~seed ~limit:30 (List.rev c.small))

(* ---------------------------------------------------------------- *)
(* Untraced run                                                      *)

(* The load client's heap holds every request and answer of the run;
   a lazier major GC keeps its pauses out of the timed phases.  This is
   the client's setting only: the daemon runs with the defaults. *)
let with_client_gc f =
  let saved = Gc.get () in
  Gc.set { saved with Gc.space_overhead = 1000 };
  Fun.protect ~finally:(fun () -> Gc.set saved) f

(* Round [r]'s share of [n] items: the half-open index range. *)
let slice ~n r = (n * r / rounds, n * (r + 1) / rounds)

let run_untraced cfg ~server ~out ~seed ~seconds tally =
  with_client_gc @@ fun () ->
  let ls = lines cfg ~seed ~seconds in
  let setup_samples = ref [] and kept = ref None in
  let setups = setups cfg in
  for k = 1 to setups do
    let t0 = Unix.gettimeofday () in
    let d = start ~server ~out cfg in
    let warm_run = if cfg.warm then pass d cfg ls.first_pass else None in
    setup_samples := (Unix.gettimeofday () -. t0) :: !setup_samples;
    if k < setups then stop_daemon tally d else kept := Some (d, warm_run)
  done;
  let d, warm_run = Option.get !kept in
  let warm_run = if cfg.warm then warm_run else pass d cfg ls.first_pass in
  let first_closed = Array.length ls.first_pass in
  let first_open = first_closed + Array.length ls.closed in
  let n_closed = Array.length ls.closed and n_open = Array.length ls.opened in
  let closed_s = seconds *. closed_share /. float_of_int rounds in
  let phases = ref [] and lat = ref [] and late = ref [] in
  let completed = ref 0 and closed_time = ref 0.0 and sent = ref 0 in
  let behind = ref 0.0 in
  (* the client's own major GC must not stall the timed phases *)
  Gc.full_major ();
  for r = 0 to rounds - 1 do
    Printf.eprintf "perfbench: %s closed loop\n%!" cfg.name;
    let off = !sent in
    let reqs = Array.sub ls.closed off (n_closed - off) in
    let stop = Unix.gettimeofday () +. closed_s in
    let run, k =
      Client.closed_loop d.conns ~lines:(texts reqs) ~first:(first_closed + off)
        ~stop_sending:stop ~grace:cfg.grace
    in
    (* completions until the phase's end, or until its last answer if
       it ran out of lines first *)
    let last = ref run.Client.started in
    Array.iter
      (fun t ->
        if t <= stop then begin
          incr completed;
          last := Float.max !last t
        end)
      run.Client.done_at;
    closed_time :=
      !closed_time +. ((if k < Array.length reqs then stop else !last) -. run.Client.started);
    sent := off + k;
    phases := (true, { reqs; run; sent = k }) :: !phases;
    Printf.eprintf "perfbench: %s open loop\n%!" cfg.name;
    let lo, hi = slice ~n:n_open r in
    if hi > lo then begin
      let reqs = Array.sub ls.opened lo (hi - lo) in
      let due = Array.init (hi - lo) (fun i -> ls.due.(lo + i) -. ls.due.(lo)) in
      let run =
        Client.open_loop d.conns ~lines:(texts reqs) ~due ~first:(first_open + lo)
          ~grace:cfg.grace
      in
      (* latency from each request's due time *)
      Array.iteri
        (fun i t ->
          if not (Float.is_nan t) then
            lat := (1000.0 *. (t -. (run.Client.started +. due.(i)))) :: !lat)
        run.Client.done_at;
      late := Array.to_list run.Client.lateness @ !late;
      let worst = Array.fold_left Float.max 0.0 run.Client.lateness in
      if worst > max_behind *. Float.max due.(hi - lo - 1) 1.0 then
        Report.fail_run tally
          (Printf.sprintf "open loop invalid: the generator fell %.3f s behind" worst);
      behind := Float.max !behind worst;
      phases := (true, { reqs; run; sent = hi - lo }) :: !phases
    end
  done;
  let peak = Child.peak_rss_mb d.child.Child.pid in
  stop_daemon tally d;
  let lat = List.rev !lat in
  if not (Report.supported ~samples:(List.length lat) 99.0) then
    Printf.eprintf
      "perfbench: %s: only %d latency samples; a p99 needs 1000 (raise --seconds)\n%!"
      cfg.name (List.length lat);
  let warm_phase =
    match warm_run with
    | Some run -> [ (false, { reqs = ls.first_pass; run; sent = Array.length ls.first_pass }) ]
    | None -> []
  in
  let c = check_phases cfg tally (warm_phase @ List.rev !phases) in
  check_small ~seed tally c;
  let timed = !sent + n_open in
  Printf.eprintf "perfbench: %s cache hits %d of %d timed answers\n%!" cfg.name
    c.hits c.ok;
  [ Report.metric "setup_s" "s" (Report.median !setup_samples);
    Report.metric "units_per_s" "units/s" (float_of_int !completed /. !closed_time);
    Report.metric "latency_p50_ms" "ms" (Report.percentile 50.0 lat);
    Report.metric "latency_p90_ms" "ms"
      (Report.windowed_percentile ~window:latency_window 90.0 lat);
    Report.metric "latency_p99_ms" "ms"
      (Report.windowed_percentile ~window:latency_window 99.0 lat);
    Report.metric "latency_samples" "count" (float_of_int (List.length lat));
    Report.metric "generator_late_p99_ms" "ms" (1000.0 *. Report.percentile 99.0 !late);
    Report.metric "generator_late_max_ms" "ms" (1000.0 *. !behind);
    Report.metric "proved_share" "fraction" (Report.share c.proved timed);
    Report.metric "nops_mean" "NOPs"
      (float_of_int c.nops /. float_of_int (max 1 c.ok));
    Report.metric "peak_rss_mb" "MB" peak ]

(* ---------------------------------------------------------------- *)
(* Traced run                                                        *)

(* The replay's own state: a cache like the daemon's, and counters. *)
type replay = {
  lru : Omega.result Lru.t;
  certify : bool;
  mutable puts : int;
  mutable violations : int;
  mutable searches : int;
  mutable searches_proved : int;
  mutable omega_calls : int;
  mutable races : int;
  mutable presolved : int;
  mutable wins_bnb : int;
  mutable wins_cp : int;
  mutable neither : int;
  proved : (int, int) Hashtbl.t;  (** portfolio-proved NOPs by request id *)
}

let parse_machine text =
  match Machine.parse text with
  | Ok m -> m
  | Error (line, msg) -> failwith (Printf.sprintf "machine, line %d: %s" line msg)

let resolve_machine = function
  | Some (Json.String s) -> (
    match Machine.Presets.find s with Some m -> m | None -> parse_machine s)
  | Some j -> (
    match Json.member "text" j with
    | Some (Json.String text) -> parse_machine text
    | _ -> failwith "\"machine\" must be a preset name or {\"text\": ...}")
  | None -> failwith "missing \"machine\" field"

let int_list a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

(* [Server]'s response rendering. *)
let render ~id ~order (r : Omega.result) ~completed ~status ~cached =
  Json.Assoc
    ([ ("id", id);
       ("ok", Json.Bool true);
       ("nops", Json.Int r.Omega.nops);
       ("completed", Json.Bool completed);
       ("status", Json.String (Budget.status_to_string status));
       ("order", int_list order);
       ("eta", int_list r.Omega.eta);
       ("issue", int_list r.Omega.issue);
       ("pipes", int_list r.Omega.pipes) ]
    @ match cached with None -> [] | Some b -> [ ("cached", Json.Bool b) ])

(* One request line through the calls [Server.handle_line] makes, in
   the order it makes them, each wrapped in a span.  The portfolio is
   called as [Portfolio.run], which the registry's portfolio backend
   wraps, to see which side won. *)
let replay_line tr st ~root ~unit_id line =
  let span name f = Trace.span tr name ~unit_id f in
  Trace.span tr root ~unit_id (fun () ->
      let req =
        match span "json.parse" (fun () -> Json.parse line) with
        | Ok j -> j
        | Error msg -> failwith msg
      in
      let id = Option.value ~default:Json.Null (Json.member "id" req) in
      let machine, fingerprint =
        span "machine.resolve" (fun () ->
            let m = resolve_machine (Json.member "machine" req) in
            if Machine.validate m <> [] then failwith "invalid machine";
            (m, Machine.fingerprint m))
      in
      let blk =
        span "block.parse" (fun () ->
            match Option.map Block.parse (Option.bind (Json.member "block" req) Json.to_string_opt) with
            | Some (Ok b) -> b
            | _ -> failwith "bad block")
      in
      let lambda =
        match Option.bind (Json.member "lambda" req) Json.to_int_opt with
        | Some l when l > 0 -> l
        | _ -> Optimal.default_options.Optimal.lambda
      in
      let backend =
        Option.value ~default:"bnb"
          (Option.bind (Json.member "backend" req) Json.to_string_opt)
      in
      let detail = Json.member "detail" req = Some (Json.Bool true) in
      let c = span "canonical.key" (fun () -> Canonical.of_block blk) in
      let key = fingerprint ^ "\x00" ^ backend ^ "\x00" ^ c.Canonical.key in
      let result, completed, status, cached =
        match span "lru.find" (fun () -> Lru.find st.lru key) with
        | Some r -> (r, true, Budget.Complete, true)
        | None ->
          let options = { Optimal.default_options with Optimal.lambda } in
          let dag = span "dag.build" (fun () -> Dag.of_block c.Canonical.block) in
          let r, completed, status =
            if backend = "portfolio" then begin
              let p =
                span "portfolio.race" (fun () -> Portfolio.run ~options machine dag)
              in
              st.races <- st.races + 1;
              (match p.Portfolio.winner with
               | Some Portfolio.Bnb -> st.wins_bnb <- st.wins_bnb + 1
               | Some Portfolio.Cp ->
                 st.wins_cp <- st.wins_cp + 1;
                 if p.Portfolio.bnb.Portfolio.calls = 0 then
                   st.presolved <- st.presolved + 1
               | None -> st.neither <- st.neither + 1);
              Option.iter (Hashtbl.replace st.proved unit_id) p.Portfolio.proved;
              (p.Portfolio.best, p.Portfolio.proved <> None, p.Portfolio.status)
            end
            else begin
              let (module B : Scheduler.S) = Option.get (Scheduler.find backend) in
              let o = span "bnb.search" (fun () -> B.schedule ~options machine dag) in
              st.searches <- st.searches + 1;
              st.omega_calls <- st.omega_calls + o.Scheduler.calls;
              if o.Scheduler.completed then
                st.searches_proved <- st.searches_proved + 1;
              (o.Scheduler.best, o.Scheduler.completed, o.Scheduler.status)
            end
          in
          if st.certify then begin
            let vs =
              span "certify.check" (fun () ->
                  Certify.check machine c.Canonical.block r)
            in
            st.violations <- st.violations + List.length vs
          end;
          if completed then begin
            span "lru.put" (fun () -> Lru.put st.lru key r);
            st.puts <- st.puts + 1
          end;
          (r, completed, status, false)
      in
      let order =
        span "canonical.apply" (fun () -> Canonical.apply c result.Omega.order)
      in
      span "json.render" (fun () ->
          Json.to_string
            (render ~id ~order result ~completed ~status
               ~cached:(if detail then Some cached else None))))

let field_int k line =
  match Json.parse line with
  | Ok j -> Option.bind (Json.member k j) Json.to_int_opt
  | Error _ -> None

let field_completed line =
  match Json.parse line with
  | Ok j -> Json.member "completed" j = Some (Json.Bool true)
  | Error _ -> false

(* The replay must answer what the server answers: byte for byte on
   serve-hot (bnb is deterministic); on serve-race, where the race may
   pick another optimal schedule, the proved NOP counts must agree. *)
let same_answer cfg ~replayed ~served =
  if cfg.warm then replayed = served
  else if field_completed replayed && field_completed served then
    field_int "nops" replayed = field_int "nops" served
  else true

(* An in-process [Daemon] (one worker domain, as [--jobs 1]) fed the
   warm pass or fill, then the probe lines at their due times.  Returns
   per-request (due, submit, done) times and the deepest queue seen. *)
let in_process_daemon cfg ~warm ~lines ~due =
  let server = Server.create ~cache_capacity:cfg.cache_capacity ~certify:cfg.certify () in
  let dm = Daemon.create server in
  let worker = Thread.create (fun () -> Daemon.supervise dm ~jobs:1) () in
  let m = Mutex.create () in
  let pending = ref 0 in
  let submit line on_write =
    Mutex.lock m;
    incr pending;
    Mutex.unlock m;
    match
      Daemon.submit dm ~line
        ~write:(fun _ ->
          let t = Unix.gettimeofday () in
          Mutex.lock m;
          on_write t;
          decr pending;
          Mutex.unlock m)
        ~on_done:ignore
    with
    | Daemon.Accepted -> true
    | Daemon.Answered | Daemon.Draining ->
      Mutex.lock m;
      decr pending;
      Mutex.unlock m;
      false
  in
  let wait_idle limit =
    let deadline = Unix.gettimeofday () +. limit in
    let idle () =
      Mutex.lock m;
      let p = !pending in
      Mutex.unlock m;
      p = 0
    in
    while (not (idle ())) && Unix.gettimeofday () < deadline do
      Thread.delay 0.001
    done
  in
  Array.iter (fun l -> ignore (submit l ignore)) warm;
  wait_idle 120.0;
  let n = Array.length lines in
  let submitted = Array.make n Float.nan and finished = Array.make n Float.nan in
  let depth = ref 0 in
  let start = Unix.gettimeofday () +. 0.01 in
  for i = 0 to n - 1 do
    let wait = start +. due.(i) -. Unix.gettimeofday () in
    if wait > 0.0 then Thread.delay wait;
    submitted.(i) <- Unix.gettimeofday ();
    if submit lines.(i) (fun t -> finished.(i) <- t) then
      depth := max !depth (Daemon.queue_depth dm)
  done;
  wait_idle cfg.grace;
  Daemon.begin_shutdown dm;
  Thread.join worker;
  let dues = Array.map (fun d -> start +. d) due in
  (dues, submitted, finished, !depth)

let ms_since base t = 1000.0 *. (t -. base)

let fresh_replay cfg =
  { lru = Lru.create ~capacity:cfg.cache_capacity; certify = cfg.certify;
    puts = 0; violations = 0; searches = 0; searches_proved = 0;
    omega_calls = 0; races = 0; presolved = 0; wins_bnb = 0; wins_cp = 0;
    neither = 0; proved = Hashtbl.create 64 }

(* Replays [reqs] in order (at least [min_count], then until [budget]
   seconds pass) through {!replay_line}, each beside the whole
   [Server.handle_line] on a second server, which must answer the same. *)
let replay_section cfg tally tr ~root ~min_count ~budget reqs =
  let st = fresh_replay cfg in
  let handle = ref [] in
  let second =
    Server.create ~cache_capacity:cfg.cache_capacity ~certify:cfg.certify ()
  in
  let stop = Unix.gettimeofday () +. budget in
  let n = ref 0 in
  while !n < Array.length reqs && (!n < min_count || Unix.gettimeofday () < stop) do
    let req = reqs.(!n) in
    let unit_id = req.Requests.id in
    let mine = replay_line tr st ~root ~unit_id req.Requests.line in
    let t0 = Unix.gettimeofday () in
    let theirs = Server.handle_line second req.Requests.line in
    handle := (Unix.gettimeofday () -. t0) :: !handle;
    if not (same_answer cfg ~replayed:mine ~served:theirs) then
      Report.fail tally
        (Printf.sprintf "replay differs from Server.handle_line:\n%s\n%s" mine theirs);
    incr n
  done;
  tally.Report.attempted <- tally.Report.attempted + !n;
  if st.violations > 0 then
    Report.fail_run tally
      (Printf.sprintf "replay: %d certification violations" st.violations);
  (st, !handle, Array.sub reqs 0 !n)

(* serve-race's oracle rows: bnb and cp each run standalone (through
   [Scheduler.find], at the request's lambda) on the replayed blocks,
   beside the portfolio's own time on the same block. *)
let oracle_section tally tr st ~budget replayed =
  let by_id = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace by_id r.Requests.id r) replayed;
  let stop = Unix.gettimeofday () +. budget in
  let ratios = ref [] in
  List.iteri
    (fun k (id, race_s) ->
      if k = 0 || Unix.gettimeofday () < stop then begin
        let req = Hashtbl.find by_id id in
        let dag =
          Dag.of_block (Canonical.of_block req.Requests.block).Canonical.block
        in
        let options =
          { Optimal.default_options with Optimal.lambda = Requests.race_lambda }
        in
        let solo name =
          let (module B : Scheduler.S) = Option.get (Scheduler.find name) in
          let t0 = Unix.gettimeofday () in
          let o =
            Trace.span tr (name ^ ".solve") ~unit_id:id (fun () ->
                B.schedule ~options req.Requests.machine dag)
          in
          (Unix.gettimeofday () -. t0, o)
        in
        let b, ob = solo "bnb" and c, oc = solo "cp" in
        (* every proof of this block must name the same optimum *)
        let proofs =
          List.filter_map Fun.id
            [ Option.map (fun _ -> ob.Scheduler.best.Omega.nops) ob.Scheduler.proved;
              Option.map (fun _ -> oc.Scheduler.best.Omega.nops) oc.Scheduler.proved;
              Hashtbl.find_opt st.proved id ]
        in
        if List.length (List.sort_uniq compare proofs) > 1 then
          Report.fail tally
            (Printf.sprintf "bnb, cp and the portfolio disagree on request %d" id);
        ratios := (race_s /. Float.min b c) :: !ratios
      end)
    (Trace.by_unit tr "portfolio.race");
  !ratios

(* Queue wait in an in-process Daemon driven at the open-loop rate, and
   the socket's share of the latency. *)
let daemon_section cfg tally ~warm ~probe ~probe_due ~socket_ms =
  let dues, submitted, finished, depth_max =
    in_process_daemon cfg ~warm:(texts warm) ~lines:(texts probe) ~due:probe_due
  in
  let sojourn_ms = ref [] and wait_us = ref [] in
  let prev_done = ref Float.neg_infinity in
  Array.iteri
    (fun i f ->
      if Float.is_nan f then Report.fail tally "in-process daemon: request unanswered"
      else begin
        sojourn_ms := ms_since dues.(i) f :: !sojourn_ms;
        (* one FIFO worker: request i starts when it arrives or when
           request i-1 is written, whichever is later *)
        let started = Float.max submitted.(i) !prev_done in
        wait_us := (1e6 *. (started -. submitted.(i))) :: !wait_us;
        prev_done := f
      end)
    finished;
  [ ("daemon.wait_us", "us", Stats.mean !wait_us);
    ("daemon.queue_depth_max", "count", float_of_int depth_max);
    ( "server_io.overhead_us", "us",
      1000.0 *. (Report.median socket_ms -. Report.median !sojourn_ms) ) ]

(* Socket latency on a fresh daemon: the warm pass or fill, then the
   first open-loop requests at their due times. *)
let socket_section cfg tally ~server ~out ls ~probe ~probe_due =
  let d = start ~server ~out cfg in
  let warm_run = pass d cfg ls.first_pass in
  let sock =
    Client.open_loop d.conns ~lines:(texts probe) ~due:probe_due
      ~first:probe.(0).Requests.id ~grace:cfg.grace
  in
  stop_daemon tally d;
  ignore
    (check_phases cfg tally
       ((match warm_run with
         | Some run ->
           [ (false, { reqs = ls.first_pass; run; sent = Array.length ls.first_pass }) ]
         | None -> [])
       @ [ (false, { reqs = probe; run = sock; sent = Array.length probe }) ]));
  let ms = ref [] in
  Array.iteri
    (fun i t ->
      if not (Float.is_nan t) then
        ms := ms_since (sock.Client.started +. probe_due.(i)) t :: !ms)
    sock.Client.done_at;
  !ms

(* The traced run.  serve-hot's also replays serve-race's request
   stream in-process (spans under the root "race.request"), so the
   write-side layers — portfolio, cp, certify, Lru puts and evictions —
   are measured on a workload that the benchmark gates. *)
let run_traced cfg ~server ~out ~seed ~seconds tally tr =
  let ls = lines cfg ~seed ~seconds in
  let n_probe =
    max 1 (min (Array.length ls.opened) (int_of_float (cfg.rate *. seconds *. 0.15)))
  in
  let probe = Array.sub ls.opened 0 n_probe
  and probe_due = Array.sub ls.due 0 n_probe in
  (* the in-process sections below run the program under test, so only
     the socket section runs under the client's GC setting *)
  let socket_ms =
    with_client_gc (fun () ->
        socket_section cfg tally ~server ~out ls ~probe ~probe_due)
  in
  (* the warm pass or fill is always replayed whole *)
  let replay cfg ~root ~budget (ls : lines) =
    let st, handle, replayed =
      replay_section cfg tally tr ~root ~min_count:(Array.length ls.first_pass)
        ~budget (Array.append ls.first_pass ls.closed)
    in
    let oracle =
      if cfg.certify then oracle_section tally tr st ~budget:(seconds *. 0.1) replayed
      else []
    in
    (st, handle, oracle)
  in
  let own, own_handle, own_oracle = replay cfg ~root:"request" ~budget:(seconds *. 0.25) ls in
  let daemon_metrics =
    daemon_section cfg tally ~warm:ls.first_pass ~probe ~probe_due ~socket_ms
  in
  let write_side, write_handle, oracle, write_root =
    if cfg.warm then begin
      let st, handle, oracle =
        replay race ~root:"race.request" ~budget:(seconds *. 0.2)
          (lines race ~seed ~seconds:(seconds *. 0.5))
      in
      (st, handle, oracle, "race.request")
    end
    else (own, own_handle, own_oracle, "request")
  in
  let ((ranked, wall, gap) as layers) = Trace.layers tr ~root:"request" in
  let w_ranked, w_wall, w_gap =
    if cfg.warm then Trace.layers tr ~root:write_root else ([], 0.0, 0.0)
  in
  let total_wall = wall +. w_wall in
  let coverage =
    if total_wall > 0.0 then (total_wall -. gap -. w_gap) /. total_wall else 0.0
  in
  let handle_s =
    List.fold_left ( +. ) 0.0 own_handle
    +. if cfg.warm then List.fold_left ( +. ) 0.0 write_handle else 0.0
  in
  let overhead = if handle_s > 0.0 then (total_wall /. handle_s) -. 1.0 else 0.0 in
  let us = Trace.mean_us ranked in
  let w_us = Trace.mean_us (if cfg.warm then w_ranked else ranked) in
  let solo_us name = 1e6 *. Stats.mean (List.map snd (Trace.by_unit tr name)) in
  let w = write_side in
  let layer_metrics =
    [ ("json.parse_us", "us", us "json.parse");
      ("json.render_us", "us", us "json.render");
      ("block.parse_us", "us", us "block.parse");
      ("machine.resolve_us", "us", us "machine.resolve");
      ("canonical.key_us", "us", us "canonical.key");
      ("canonical.apply_us", "us", us "canonical.apply");
      ("lru.find_us", "us", us "lru.find");
      ( "lru.hit_ratio", "fraction",
        Report.share (Lru.hits own.lru) (Lru.hits own.lru + Lru.misses own.lru) );
      ("server.handle_us", "us", 1e6 *. Stats.mean own_handle);
      ("dag.build_us", "us", us "dag.build");
      ("bnb.search_us", "us", us "bnb.search");
      ( "bnb.omega_calls", "count",
        float_of_int own.omega_calls /. float_of_int (max 1 own.searches) );
      ("bnb.proved_ratio", "fraction", Report.share own.searches_proved own.searches);
      (* the write side *)
      ("lru.put_us", "us", w_us "lru.put");
      ("lru.evictions", "fraction", Report.share (Lru.evictions w.lru) w.puts);
      ("portfolio.race_us", "us", w_us "portfolio.race");
      ("portfolio.presolved_share", "fraction", Report.share w.presolved w.races);
      ("portfolio.wins_bnb", "fraction", Report.share w.wins_bnb w.races);
      ("portfolio.wins_cp", "fraction", Report.share w.wins_cp w.races);
      ("portfolio.neither", "fraction", Report.share w.neither w.races);
      ("cp.solve_us", "us", solo_us "cp.solve");
      ("bnb.solve_us", "us", solo_us "bnb.solve");
      ("portfolio.oracle_ratio", "ratio", Report.median oracle);
      ("certify.check_us", "us", w_us "certify.check");
      ("certify.violations", "count", float_of_int w.violations);
      ("trace.coverage", "fraction", coverage);
      ("trace.overhead", "fraction", overhead) ]
    @ daemon_metrics
  in
  let write_profile =
    if cfg.warm then [ ("write_side", (w_ranked, w_wall, w_gap)) ] else []
  in
  (layer_metrics, layers, write_profile, coverage, overhead)
