(* Tests for Pipesched_serve.Server: protocol shapes, cache parity
   (cached responses byte-identical to fresh solves), and concurrent
   mixed-duplicate traffic. *)

open Pipesched_ir
module Rng = Pipesched_prelude.Rng
module Json = Pipesched_prelude.Json
module Fault = Pipesched_prelude.Fault
module Machine = Pipesched_machine.Machine
module Omega = Pipesched_machine.Omega
module Server = Pipesched_serve.Server
open Helpers

(* One request line for [blk] (the test traffic is JSON text, exactly
   what the daemon reads). *)
let request_line ?deadline_ms id blk =
  let fields =
    [ ("id", Json.Int id);
      ("machine", Json.String "simulation");
      ("block", Json.String (Block.to_string blk)) ]
    @
    match deadline_ms with
    | Some ms -> [ ("deadline_ms", Json.Float ms) ]
    | None -> []
  in
  Json.to_string (Json.Assoc fields)

(* Strip the echoed id so responses to different requests for the same
   block compare equal. *)
let strip_id line =
  match Json.parse line with
  | Ok (Json.Assoc fields) ->
    Json.to_string (Json.Assoc (List.remove_assoc "id" fields))
  | Ok v -> Json.to_string v
  | Error msg -> Alcotest.failf "unparsable response %S: %s" line msg

let test_protocol_basics () =
  let t = Server.create () in
  let ok line =
    match Json.parse (Server.handle_line t line) with
    | Ok resp -> (
      match Json.member "ok" resp with
      | Some (Json.Bool b) -> b
      | _ -> Alcotest.fail "response without ok field")
    | Error msg -> Alcotest.failf "bad response: %s" msg
  in
  check bool_t "malformed json" false (ok "{nope");
  check bool_t "missing machine" false (ok "{\"block\": \"1: Load #a\"}");
  check bool_t "unknown preset" false
    (ok "{\"machine\": \"nope\", \"block\": \"1: Load #a\"}");
  check bool_t "bad block" false
    (ok "{\"machine\": \"simulation\", \"block\": \"what\"}");
  check bool_t "empty block" false
    (ok "{\"machine\": \"simulation\", \"block\": \"\"}");
  check bool_t "schedules" true
    (ok "{\"machine\": \"simulation\", \"block\": \"1: Load #a\"}");
  check bool_t "stats op" true (ok "{\"op\": \"stats\"}");
  check bool_t "ping op" true (ok "{\"op\": \"ping\"}");
  check bool_t "unknown op" false (ok "{\"op\": \"nope\"}");
  (* Inline textual machine descriptions work too. *)
  check bool_t "inline machine" true
    (ok
       "{\"machine\": {\"text\": \"machine m\\npipe loader 2 1\\nops Load \
        -> 0\"}, \"block\": \"1: Load #a\"}")

(* The response to a request must not depend on whether it was answered
   by the cache: replay mixed duplicate traffic against a caching server
   and an uncached one, and require byte equality line by line. *)
let test_cache_parity () =
  let rng = Rng.create 0xbeef in
  let blocks = List.init 8 (fun _ -> random_block rng (4 + Rng.int rng 8)) in
  let traffic =
    List.concat_map
      (fun blk ->
        blk
        :: List.init 3 (fun _ ->
               random_relabel rng (random_topo_reorder rng blk)))
      blocks
  in
  let cached = Server.create ~cache_capacity:256 () in
  let uncached = Server.create ~cache_capacity:0 () in
  List.iteri
    (fun i blk ->
      let line = request_line i blk in
      let a = Server.handle_line cached line in
      let b = Server.handle_line uncached line in
      check bool_t (Printf.sprintf "request %d byte-identical" i) true
        (String.equal a b))
    traffic;
  (* Each block's three re-presentations hit; its first one misses. *)
  check int_t "cache hits" 24 (Server.cache_hits cached);
  check int_t "cache misses" 8 (Server.cache_misses cached);
  check bool_t "uncached never hit" true (Server.cache_hits uncached = 0);
  check int_t "one entry per unique block" (List.length blocks)
    (Server.cache_length cached)

(* Isomorphic presentations of one block must get responses that agree
   after the per-presentation order remap: same nops, same eta/issue,
   and a legal order for their own block. *)
let test_iso_responses_consistent () =
  let rng = Rng.create 0xfeed in
  let t = Server.create () in
  for i = 1 to 12 do
    let blk = random_block rng (4 + Rng.int rng 8) in
    let variant = random_relabel rng (random_topo_reorder rng blk) in
    let get blk =
      match Json.parse (Server.handle_line t (request_line i blk)) with
      | Ok resp ->
        let field name =
          match Json.member name resp with
          | Some (Json.List xs) ->
            List.map (fun j -> Option.get (Json.to_int_opt j)) xs
          | _ -> Alcotest.failf "response missing %s" name
        in
        let nops =
          match Json.member "nops" resp with
          | Some (Json.Int n) -> n
          | _ -> Alcotest.fail "response missing nops"
        in
        (nops, field "order", field "eta", field "issue")
      | Error msg -> Alcotest.failf "bad response: %s" msg
    in
    let nops, order, eta, issue = get blk in
    let nops', order', eta', issue' = get variant in
    check int_t "same nops" nops nops';
    check bool_t "same stall shape" true (eta = eta' && issue = issue');
    check bool_t "legal for original" true
      (Dag.is_legal_order (Dag.of_block blk) (Array.of_list order));
    check bool_t "legal for variant" true
      (Dag.is_legal_order (Dag.of_block variant) (Array.of_list order'))
  done

(* Hammer one caching server from several domains with mixed duplicate
   traffic; every response must equal the serially computed uncached
   response for its line. *)
let test_concurrent_parity () =
  let rng = Rng.create 0xcafe in
  let blocks = List.init 6 (fun _ -> random_block rng (4 + Rng.int rng 6)) in
  let traffic =
    List.concat_map
      (fun blk ->
        blk
        :: List.init 7 (fun _ ->
               random_relabel rng (random_topo_reorder rng blk)))
      blocks
    |> List.mapi (fun i blk -> request_line i blk)
    |> Array.of_list
  in
  (* Shuffle so duplicates interleave across domains. *)
  Rng.shuffle rng traffic;
  let expected =
    let uncached = Server.create ~cache_capacity:0 () in
    Array.map (fun line -> strip_id (Server.handle_line uncached line)) traffic
  in
  let t = Server.create ~cache_capacity:256 () in
  let njobs = 4 in
  let results = Array.make (Array.length traffic) "" in
  let next = Atomic.make 0 in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length traffic then begin
        results.(i) <- Server.handle_line t traffic.(i);
        go ()
      end
    in
    go ()
  in
  let domains = List.init njobs (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Array.iteri
    (fun i got ->
      check bool_t
        (Printf.sprintf "concurrent response %d matches fresh solve" i)
        true
        (String.equal (strip_id got) expected.(i)))
    results;
  check bool_t "hits under concurrency" true (Server.cache_hits t > 0);
  check bool_t "misses bounded by uniques + races" true
    (Server.cache_misses t >= List.length blocks)

(* The "cached" response field is opt-in: a request carrying
   "detail": true learns whether it was answered from the cache, while
   default requests stay byte-identical whether cached or not (the
   parity tests above depend on that). *)
let test_detail_cached_field () =
  let t = Server.create ~cache_capacity:256 () in
  let blk =
    let rng = Rng.create 0x5eed in
    random_block rng 6
  in
  let line ~detail id =
    let fields =
      [ ("id", Json.Int id);
        ("machine", Json.String "simulation");
        ("block", Json.String (Block.to_string blk)) ]
      @ if detail then [ ("detail", Json.Bool true) ] else []
    in
    Json.to_string (Json.Assoc fields)
  in
  let cached_of resp =
    match Json.parse resp with
    | Error msg -> Alcotest.failf "bad response: %s" msg
    | Ok r -> Json.member "cached" r
  in
  check bool_t "fresh solve reports cached:false" true
    (cached_of (Server.handle_line t (line ~detail:true 0))
    = Some (Json.Bool false));
  check bool_t "replay reports cached:true" true
    (cached_of (Server.handle_line t (line ~detail:true 1))
    = Some (Json.Bool true));
  check bool_t "default request has no cached field" true
    (cached_of (Server.handle_line t (line ~detail:false 2)) = None)

(* A curtailed solve (deadline ~ 0) is served but never cached. *)
let test_curtailed_not_cached () =
  let rng = Rng.create 0xd00d in
  let blk = random_block rng 16 in
  let t = Server.create () in
  let resp =
    Server.handle_line t (request_line ~deadline_ms:0.000001 0 blk)
  in
  match Json.parse resp with
  | Error msg -> Alcotest.failf "bad response: %s" msg
  | Ok r ->
    check bool_t "served ok" true (Json.member "ok" r = Some (Json.Bool true));
    (match Json.member "completed" r with
    | Some (Json.Bool false) ->
      check int_t "not inserted" 0 (Server.cache_length t)
    | _ ->
      (* The search beat even that deadline: it may cache.  Nothing to
         assert beyond the response being well-formed. *)
      ())

(* ------------------------------------------------------------------ *)
(* Fault containment and graceful degradation.                         *)

let parse_resp resp =
  match Json.parse resp with
  | Ok r -> r
  | Error msg -> Alcotest.failf "unparsable response %S: %s" resp msg

let int_list name resp =
  match Json.member name resp with
  | Some (Json.List xs) ->
    Array.of_list (List.map (fun j -> Option.get (Json.to_int_opt j)) xs)
  | _ -> Alcotest.failf "response missing %s" name

(* With the solver fault always firing, a plain server contains the
   raise into this request's error response and lives on; a degrading
   server answers with the list scheduler instead — a legal order whose
   stall shape agrees with an independent Omega replay, explicitly
   marked so nobody mistakes it for an optimal schedule. *)
let test_solver_fault_contained_and_degraded () =
  Fault.arm [ (Fault.Solver, 1.0, 3) ];
  Fun.protect ~finally:Fault.disarm (fun () ->
      let rng = Rng.create 0xfa17 in
      let blk = random_block rng 6 in
      let t = Server.create () in
      let r = parse_resp (Server.handle_line t (request_line 0 blk)) in
      check bool_t "plain server refuses" true
        (Json.member "ok" r = Some (Json.Bool false));
      (match Json.member "error" r with
      | Some (Json.String e) ->
        check bool_t "says internal error" true
          (String.length e >= 14 && String.sub e 0 14 = "internal error")
      | _ -> Alcotest.fail "no error field");
      check int_t "containment counted" 1 (Server.contained t);
      check bool_t "server still serves" true
        (Json.member "ok" (parse_resp (Server.handle_line t "{\"op\": \"ping\"}"))
        = Some (Json.Bool true));
      let td = Server.create ~degrade:true () in
      let r = parse_resp (Server.handle_line td (request_line 1 blk)) in
      check bool_t "degrading server answers ok" true
        (Json.member "ok" r = Some (Json.Bool true));
      check bool_t "marked degraded" true
        (Json.member "degraded" r = Some (Json.Bool true));
      check bool_t "status Degraded" true
        (Json.member "status" r = Some (Json.String "Degraded"));
      check bool_t "no optimality claim" true
        (Json.member "completed" r = Some (Json.Bool false));
      let order = int_list "order" r in
      let dag = Dag.of_block blk in
      check bool_t "degraded order legal" true (Dag.is_legal_order dag order);
      let machine = Option.get (Machine.Presets.find "simulation") in
      let replay = Omega.evaluate machine dag ~order in
      check bool_t "nops matches independent replay" true
        (Json.member "nops" r = Some (Json.Int replay.Omega.nops));
      check int_t "degraded counted" 1 (Server.degraded_served td);
      check int_t "containment counted too" 1 (Server.contained td))

(* A failing cache insert costs nothing but the caching: the request is
   still answered (byte-identically to an uncached solve), the failure
   is contained and counted, and the cache simply stays empty. *)
let test_cache_insert_fault_contained () =
  Fault.arm [ (Fault.Cache_insert, 1.0, 5) ];
  Fun.protect ~finally:Fault.disarm (fun () ->
      let rng = Rng.create 0xca5e in
      let blk = random_block rng 5 in
      let t = Server.create ~cache_capacity:256 () in
      let a = Server.handle_line t (request_line 0 blk) in
      check bool_t "answered ok" true
        (Json.member "ok" (parse_resp a) = Some (Json.Bool true));
      check int_t "nothing cached" 0 (Server.cache_length t);
      check bool_t "insert failure contained" true (Server.contained t >= 1);
      Fault.disarm ();
      let b = Server.handle_line t (request_line 0 blk) in
      check bool_t "same answer without the fault" true (String.equal a b))

(* ------------------------------------------------------------------ *)
(* Daemon: the queue/drain/listener state machine behind the binary.   *)

module Daemon = Pipesched_serve.Daemon

(* Feed [lines] to a [reader_loop] through a real pipe, collecting
   everything it writes back. *)
let feed_lines st lines =
  let r, w = Unix.pipe ~cloexec:true () in
  let oc = Unix.out_channel_of_descr w in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  let ic = Unix.in_channel_of_descr r in
  let written = ref [] in
  Daemon.reader_loop st ic (fun resp -> written := resp :: !written);
  close_in ic;
  List.rev !written

(* Requests arriving after shutdown must get an explicit refusal, not
   silence: the old daemon [ignore]d the failed submit and kept
   reading, leaving clients waiting forever. *)
let test_drain_refusal_answered () =
  let st = Daemon.create (Server.create ()) in
  Daemon.begin_shutdown st;
  check bool_t "draining" true (Daemon.draining st);
  let responses = feed_lines st [ "{\"op\": \"ping\"}"; "{\"op\": \"ping\"}" ] in
  (* One refusal, then the reader stops — it must not keep consuming a
     stream nobody will answer. *)
  check int_t "exactly one response" 1 (List.length responses);
  (match Json.parse (List.hd responses) with
  | Error msg -> Alcotest.failf "unparsable refusal: %s" msg
  | Ok r ->
    check bool_t "ok:false" true (Json.member "ok" r = Some (Json.Bool false));
    check bool_t "says shutting down" true
      (Json.member "error" r = Some (Json.String "shutting down")));
  check int_t "nothing served" 0 (Daemon.served st)

(* Work accepted before the shutdown still drains to completion. *)
let test_drain_completes_accepted_work () =
  let st = Daemon.create (Server.create ()) in
  let written = ref [] in
  let done_count = ref 0 in
  let admission =
    Daemon.submit st ~line:"{\"id\": 7, \"op\": \"ping\"}"
      ~write:(fun resp -> written := resp :: !written)
      ~on_done:(fun () -> incr done_count)
  in
  check bool_t "accepted before shutdown" true (admission = Daemon.Accepted);
  Daemon.begin_shutdown st;
  (* A worker started after shutdown must still drain the queue. *)
  Daemon.worker st 0;
  check int_t "queued job answered" 1 (List.length !written);
  (match Json.parse (List.hd !written) with
  | Error msg -> Alcotest.failf "unparsable response: %s" msg
  | Ok r ->
    check bool_t "answered ok" true
      (Json.member "ok" r = Some (Json.Bool true)));
  check int_t "served counts it" 1 (Daemon.served st);
  check int_t "on_done ran once" 1 !done_count

(* Admission control: with the queue bounded, overflow is answered
   immediately with an explicit "overloaded" refusal carrying a
   non-negative retry hint — never queued without bound, never silently
   dropped. *)
let test_admission_queue_bound () =
  let st = Daemon.create ~max_queue:2 (Server.create ()) in
  let written = ref [] in
  let write r = written := r :: !written in
  let sub id =
    Daemon.submit st
      ~line:(Printf.sprintf "{\"id\": %d, \"op\": \"ping\"}" id)
      ~write ~on_done:ignore
  in
  check bool_t "first queued" true (sub 1 = Daemon.Accepted);
  check bool_t "second queued" true (sub 2 = Daemon.Accepted);
  check bool_t "third shed" true (sub 3 = Daemon.Answered);
  check int_t "shed counted" 1 (Daemon.shed st);
  check int_t "refusal written inline" 1 (List.length !written);
  (match Json.parse (List.hd !written) with
  | Error msg -> Alcotest.failf "unparsable refusal: %s" msg
  | Ok r ->
    check bool_t "id echoed" true (Json.member "id" r = Some (Json.Int 3));
    check bool_t "says overloaded" true
      (Json.member "error" r = Some (Json.String "overloaded"));
    match Json.member "retry_after_ms" r with
    | Some (Json.Int ms) -> check bool_t "retry hint >= 0" true (ms >= 0)
    | _ -> Alcotest.fail "no retry_after_ms");
  check int_t "accepted work still queued" 2 (Daemon.queue_depth st)

(* A request whose own deadline is provably unmeetable at the current
   depth is refused up front (once the service-time estimate is
   primed); the same request without a deadline is admitted. *)
let test_admission_deadline_unmeetable () =
  let st = Daemon.create (Server.create ()) in
  let sub line = Daemon.submit st ~line ~write:ignore ~on_done:ignore in
  (* Prime: ~1 s per job, one job already queued, no workers running. *)
  check bool_t "first queued" true
    (sub "{\"id\": 1, \"op\": \"ping\"}" = Daemon.Accepted);
  Daemon.observe_service_ms st 1000.0;
  check bool_t "1 ms deadline shed" true
    (sub "{\"id\": 2, \"op\": \"ping\", \"deadline_ms\": 1}" = Daemon.Answered);
  check bool_t "no deadline admitted" true
    (sub "{\"id\": 3, \"op\": \"ping\"}" = Daemon.Accepted);
  check bool_t "generous deadline admitted" true
    (sub "{\"id\": 4, \"op\": \"ping\", \"deadline_ms\": 60000}"
    = Daemon.Accepted);
  check int_t "one shed" 1 (Daemon.shed st)

(* Degrade mode under a burst: with the queue bounded at 8, a burst of
   64 distinct generator blocks submitted before any worker runs queues
   the first 8 and answers the other 56 inline with the certified list
   scheduler, instead of refusing or dropping them.  Every request gets
   exactly one answer, none is an error, and each degraded order is
   exactly the Max_distance list schedule of its block: no search ran
   for it, which is what makes shedding cheap.  A ping and a stats line
   shed with them get their usual answers.  No clock is read, so the
   verdict does not depend on the host's speed. *)
let test_degrade_on_shed () =
  let module Generator = Pipesched_synth.Generator in
  let module List_sched = Pipesched_sched.List_sched in
  let module Certify = Pipesched_verify.Certify in
  let burst = 64 and max_queue = 8 in
  let blocks =
    let keys = Hashtbl.create burst in
    let rec draw seed acc n =
      if n = burst then Array.of_list (List.rev acc)
      else
        let blk = Generator.of_seed seed in
        let key = (Canonical.of_block blk).Canonical.key in
        if Hashtbl.mem keys key then draw (seed + 1) acc n
        else begin
          Hashtbl.add keys key ();
          draw (seed + 1) (blk :: acc) (n + 1)
        end
    in
    draw 0xde6e [] 0
  in
  let server = Server.create ~degrade:true () in
  let st = Daemon.create ~max_queue server in
  let answers = Array.make burst [] in
  let write resp =
    let r = parse_resp resp in
    match Json.member "id" r with
    | Some (Json.Int id) when id >= 0 && id < burst ->
      answers.(id) <- r :: answers.(id)
    | _ -> Alcotest.failf "answer without a burst id: %s" resp
  in
  let accepted = ref 0 in
  Array.iteri
    (fun i blk ->
      match Daemon.submit st ~line:(request_line i blk) ~write ~on_done:ignore with
      | Daemon.Accepted -> incr accepted
      | Daemon.Answered -> ()
      | Daemon.Draining -> Alcotest.fail "refused before shutdown")
    blocks;
  check int_t "queued up to the bound" max_queue !accepted;
  (* The queue is still full, so a ping and a stats line are shed too.
     They run no search, so they are answered as usual, not degraded. *)
  let op_answers = ref [] in
  List.iter
    (fun line ->
      match
        Daemon.submit st ~line
          ~write:(fun r -> op_answers := parse_resp r :: !op_answers)
          ~on_done:ignore
      with
      | Daemon.Answered -> ()
      | Daemon.Accepted | Daemon.Draining -> Alcotest.failf "not shed: %s" line)
    [ "{\"id\": \"p\", \"op\": \"ping\"}";
      "{\"id\": \"s\", \"op\": \"stats\"}" ];
  (match List.rev !op_answers with
  | [ ping; stats ] ->
    check bool_t "shed ping ok" true
      (Json.member "ok" ping = Some (Json.Bool true));
    check bool_t "shed stats ok" true
      (Json.member "ok" stats = Some (Json.Bool true));
    check bool_t "shed stats carries hits" true
      (match Json.member "hits" stats with Some (Json.Int _) -> true | _ -> false)
  | rs -> Alcotest.failf "%d answers to the shed ops" (List.length rs));
  Daemon.begin_shutdown st;
  Daemon.worker st 0;
  let optimal = ref 0 and degraded = ref 0 in
  Array.iteri
    (fun i rs ->
      match rs with
      | [ r ] ->
        if Json.member "ok" r <> Some (Json.Bool true) then
          Alcotest.failf "request %d answered with an error: %s" i
            (Json.to_string r);
        if Json.member "degraded" r = Some (Json.Bool true) then begin
          incr degraded;
          let blk = blocks.(i) in
          let order = int_list "order" r in
          check bool_t
            (Printf.sprintf "request %d: degraded order is the list schedule" i)
            true
            (order = List_sched.schedule List_sched.Max_distance (Dag.of_block blk));
          let result =
            { Omega.order;
              eta = int_list "eta" r;
              issue = int_list "issue" r;
              pipes = int_list "pipes" r;
              nops =
                (match Json.member "nops" r with
                 | Some (Json.Int n) -> n
                 | _ -> Alcotest.failf "request %d: no nops" i) }
          in
          let violations = Certify.check machine blk result in
          if not (Certify.certified violations) then
            Alcotest.failf "request %d: degraded answer: %s" i
              (Certify.explain_all violations)
        end
        else incr optimal
      | rs ->
        Alcotest.failf "request %d got %d answers" i (List.length rs))
    answers;
  check int_t "answered by the search" max_queue !optimal;
  check int_t "answered degraded" (burst - max_queue) !degraded;
  check int_t "shed counted" (burst - max_queue + 2) (Daemon.shed st);
  check int_t "degraded counted" (burst - max_queue)
    (Server.degraded_served server);
  check int_t "served by the worker" max_queue (Daemon.served st)

(* A response write that fails with an expected I/O error (the client
   vanished) is contained: the worker survives and answers the next
   job. *)
let test_write_failure_contained () =
  let st = Daemon.create (Server.create ()) in
  ignore
    (Daemon.submit st ~line:"{\"id\": 1, \"op\": \"ping\"}"
       ~write:(fun _ -> raise (Sys_error "broken pipe"))
       ~on_done:ignore);
  let answered = ref [] in
  ignore
    (Daemon.submit st ~line:"{\"id\": 2, \"op\": \"ping\"}"
       ~write:(fun r -> answered := r :: !answered)
       ~on_done:ignore);
  Daemon.begin_shutdown st;
  (* Must not raise: the Sys_error is contained inside the worker. *)
  Daemon.worker st 0;
  check int_t "write failure contained" 1 (Daemon.write_contained st);
  check int_t "next job still answered" 1 (List.length !answered);
  check int_t "both served" 2 (Daemon.served st)

(* The same containment against a real EPIPE: the reader half of the
   pipe is gone before the worker writes the response (a client that
   disconnected mid-burst).  With SIGPIPE ignored the write raises
   instead of killing the process, and the worker contains it. *)
let test_epipe_disconnect_contained () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let st = Daemon.create (Server.create ()) in
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.close r;
  let oc = Unix.out_channel_of_descr w in
  let write resp =
    output_string oc resp;
    output_char oc '\n';
    flush oc
  in
  ignore
    (Daemon.submit st ~line:"{\"id\": 1, \"op\": \"ping\"}" ~write
       ~on_done:ignore);
  Daemon.begin_shutdown st;
  Daemon.worker st 0;
  check int_t "EPIPE contained" 1 (Daemon.write_contained st);
  check int_t "served despite dead client" 1 (Daemon.served st);
  (try close_out oc with Sys_error _ -> ())

(* Supervision: an unexpected exception (not an I/O failure) kills the
   worker domain, and the supervisor respawns it — queued work behind
   the poisoned job still gets answered. *)
let test_supervisor_respawns_dead_worker () =
  let st = Daemon.create (Server.create ()) in
  ignore
    (Daemon.submit st ~line:"{\"id\": 1, \"op\": \"ping\"}"
       ~write:(fun _ -> failwith "boom")
       ~on_done:ignore);
  let answered = ref [] in
  ignore
    (Daemon.submit st ~line:"{\"id\": 2, \"op\": \"ping\"}"
       ~write:(fun r -> answered := r :: !answered)
       ~on_done:ignore);
  Daemon.begin_shutdown st;
  Daemon.supervise st ~jobs:1;
  check bool_t "worker was respawned" true (Daemon.respawns st >= 1);
  check int_t "job behind the poison answered" 1 (List.length !answered)

(* The close-vs-write race: a request line with no trailing newline
   followed by EOF (exactly what a client that writes-then-shutdowns
   produces) must be answered before reader_loop returns, because the
   caller closes the fd right after.  The deliberately slow writer
   makes the old race a deterministic failure. *)
let test_reader_waits_for_pending () =
  let st = Daemon.create (Server.create ()) in
  let r, w = Unix.pipe ~cloexec:true () in
  let oc = Unix.out_channel_of_descr w in
  output_string oc "{\"id\": 1, \"op\": \"ping\"}\n{\"id\": 2, \"op\": \"ping\"}";
  close_out oc;
  let responses = ref [] in
  let lock = Mutex.create () in
  let worker = Domain.spawn (fun () -> Daemon.worker st 0) in
  let ic = Unix.in_channel_of_descr r in
  Daemon.reader_loop st ic (fun resp ->
      Thread.delay 0.05;
      Mutex.lock lock;
      responses := resp :: !responses;
      Mutex.unlock lock);
  (* reader_loop returned: both responses (including the unterminated
     tail's) must already be written. *)
  Mutex.lock lock;
  let n = List.length !responses in
  Mutex.unlock lock;
  check int_t "all answered before reader_loop returns" 2 n;
  Daemon.begin_shutdown st;
  Domain.join worker;
  close_in ic

(* Counter coherence under concurrent intake and workers: pound the
   daemon from four intake threads against two supervised workers with
   a tight queue bound; afterwards every request is accounted exactly
   once (served + shed = submitted), every refusal carried a
   non-negative retry hint, and on_done ran once per accepted job. *)
let test_stats_coherence_stress () =
  let server = Server.create () in
  let st = Daemon.create ~max_queue:4 server in
  let intakes = 4 and per_intake = 100 in
  let accepted = Atomic.make 0 in
  let inline = Atomic.make 0 in
  let dones = Atomic.make 0 in
  let bad_retry = Atomic.make 0 in
  let supervisor = Thread.create (fun () -> Daemon.supervise st ~jobs:2) () in
  let intake k =
    Thread.create
      (fun () ->
        for i = 0 to per_intake - 1 do
          let line =
            Printf.sprintf "{\"id\": %d, \"op\": \"ping\"}"
              ((k * per_intake) + i)
          in
          let write resp =
            match Json.parse resp with
            | Ok r
              when Json.member "error" r = Some (Json.String "overloaded") -> (
              match Json.member "retry_after_ms" r with
              | Some (Json.Int ms) when ms >= 0 -> ()
              | _ -> Atomic.incr bad_retry)
            | _ -> ()
          in
          match
            Daemon.submit st ~line ~write ~on_done:(fun () ->
                Atomic.incr dones)
          with
          | Daemon.Accepted -> Atomic.incr accepted
          | Daemon.Answered -> Atomic.incr inline
          | Daemon.Draining -> ()
        done)
      ()
  in
  let threads = List.init intakes intake in
  List.iter Thread.join threads;
  Daemon.begin_shutdown st;
  Thread.join supervisor;
  check int_t "every request accounted once" (intakes * per_intake)
    (Atomic.get accepted + Atomic.get inline);
  check int_t "served = accepted" (Atomic.get accepted) (Daemon.served st);
  check int_t "shed = answered inline" (Atomic.get inline) (Daemon.shed st);
  check int_t "on_done once per accepted job" (Atomic.get accepted)
    (Atomic.get dones);
  check int_t "every retry hint non-negative" 0 (Atomic.get bad_retry);
  check int_t "no respawns from healthy traffic" 0 (Daemon.respawns st);
  check int_t "queue fully drained" 0 (Daemon.queue_depth st)

let fd_closed fd =
  match Unix.fstat fd with
  | _ -> false
  | exception Unix.Unix_error (EBADF, _, _) -> true

(* The startup/shutdown race: a listener published after shutdown has
   begun must be refused and closed, and one published before must be
   closed by the shutdown.  (The old daemon wrote the fd without the
   queue mutex, so a shutdown could miss it and park the acceptor in
   accept(2) forever.) *)
let test_listener_install_race () =
  let socket () = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  (* Install before shutdown: accepted, then closed by the shutdown. *)
  let st = Daemon.create (Server.create ()) in
  let fd = socket () in
  check bool_t "install on live daemon" true (Daemon.install_listener st fd);
  check bool_t "fd stays open" false (fd_closed fd);
  Daemon.begin_shutdown st;
  check bool_t "shutdown closes listener" true (fd_closed fd);
  (* Install after shutdown: refused and closed immediately. *)
  let st = Daemon.create (Server.create ()) in
  Daemon.begin_shutdown st;
  let fd = socket () in
  check bool_t "install refused while draining" false
    (Daemon.install_listener st fd);
  check bool_t "refused fd closed" true (fd_closed fd)

let () =
  Alcotest.run "server"
    [ ( "server",
        [ Alcotest.test_case "protocol basics" `Quick test_protocol_basics;
          Alcotest.test_case "cache parity" `Quick test_cache_parity;
          Alcotest.test_case "iso responses consistent" `Quick
            test_iso_responses_consistent;
          Alcotest.test_case "concurrent parity" `Quick
            test_concurrent_parity;
          Alcotest.test_case "detail cached field" `Quick
            test_detail_cached_field;
          Alcotest.test_case "curtailed not cached" `Quick
            test_curtailed_not_cached;
          Alcotest.test_case "solver fault contained and degraded" `Quick
            test_solver_fault_contained_and_degraded;
          Alcotest.test_case "cache insert fault contained" `Quick
            test_cache_insert_fault_contained ] );
      ( "daemon",
        [ Alcotest.test_case "drain refusal answered" `Quick
            test_drain_refusal_answered;
          Alcotest.test_case "drain completes accepted work" `Quick
            test_drain_completes_accepted_work;
          Alcotest.test_case "listener install race" `Quick
            test_listener_install_race;
          Alcotest.test_case "admission queue bound" `Quick
            test_admission_queue_bound;
          Alcotest.test_case "admission deadline unmeetable" `Quick
            test_admission_deadline_unmeetable;
          Alcotest.test_case "degrade on shed" `Quick test_degrade_on_shed;
          Alcotest.test_case "write failure contained" `Quick
            test_write_failure_contained;
          Alcotest.test_case "EPIPE disconnect contained" `Quick
            test_epipe_disconnect_contained;
          Alcotest.test_case "supervisor respawns dead worker" `Quick
            test_supervisor_respawns_dead_worker;
          Alcotest.test_case "reader waits for pending" `Quick
            test_reader_waits_for_pending;
          Alcotest.test_case "stats coherence stress" `Quick
            test_stats_coherence_stress ] ) ]
