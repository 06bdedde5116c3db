open Pipesched_ir
open Pipesched_machine
module Json = Pipesched_prelude.Json
module Lru = Pipesched_prelude.Lru
module Budget = Pipesched_prelude.Budget
module Fault = Pipesched_prelude.Fault
module List_sched = Pipesched_sched.List_sched
module Optimal = Pipesched_core.Optimal
module Scheduler = Pipesched_core.Scheduler
module Certify = Pipesched_verify.Certify

(* Cached value: the solution of the *canonical* block.  Only Complete
   solves are stored, so completed/status need not be remembered — a hit
   renders exactly what the fresh Complete solve rendered. *)
type t = {
  cache : Omega.result Lru.t;
  certify : bool;
  degrade : bool;
  lambda : int;
  deadline_ms : float option;
  backend : string; (* default Scheduler registry name for solves *)
  contained : int Atomic.t;
      (* exceptions (real or injected) confined to one request *)
  degraded : int Atomic.t; (* requests answered by the list scheduler *)
  mutable extra_stats : unit -> (string * Json.t) list;
      (* extra fields for the stats op, installed by the daemon (queue
         depth, shed count, ...) so [stats] shows the whole service *)
}

let create ?(cache_capacity = 4096) ?(certify = false) ?(degrade = false)
    ?lambda ?deadline_ms ?(backend = "bnb") () =
  let lambda =
    match lambda with
    | Some l -> l
    | None -> Optimal.default_options.Optimal.lambda
  in
  if Scheduler.find backend = None then
    invalid_arg
      (Printf.sprintf "Server.create: unknown backend %S (have: %s)" backend
         (String.concat ", " Scheduler.names));
  {
    cache = Lru.create ~capacity:cache_capacity;
    certify;
    degrade;
    lambda;
    deadline_ms;
    backend;
    contained = Atomic.make 0;
    degraded = Atomic.make 0;
    extra_stats = (fun () -> []);
  }

let cache_hits t = Lru.hits t.cache
let cache_misses t = Lru.misses t.cache
let cache_evictions t = Lru.evictions t.cache
let cache_length t = Lru.length t.cache
let contained t = Atomic.get t.contained
let degraded_served t = Atomic.get t.degraded
let degrade t = t.degrade
let set_extra_stats t f = t.extra_stats <- f

(* ------------------------------------------------------------------ *)
(* Request plumbing                                                    *)

let error_response id msg =
  Json.Assoc [ ("id", id); ("ok", Json.Bool false); ("error", Json.String msg) ]

let int_array a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

(* [cached] is [Some _] only when the request opted in with
   ["detail": true]: the extra field would otherwise break the
   byte-identity of cached and fresh responses, which the parity tests
   and perfbench's hot-answer check assert.  [degraded] marks answers produced by the list
   scheduler instead of the optimal search — always explicit, so a
   client can never mistake a degraded schedule for an optimal one. *)
let render id ~order (r : Omega.result) ~completed ~status ~degraded ~cached =
  Json.Assoc
    ([ ("id", id);
       ("ok", Json.Bool true);
       ("nops", Json.Int r.Omega.nops);
       ("completed", Json.Bool completed);
       ("status", Json.String status);
       ("order", int_array order);
       ("eta", int_array r.Omega.eta);
       ("issue", int_array r.Omega.issue);
       ("pipes", int_array r.Omega.pipes) ]
    @ (if degraded then [ ("degraded", Json.Bool true) ] else [])
    @ match cached with
      | None -> []
      | Some b -> [ ("cached", Json.Bool b) ])

let resolve_machine json =
  let of_text text =
    match Machine.parse text with
    | Ok m -> Ok m
    | Error (line, msg) ->
      Error (Printf.sprintf "machine description, line %d: %s" line msg)
  in
  match json with
  | None -> Error "missing \"machine\" field"
  | Some (Json.String s) -> (
    match Machine.Presets.find s with
    | Some m -> Ok m
    | None ->
      if String.contains s '\n' then of_text s
      else
        Error
          (Printf.sprintf "unknown machine preset %S (presets: %s)" s
             (String.concat ", " (List.map fst Machine.Presets.all))))
  | Some json -> (
    match Json.member "text" json with
    | Some (Json.String text) -> of_text text
    | _ -> Error "\"machine\" must be a preset name or {\"text\": ...}")

let resolve_block json =
  match json with
  | None -> Error "missing \"block\" field"
  | Some (Json.String text) -> (
    match Block.parse text with
    | Ok blk when Block.length blk > 0 -> Ok blk
    | Ok _ -> Error "empty block"
    | Error (line, msg) -> Error (Printf.sprintf "block, line %d: %s" line msg))
  | Some _ -> Error "\"block\" must be a string"

(* A scheduling request's machine and block, validated: the one
   resolution both the search and the degraded path answer from. *)
let resolve_request req =
  match resolve_machine (Json.member "machine" req) with
  | Error msg -> Error msg
  | Ok machine -> (
    match Machine.validate machine with
    | _ :: _ as diags ->
      Error
        ("invalid machine: "
        ^ String.concat "; " (List.map Machine.diagnostic_to_string diags))
    | [] -> (
      match resolve_block (Json.member "block" req) with
      | Error msg -> Error msg
      | Ok blk -> Ok (machine, blk)))

let stats_response t id =
  Json.Assoc
    ([ ("id", id);
       ("ok", Json.Bool true);
       ("cache_length", Json.Int (cache_length t));
       ("cache_capacity", Json.Int (Lru.capacity t.cache));
       ("hits", Json.Int (cache_hits t));
       ("misses", Json.Int (cache_misses t));
       ("evictions", Json.Int (cache_evictions t));
       ("contained", Json.Int (Atomic.get t.contained));
       ("degraded", Json.Int (Atomic.get t.degraded)) ]
    @ t.extra_stats ())

let detail_cached req =
  let detail = Json.member "detail" req = Some (Json.Bool true) in
  fun b -> if detail then Some b else None

(* The graceful-degradation answer: the machine-independent list
   scheduler (the paper's seed heuristic), evaluated once by Omega and
   certified by the independent replayer — milliseconds of work and a
   legality guarantee, in exchange for giving up optimality.  Marked
   ["degraded": true] and status ["Degraded"]; [completed] is false
   because no optimality was proved. *)
let degraded_of blk machine t id ~cached =
  let dag = Dag.of_block blk in
  let order = List_sched.schedule List_sched.Max_distance dag in
  let result = Omega.evaluate machine dag ~order in
  match Certify.check machine blk result with
  | _ :: _ as violations ->
    error_response id
      ("degraded schedule failed certification: "
      ^ String.concat "; " (List.map Certify.explain violations))
  | [] ->
    Atomic.incr t.degraded;
    render id ~order:result.Omega.order result ~completed:false
      ~status:"Degraded" ~degraded:true ~cached:(cached false)

(* The daemon's answer to a scheduling request it sheds: the certified
   list schedule, with no search. *)
let degraded_request t id req =
  match resolve_request req with
  | Error msg -> error_response id msg
  | Ok (machine, blk) ->
    degraded_of blk machine t id ~cached:(detail_cached req)

let schedule_request t id req =
  match resolve_request req with
  | Error msg -> error_response id msg
  | Ok (machine, blk) -> (
    let lambda =
      match Option.bind (Json.member "lambda" req) Json.to_int_opt with
      | Some l when l > 0 -> l
      | _ -> t.lambda
    in
    let deadline_s =
      match
        Option.bind (Json.member "deadline_ms" req) Json.to_float_opt
      with
      | Some ms when ms > 0.0 -> Some (ms /. 1000.0)
      | _ -> Option.map (fun ms -> ms /. 1000.0) t.deadline_ms
    in
    let cached = detail_cached req in
    match
      (* Per-request backend override; unknown names fail the
         request, like an unknown machine preset. *)
      match Json.member "backend" req with
      | None -> Ok t.backend
      | Some (Json.String b) ->
        if Scheduler.find b <> None then Ok b
        else
          Error
            (Printf.sprintf "unknown backend %S (have: %s)" b
               (String.concat ", " Scheduler.names))
      | Some _ -> Error "\"backend\" must be a string"
    with
    | Error msg -> error_response id msg
    | Ok backend -> (
    (* A hit needs only the labeling; the canonical block is built when
       a miss must search it. *)
    let l = Canonical.label (Dag.of_block blk) in
    (* Backends may return different (equally legal) schedules, and
       cached hits must stay byte-identical to fresh solves — so the
       backend is part of the cache key.  The canonical key may hold
       NUL bytes, so it comes last. *)
    let key =
      Machine.fingerprint machine ^ "\x00" ^ backend ^ "\x00"
      ^ l.Canonical.key
    in
    match Lru.find t.cache key with
    | Some result ->
      render id
        ~order:(Canonical.apply_labeling l result.Omega.order)
        result ~completed:true
        ~status:(Budget.status_to_string Budget.Complete)
        ~degraded:false ~cached:(cached true)
    | None -> (
      (* Containment boundary: anything the solve raises — a real
         bug or an armed [solver] chaos fault — is confined to this
         request.  The fault key is the request text itself, so a
         verdict is reproducible yet a client retry carrying a
         distinct attempt marker gets a fresh draw.  The text is
         only rendered when the site is armed. *)
      match
        if Fault.armed Fault.Solver then
          Fault.guard Fault.Solver ~key:(Json.to_string req);
        let options =
          { Optimal.default_options with Optimal.lambda; deadline_s }
        in
        let cblk = Canonical.materialize l in
        let (module B : Scheduler.S) =
          (* create / the override above validated the name *)
          Option.get (Scheduler.find backend)
        in
        (cblk, B.schedule ~options machine (Dag.of_block cblk))
      with
      | exception exn ->
        Atomic.incr t.contained;
        if t.degrade then degraded_of blk machine t id ~cached
        else
          error_response id
            ("internal error: " ^ Printexc.to_string exn)
      | cblk, o -> (
        let result = o.Scheduler.best in
        let completed = o.Scheduler.completed in
        let status = o.Scheduler.status in
        let violations =
          if t.certify then Certify.check machine cblk result else []
        in
        match violations with
        | _ :: _ ->
          error_response id
            ("certification failed: "
            ^ String.concat "; " (List.map Certify.explain violations))
        | [] ->
          (* Curtailed incumbents are served but never cached: a later
             request with a looser budget must get its own solve.  A
             failed insert (an armed [cache_insert] fault) is
             contained — the cache is an optimization, the answer is
             already in hand. *)
          (if completed then
             try Lru.put t.cache key result
             with _ -> Atomic.incr t.contained);
          render id
            ~order:(Canonical.apply_labeling l result.Omega.order)
            result ~completed
            ~status:(Budget.status_to_string status)
            ~degraded:false ~cached:(cached false)))))

(* The protocol's op dispatch; [schedule] answers a request with no
   [op]. *)
let dispatch schedule t req =
  let id = Option.value ~default:Json.Null (Json.member "id" req) in
  match Json.member "op" req with
  | Some (Json.String "stats") -> stats_response t id
  | Some (Json.String "ping") ->
    Json.Assoc [ ("id", id); ("ok", Json.Bool true) ]
  | Some (Json.String op) ->
    error_response id (Printf.sprintf "unknown op %S" op)
  | Some _ -> error_response id "\"op\" must be a string"
  | None -> schedule t id req

(* Answer one parsed protocol line with [answer].  Malformed JSON
   becomes an error response, and so does any exception escaping
   [answer]: the outer belt-and-braces boundary, so even a fault
   escaping the per-request containment costs only this request. *)
let answer_parsed t answer parsed =
  let response =
    match parsed with
    | Error msg -> error_response Json.Null msg
    | Ok req -> (
      match answer t req with
      | resp -> resp
      | exception exn ->
        Atomic.incr t.contained;
        let id = Option.value ~default:Json.Null (Json.member "id" req) in
        error_response id ("internal error: " ^ Printexc.to_string exn))
  in
  Json.to_string response

let handle_parsed t parsed = answer_parsed t (dispatch schedule_request) parsed

let handle_parsed_degraded t parsed =
  answer_parsed t (dispatch degraded_request) parsed

let handle_line t line = handle_parsed t (Json.parse line)
