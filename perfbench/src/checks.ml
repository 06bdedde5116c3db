(* Output checks.  They run outside the timed regions (the study's
   in-program [certify] is the one exception); any failure makes the
   command exit nonzero. *)

open Pipesched_ir
open Pipesched_machine
module Json = Pipesched_prelude.Json
module Rng = Pipesched_prelude.Rng
module Certify = Pipesched_verify.Certify
module Baselines = Pipesched_sched.Baselines
module Server = Pipesched_serve.Server
module Scheduler = Pipesched_core.Scheduler
module Optimal = Pipesched_core.Optimal

let int_array json =
  Option.bind json (fun j ->
      Option.bind (Json.to_list_opt j) (fun xs ->
          let ints = List.filter_map Json.to_int_opt xs in
          if List.length ints = List.length xs then Some (Array.of_list ints)
          else None))

(* The schedule a response describes, rebuilt from its fields. *)
let result_of_response json =
  let field k = Json.member k json in
  match
    ( int_array (field "order"),
      int_array (field "eta"),
      int_array (field "issue"),
      int_array (field "pipes"),
      Option.bind (field "nops") Json.to_int_opt )
  with
  | Some order, Some eta, Some issue, Some pipes, Some nops ->
    Some { Omega.order; eta; issue; pipes; nops }
  | _ -> None

(* A served answer as the checks and metrics see it. *)
type answer = { nops : int; completed : bool; cached : bool; json : Json.t }

(* Parse one response, require [ok], rebuild its schedule and certify it
   against the request's own block and machine. *)
let certify_answer (req : Requests.request) line =
  match Json.parse line with
  | Error msg -> Error ("unparsable response: " ^ msg)
  | Ok json -> (
    match Json.member "ok" json with
    | Some (Json.Bool true) -> (
      match result_of_response json with
      | None -> Error ("response lacks a schedule: " ^ line)
      | Some result -> (
        match Certify.check req.Requests.machine req.Requests.block result with
        | [] ->
          Ok
            { nops = result.Omega.nops;
              completed = Json.member "completed" json = Some (Json.Bool true);
              cached = Json.member "cached" json = Some (Json.Bool true);
              json }
        | vs -> Error ("certification: " ^ Certify.explain_all vs)))
    | _ -> Error ("request failed: " ^ line))

let without keys = function
  | Json.Assoc fields ->
    Json.Assoc (List.filter (fun (k, _) -> not (List.mem k keys)) fields)
  | j -> j

(* serve-hot parity: a response minus [id] and [cached] must equal what a
   cache-disabled in-process server answers for the same line.  The
   reference answers are memoized by the request line minus its id. *)
type parity = { reference : Server.t; memo : (string, Json.t) Hashtbl.t }

let parity () =
  { reference = Server.create ~cache_capacity:0 (); memo = Hashtbl.create 1024 }

let check_parity p (req : Requests.request) (a : answer) =
  let key =
    match Json.parse req.Requests.line with
    | Ok j -> Json.to_string (without [ "id" ] j)
    | Error _ -> req.Requests.line
  in
  let expected =
    match Hashtbl.find_opt p.memo key with
    | Some j -> j
    | None ->
      let j =
        match Json.parse (Server.handle_line p.reference req.Requests.line) with
        | Ok j -> without [ "id"; "cached" ] j
        | Error msg -> Json.String msg
      in
      Hashtbl.replace p.memo key j;
      j
  in
  if without [ "id"; "cached" ] a.json = expected then Ok ()
  else Error ("differs from a cache-disabled server: " ^ req.Requests.line)

(* Exhaustive cross-check on a seeded sample of blocks with at most 8
   instructions: a proved NOP count must equal the legal-only search. *)
let max_exhaustive_size = 8

let sample_small ~seed ~limit candidates =
  let small =
    Array.of_list
      (List.filter
         (fun (_, blk, _) -> Block.length blk <= max_exhaustive_size)
         candidates)
  in
  Rng.shuffle (Rng.create seed) small;
  Array.to_list (Array.sub small 0 (min limit (Array.length small)))

let check_exhaustive (machine, blk, proved_nops) =
  let r = Baselines.legal_only_search machine (Dag.of_block blk) in
  if not r.Baselines.complete then Ok ()
  else if r.Baselines.best.Omega.nops = proved_nops then Ok ()
  else
    Error
      (Printf.sprintf "proved %d NOPs, exhaustive search finds %d:\n%s"
         proved_nops r.Baselines.best.Omega.nops (Block.to_string blk))

(* serve-race: where the standalone bnb (same lambda) and the portfolio
   both prove optimality, their NOP counts must agree. *)
let check_agreement ~lambda (req : Requests.request) (a : answer) =
  if not a.completed then Ok ()
  else
    let (module B : Scheduler.S) = Option.get (Scheduler.find "bnb") in
    let o =
      B.schedule
        ~options:{ Optimal.default_options with Optimal.lambda }
        req.Requests.machine (Dag.of_block req.Requests.block)
    in
    if (not o.Scheduler.completed) || o.Scheduler.best.Omega.nops = a.nops then
      Ok ()
    else
      Error
        (Printf.sprintf "portfolio proved %d NOPs, bnb proved %d: %s" a.nops
           o.Scheduler.best.Omega.nops req.Requests.line)
