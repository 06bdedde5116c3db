open Pipesched_ir
open Pipesched_machine
open Pipesched_core
module Rng = Pipesched_prelude.Rng
module Budget = Pipesched_prelude.Budget
module Pool = Pipesched_parallel.Pool

module Certify = Pipesched_verify.Certify

type record = {
  size : int;
  initial_nops : int;
  final_nops : int;
  omega_calls : int;
  schedules_completed : int;
  memo_hits : int;
  completed : bool;
  status : Budget.status;
  time_s : float;
  unique : bool;
}

type failure = { exn : string; backtrace : string }
type result = Scheduled of record | Failed of failure

exception Certification_failed of string

let records results =
  List.filter_map (function Scheduled r -> Some r | Failed _ -> None) results

let failures results =
  List.filter_map (function Failed f -> Some f | Scheduled _ -> None) results

let default_options = { Optimal.default_options with Optimal.lambda = 50_000 }

let now () = Unix.gettimeofday ()

let certify_result machine blk ~(best : Omega.result)
    ~(initial : Omega.result) =
  let violations =
    Certify.check machine blk best
    @ Certify.check_ordering
        [ ("optimal", best.Omega.nops); ("list", initial.Omega.nops) ]
    @ Certify.check_semantics blk ~order:best.Omega.order
  in
  if violations <> [] then
    raise (Certification_failed (Certify.explain_all violations))

let run_block ?(options = default_options) ?(certify = false) ?backend machine
    blk =
  let dag = Dag.of_block blk in
  match backend with
  | None | Some "bnb" ->
    (* the direct path keeps the search-internal counters (memo hits,
       completed schedules) that the generic interface does not carry *)
    let t0 = now () in
    let outcome = Optimal.schedule ~options machine dag in
    let t1 = now () in
    if certify then
      certify_result machine blk ~best:outcome.Optimal.best
        ~initial:outcome.Optimal.initial;
    {
      size = Block.length blk;
      initial_nops = outcome.Optimal.initial.Omega.nops;
      final_nops = outcome.Optimal.best.Omega.nops;
      omega_calls = outcome.Optimal.stats.Optimal.omega_calls;
      schedules_completed = outcome.Optimal.stats.Optimal.schedules_completed;
      memo_hits = outcome.Optimal.stats.Optimal.memo_hits;
      completed = outcome.Optimal.stats.Optimal.completed;
      status = outcome.Optimal.stats.Optimal.status;
      time_s = t1 -. t0;
      unique = true;
    }
  | Some name -> (
    match Scheduler.find name with
    | None ->
      invalid_arg
        (Printf.sprintf "Study.run_block: unknown backend %S (have: %s)" name
           (String.concat ", " Scheduler.names))
    | Some (module B : Scheduler.S) ->
      let t0 = now () in
      let outcome = B.schedule ~options machine dag in
      let t1 = now () in
      if certify then
        certify_result machine blk ~best:outcome.Scheduler.best
          ~initial:outcome.Scheduler.initial;
      {
        size = Block.length blk;
        initial_nops = outcome.Scheduler.initial.Omega.nops;
        final_nops = outcome.Scheduler.best.Omega.nops;
        omega_calls = outcome.Scheduler.calls;
        schedules_completed = 0;
        memo_hits = 0;
        completed = outcome.Scheduler.completed;
        status = outcome.Scheduler.status;
        time_s = t1 -. t0;
        unique = true;
      })

(* Per-block seeds are pre-drawn serially (an explicit left-to-right
   loop: [List.init]'s evaluation order is unspecified, and the RNG is
   stateful), so the block population depends only on [seed] and [count]
   — never on the number of domains.  Each block is then generated and
   scheduled from its own seed, and [Pool.parallel_map] returns records
   in input order, making the study record-for-record identical at any
   job count (modulo the wall-clock [time_s] field).

   Deadlines degrade this gracefully rather than aborting: a sweep-wide
   [deadline_s] is converted to an absolute end time up front, and each
   block's search gets the time remaining (intersected with
   [block_deadline_s]) as its own budget.  Every block still produces a
   record — one whose search was cut short simply carries a curtailed
   [status] and its (legal) incumbent's NOP count.  The clock is only
   consulted when one of the deadlines is set, so deadline-free studies
   keep the bit-for-bit determinism contract. *)
(* The fault-containment boundary shared by every corpus-shaped driver:
   non-strict, one item raising becomes one [Failed] entry (exception
   text + backtrace) and every other item still runs, in order; strict
   restores fail-fast (the first exception tears the whole map down).
   Containment happens per item inside the pool, so a deterministic
   workload fails identically at any job count. *)
let run_protected ?(strict = false) ?jobs ?progress f xs =
  if strict then Pool.parallel_map ?jobs ?progress (fun x -> Scheduled (f x)) xs
  else
    List.map
      (function
        | Ok r -> Scheduled r
        | Error { Pool.exn; backtrace } -> Failed { exn; backtrace })
      (Pool.parallel_map_result ?jobs ?progress f xs)

(* Duplicate elimination via the canonical form, deterministic at any job
   count, so callers' determinism contracts survive.  The items go
   through in windows, in input order, and each window:

   1. keys its items in parallel (per-item fault containment preserved
      — a failed item arrives as [Error]);
   2. groups them by key serially, in input order — the first
      presentation of each equivalence class, in this window or an
      earlier one, becomes the class representative;
   3. solves the representatives it introduced in parallel, then fans
      each class's record out to every member, marked [unique = false]
      on the copies.

   A window holds its items only until they are solved.  A serial run
   takes one item per window, so no generated block outlives its own
   search: holding every block of a run through all the searches made
   them survive into the major heap, which the collector then sizes in
   proportion.  A parallel run keys and solves everything in one window,
   for load balance.  The records are the same at every window size.

   A duplicate's record mirrors its representative's search (same NOP
   counts by canonical-form soundness; the counters are the
   representative's search, not a hypothetical re-search of the
   duplicate's presentation).  [dedup_stats] reports the savings. *)
let dedup_keyed ?strict ?jobs ?progress ~keyed ~solve items =
  let window = if Pool.resolve_jobs jobs <= 1 then 1 else max_int in
  (* Every key seen so far, with its representative's result once
     solved (a key is tagged before its window's solve phase and read
     after it). *)
  let reps = Hashtbl.create 64 in
  let solved = ref 0 in
  let progress = Option.map (fun p c -> p (!solved + c)) progress in
  let rec next_window acc items =
    if items = [] then List.concat (List.rev acc)
    else begin
      let rec split k taken = function
        | x :: rest when k > 0 -> split (k - 1) (x :: taken) rest
        | rest -> (List.rev taken, rest)
      in
      let now, later = split window [] items in
      let fresh = ref [] in
      let tagged =
        List.map
          (function
            | Error { Pool.exn; backtrace } -> `Failed { exn; backtrace }
            | Ok (item, key) ->
              if Hashtbl.mem reps key then `Dup key
              else begin
                Hashtbl.add reps key None;
                fresh := (key, item) :: !fresh;
                `Rep key
              end)
          (Pool.parallel_map_result ?jobs keyed now)
      in
      let fresh = List.rev !fresh in
      let results =
        run_protected ?strict ?jobs ?progress solve (List.map snd fresh)
      in
      solved := !solved + List.length fresh;
      List.iter2 (fun (key, _) r -> Hashtbl.replace reps key (Some r)) fresh
        results;
      let result key = Option.get (Hashtbl.find reps key) in
      let records =
        List.map
          (function
            | `Failed f -> Failed f
            | `Rep key -> result key
            | `Dup key -> (
              match result key with
              | Scheduled r -> Scheduled { r with unique = false }
              | Failed f -> Failed f))
          tagged
      in
      next_window (records :: acc) later
    end
  in
  next_window [] items

let run_dedup ?strict ?jobs ?progress ~key ~solve items =
  dedup_keyed ?strict ?jobs ?progress ~keyed:(fun x -> (x, key x)) ~solve
    items

let run ?(options = default_options) ?deadline_s ?block_deadline_s ?freq
    ?jobs ?strict ?certify ?backend ?(dedup = true) ?progress ~seed
    ~count machine =
  let rng = Rng.create seed in
  let seeds = Array.make (max count 1) 0 in
  for i = 0 to count - 1 do
    seeds.(i) <- Rng.bits rng
  done;
  let sweep_end =
    match deadline_s with Some d -> Some (now () +. d) | None -> None
  in
  let options_for_block () =
    match (sweep_end, block_deadline_s) with
    | None, None -> options
    | _ ->
      let remaining =
        match sweep_end with
        | None -> None
        | Some e -> Some (max 0.0 (e -. now ()))
      in
      let eff =
        match (remaining, block_deadline_s) with
        | None, d | d, None -> d
        | Some a, Some b -> Some (min a b)
      in
      { options with Optimal.deadline_s = eff }
  in
  let generate block_seed =
    let rng = Rng.create block_seed in
    Pipesched_synth.Generator.block ?freq rng
      (Pipesched_synth.Generator.sample_params rng)
  in
  let solve blk =
    run_block ~options:(options_for_block ()) ?certify ?backend machine blk
  in
  let seed_list = Array.to_list (Array.sub seeds 0 count) in
  if not dedup then
    run_protected ?strict ?jobs ?progress (fun s -> solve (generate s)) seed_list
  else
    dedup_keyed ?strict ?jobs ?progress ~solve seed_list ~keyed:(fun s ->
        let blk = generate s in
        (blk, (Canonical.label (Dag.of_block blk)).Canonical.key))

type aggregate = {
  runs : int;
  pct : float;
  avg_size : float;
  avg_initial_nops : float;
  avg_final_nops : float;
  avg_omega_calls : float;
  avg_time_s : float;
  n_curtailed_lambda : int;
  n_curtailed_deadline : int;
}

let aggregate ~total records =
  let f sel = Stats.mean (List.map sel records) in
  let count_status s =
    List.length (List.filter (fun r -> r.status = s) records)
  in
  {
    runs = List.length records;
    pct =
      (if total = 0 then 0.0
       else 100.0 *. float_of_int (List.length records) /. float_of_int total);
    avg_size = f (fun r -> float_of_int r.size);
    avg_initial_nops = f (fun r -> float_of_int r.initial_nops);
    avg_final_nops = f (fun r -> float_of_int r.final_nops);
    avg_omega_calls = f (fun r -> float_of_int r.omega_calls);
    avg_time_s = f (fun r -> r.time_s);
    n_curtailed_lambda = count_status Budget.Curtailed_lambda;
    n_curtailed_deadline = count_status Budget.Curtailed_deadline;
  }

let by_size records = Stats.group_by (fun r -> r.size) records

let dedup_stats results =
  let recs = records results in
  let total = List.length recs in
  let uniq = List.length (List.filter (fun r -> r.unique) recs) in
  let rate =
    if total = 0 then 0.0
    else 1.0 -. (float_of_int uniq /. float_of_int total)
  in
  (uniq, total, rate)
