let default_jobs () =
  match Sys.getenv_opt "PIPESCHED_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some j when j >= 1 -> j
     | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let resolve_jobs = function
  | Some j -> max 1 j
  | None -> default_jobs ()

(* Set in every worker domain: a nested parallel_map runs serially there,
   so pools never wait on each other. *)
let inside_worker = Domain.DLS.new_key (fun () -> false)

(* Left-to-right serial map (List.map's evaluation order is unspecified). *)
let map_lr f xs = List.rev (List.fold_left (fun acc x -> f x :: acc) [] xs)

let parallel_map ?jobs ?progress f xs =
  (* A raising progress callback must never take a worker down (that
     would leak the pool's accounting), so it is always contained. *)
  let notify c =
    match progress with
    | None -> ()
    | Some p -> ( try p c with _ -> ())
  in
  let items = Array.of_list xs in
  let n = Array.length items in
  let jobs = min (resolve_jobs jobs) n in
  if n = 0 then []
  else if jobs <= 1 || Domain.DLS.get inside_worker then begin
    let done_ = ref 0 in
    map_lr
      (fun x ->
        let y = f x in
        incr done_;
        notify !done_;
        y)
      xs
  end
  else begin
    (* Consecutive indices a worker claims per counter access: enough
       to amortize the mutex, few enough to balance a heavy tail. *)
    let chunk = max 1 (min 64 (n / (jobs * 32))) in
    let results = Array.make n None in
    let mu = Mutex.create () in
    let finished = Condition.create () in
    let next = ref 0 in
    let active = ref jobs in
    let error = ref None in
    let completed = ref 0 in
    (* Count under the mutex, notify outside it: a slow callback never
       blocks other workers, at the price that cumulative counts may
       arrive slightly out of order under races. *)
    let advance k =
      Mutex.lock mu;
      completed := !completed + k;
      let c = !completed in
      Mutex.unlock mu;
      notify c
    in
    (* [take] hands out the next chunk of indices, or the empty range once
       the items are exhausted or a worker has failed. *)
    let take () =
      Mutex.lock mu;
      let lo = if !error = None then !next else n in
      let hi = min n (lo + chunk) in
      next := hi;
      Mutex.unlock mu;
      (lo, hi)
    in
    let fail exn bt =
      Mutex.lock mu;
      if !error = None then error := Some (exn, bt);
      Mutex.unlock mu
    in
    let retire () =
      Mutex.lock mu;
      decr active;
      if !active = 0 then Condition.broadcast finished;
      Mutex.unlock mu
    in
    let worker () =
      Domain.DLS.set inside_worker true;
      let rec loop () =
        let lo, hi = take () in
        if lo < hi then begin
          (match
             for i = lo to hi - 1 do
               results.(i) <- Some (f items.(i))
             done
           with
           | () -> advance (hi - lo)
           | exception exn -> fail exn (Printexc.get_raw_backtrace ()));
          loop ()
        end
      in
      loop ();
      retire ()
    in
    let domains = List.init jobs (fun _ -> Domain.spawn worker) in
    Mutex.lock mu;
    while !active > 0 do
      Condition.wait finished mu
    done;
    Mutex.unlock mu;
    List.iter Domain.join domains;
    match !error with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None ->
      Array.to_list
        (Array.map
           (function Some y -> y | None -> assert false)
           results)
  end

type failure = { exn : string; backtrace : string }

let parallel_map_result ?jobs ?progress f xs =
  parallel_map ?jobs ?progress
    (fun x ->
      match f x with
      | y -> Ok y
      | exception exn ->
        let backtrace =
          Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
        in
        Error { exn = Printexc.to_string exn; backtrace })
    xs
