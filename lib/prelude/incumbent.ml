(* Shared incumbent for searches racing on one block (the portfolio).

   The bound is ONE atomic int that only ever decreases, which makes
   stale reads sound for alpha-beta: a racing reader sees a bound that
   is at worst older (larger), so it prunes no subtree the freshest
   bound would keep.

   The payload (the best schedule itself) is guarded by a mutex; the
   bound is only advanced under that mutex, so the payload always
   corresponds to the published bound.  Readers on the search hot path
   never touch the mutex — they read the atomic bound only. *)

type 'a t = { bound : int Atomic.t; mu : Mutex.t; mutable payload : 'a option }

let create () =
  { bound = Atomic.make max_int; mu = Mutex.create (); payload = None }

let bound t = Atomic.get t.bound

let submit t ~nops make =
  (* Cheap racy reject first: the bound is monotone decreasing, so a
     stale read can only let a doomed submission through to the mutex,
     never reject a winning one. *)
  if nops >= Atomic.get t.bound then false
  else begin
    Mutex.lock t.mu;
    let accepted = nops < Atomic.get t.bound in
    if accepted then begin
      t.payload <- Some (make ());
      Atomic.set t.bound nops
    end;
    Mutex.unlock t.mu;
    accepted
  end

let best t =
  Mutex.lock t.mu;
  let r =
    match t.payload with
    | None -> None
    | Some p -> Some (Atomic.get t.bound, p)
  in
  Mutex.unlock t.mu;
  r
