(* Shared incumbent for searches racing on one block (the portfolio).

   The bound lives in ONE atomic int packing (nops, owner) as
   [nops * 2^owner_bits + (owner + 1)], so numeric order on the packed
   key is exactly lexicographic order on (nops, owner).  The key only
   ever decreases, which makes stale reads sound for alpha-beta: a
   racing reader sees a bound that is at worst older (larger), so it
   prunes no subtree the freshest bound would keep.

   The owner component is the tie-break: every searcher is assigned a
   rank (-1 for the seed, which precedes every searcher), and an
   equal-NOP schedule is accepted only from a lower rank.  The value the
   race converges to never depends on timing; which rank holds the
   witness for it may.

   The payload (the best schedule itself) is guarded by a mutex; the
   atomic key is only advanced under that mutex, so the payload always
   corresponds to the published key.  Readers on the search hot path
   never touch the mutex — they read the atomic key only. *)

type gate = int Atomic.t

type 'a t = { gate : gate; mu : Mutex.t; mutable payload : 'a option }

let owner_bits = 21
let owner_mask = (1 lsl owner_bits) - 1
let max_task = owner_mask - 2

(* All-ones key: lexicographically after every packable (nops, owner). *)
let empty_key = max_int

let pack ~nops ~task =
  if nops < 0 then invalid_arg "Incumbent: negative nops";
  if task < -1 || task > max_task then invalid_arg "Incumbent: task rank";
  if nops > max_int asr owner_bits then invalid_arg "Incumbent: nops too large";
  (nops lsl owner_bits) lor (task + 1)

let create () =
  { gate = Atomic.make empty_key; mu = Mutex.create (); payload = None }

let gate t = t.gate

let bound g =
  let k = Atomic.get g in
  if k = empty_key then None
  else Some (k asr owner_bits, (k land owner_mask) - 1)

let limit g ~task =
  let k = Atomic.get g in
  if k = empty_key then max_int
  else
    let v = k asr owner_bits in
    let owner = (k land owner_mask) - 1 in
    if owner > task then v + 1 else v

let admits g ~nops ~task = pack ~nops ~task < Atomic.get g

let submit t ~nops ~task make =
  let k = pack ~nops ~task in
  (* Cheap racy reject first: the key is monotone decreasing, so a
     stale read can only let a doomed submission through to the mutex,
     never reject a winning one. *)
  if k >= Atomic.get t.gate then false
  else begin
    Mutex.lock t.mu;
    let accepted = k < Atomic.get t.gate in
    if accepted then begin
      t.payload <- Some (make ());
      Atomic.set t.gate k
    end;
    Mutex.unlock t.mu;
    accepted
  end

let best t =
  Mutex.lock t.mu;
  let r =
    match t.payload with
    | None -> None
    | Some p -> Some (Atomic.get t.gate asr owner_bits, p)
  in
  Mutex.unlock t.mu;
  r
