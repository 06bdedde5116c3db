(* Combined search budget: a call count (the paper's lambda), an optional
   wall-clock deadline, and an optional cross-domain cancellation token.

   Determinism contract: when no deadline is set the clock is NEVER read,
   so call-count-only budgets behave bit-for-bit identically run to run
   and at any domain count.  When a deadline is set, the clock is read at
   creation and then only once every [check_stride] spends, keeping the
   per-call overhead of deadline checking to an integer mask test. *)

(* A token is one flag, set from any domain and polled by searches. *)
type token = bool Atomic.t

let token () = Atomic.make false
let cancel t = Atomic.set t true
let is_cancelled t = Atomic.get t

type status = Complete | Curtailed_lambda | Curtailed_deadline | Cancelled

let status_to_string = function
  | Complete -> "Complete"
  | Curtailed_lambda -> "Curtailed_lambda"
  | Curtailed_deadline -> "Curtailed_deadline"
  | Cancelled -> "Cancelled"

let is_complete = function Complete -> true | _ -> false

type limits = {
  calls : int option;
  deadline_s : float option;
  cancel : token option;
}

let unlimited = { calls = None; deadline_s = None; cancel = None }

(* Overridable so a caller with a true monotonic clock (or a test with a
   fake one) can install it; the default is wall time, which is monotonic
   enough for coarse search deadlines.  Install before any budgets are
   started. *)
let clock = ref Unix.gettimeofday

let set_clock f = clock := f

(* Deadline re-checked every this many spends; must be a power of two. *)
let check_stride = 32

type t = {
  limits : limits;
  started : float;      (* clock at [start]; 0.0 when no deadline is set *)
  deadline_at : float;  (* absolute expiry; [infinity] when none *)
  mutable spent : int;
  mutable stopped : status option;
}

let start limits =
  let started =
    match limits.deadline_s with Some _ -> !clock () | None -> 0.0
  in
  {
    limits;
    started;
    deadline_at =
      (match limits.deadline_s with
       | Some d -> started +. d
       | None -> infinity);
    spent = 0;
    stopped = None;
  }

let spend t = t.spent <- t.spent + 1

let spent t = t.spent

let exhausted t =
  match t.stopped with
  | Some _ as s -> s
  | None ->
    let s =
      if
        match t.limits.cancel with
        | Some tok -> is_cancelled tok
        | None -> false
      then Some Cancelled
      else if
        match t.limits.calls with Some l -> t.spent >= l | None -> false
      then Some Curtailed_lambda
      else if
        t.limits.deadline_s <> None
        && t.spent land (check_stride - 1) = 0
        && !clock () >= t.deadline_at
      then Some Curtailed_deadline
      else None
    in
    (match s with Some _ -> t.stopped <- s | None -> ());
    s

(* Post-hoc status: like [exhausted] but with the strided deadline gate
   dropped, so a deadline that passed between two strided clock reads is
   reported as such instead of being misattributed.  Sticky like
   [exhausted]; reads the clock only when a deadline is set. *)
let expiry t =
  match t.stopped with
  | Some _ as s -> s
  | None ->
    let s =
      if
        match t.limits.cancel with
        | Some tok -> is_cancelled tok
        | None -> false
      then Some Cancelled
      else if
        match t.limits.calls with Some l -> t.spent >= l | None -> false
      then Some Curtailed_lambda
      else if t.limits.deadline_s <> None && !clock () >= t.deadline_at then
        Some Curtailed_deadline
      else None
    in
    (match s with Some _ -> t.stopped <- s | None -> ());
    s

let elapsed_s t =
  match t.limits.deadline_s with
  | None -> 0.0
  | Some _ -> !clock () -. t.started
