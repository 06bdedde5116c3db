(* The search budget: a unit count (the paper's lambda) and an optional
   wall-clock deadline.

   Determinism contract: when no deadline is set the clock is NEVER read,
   so count-only budgets behave bit-for-bit identically run to run.  When
   a deadline is set, the clock is read at creation and then only at a
   check made when the units spent are a multiple of [check_stride]. *)

type status = Complete | Curtailed_lambda | Curtailed_deadline

let status_to_string = function
  | Complete -> "Complete"
  | Curtailed_lambda -> "Curtailed_lambda"
  | Curtailed_deadline -> "Curtailed_deadline"

(* Overridable so a caller with a true monotonic clock (or a test with a
   fake one) can install it; the default is wall time, which is monotonic
   enough for coarse search deadlines.  Install before any budgets are
   started. *)
let clock = ref Unix.gettimeofday

let set_clock f = clock := f
let now () = !clock ()

(* The deadline is re-checked every this many units; a power of two. *)
let check_stride = 32

type t = {
  lambda : int;
  deadline : float option;  (* absolute clock value *)
  mutable spent : int;
  mutable stopped : status;
}

let start ~lambda ?deadline_s () =
  { lambda;
    deadline = Option.map (fun d -> now () +. d) deadline_s;
    spent = 0;
    stopped = Complete }

let spend t = t.spent <- t.spent + 1

let stop t status =
  t.stopped <- status;
  true

let exhausted t =
  match t.stopped with
  | Curtailed_lambda | Curtailed_deadline -> true
  | Complete ->
    if t.spent >= t.lambda then stop t Curtailed_lambda
    else begin
      match t.deadline with
      | Some d when t.spent land (check_stride - 1) = 0 && now () >= d ->
        stop t Curtailed_deadline
      | _ -> false
    end

exception Exhausted

(* Called at 0 and then at each count it returns, so with a deadline
   [spent] is a stride multiple here (or lambda), where [exhausted]
   reads the clock. *)
let checkpoint t ~spent =
  t.spent <- spent;
  if exhausted t then raise Exhausted;
  match t.deadline with
  | None -> t.lambda
  | Some _ -> min t.lambda (spent + check_stride)
