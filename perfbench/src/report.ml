(* Metric arithmetic and the result line.  Percentiles are exact, over
   raw samples ([Stats.percentile] interpolates between ranks); nothing
   here goes through a histogram. *)

module Json = Pipesched_prelude.Json
module Stats = Pipesched_harness.Stats

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let percentile p = function [] -> 0.0 | xs -> Stats.percentile p xs

let median xs = percentile 50.0 xs

(* The guide's rule: a percentile is reported only when at least ten
   samples lie beyond it. *)
let supported ~samples p = float_of_int samples *. (1.0 -. (p /. 100.0)) >= 10.0

(* Percentile [p] in each consecutive window of [window] samples (in
   arrival order), then the median across windows: one stall from
   outside the system moves one window, not the result.  With fewer
   than two windows, the percentile of all samples. *)
let windowed_percentile ~window p xs =
  let a = Array.of_list xs in
  let n = Array.length a / window in
  if n < 2 then percentile p xs
  else
    median
      (List.init n (fun w ->
           percentile p (Array.to_list (Array.sub a (w * window) window))))

let share num den = if den <= 0 then 0.0 else float_of_int num /. float_of_int den

(* Non-finite values would render as JSON null; a layer with no calls
   reads 0. *)
let finite v = if Float.is_finite v then v else 0.0

let metrics_json ms =
  Json.Assoc
    (List.map
       (fun m ->
         ( m.name,
           Json.Assoc
             [ ("value", Json.Float (finite m.value));
               ("unit", Json.String m.unit_) ] ))
       ms)

let result_line ~correct ~attempted ~failed ms =
  Json.to_string
    (Json.Assoc
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", metrics_json ms) ])

let print_table ~workload ms =
  List.iter
    (fun m ->
      Printf.printf "%-12s %-28s %16.6f %s\n" workload m.name (finite m.value)
        m.unit_)
    ms

(* Units attempted, failed, and the reasons, accumulated by a run's
   checks.  Reasons are kept (bounded) for the diagnostic on stderr. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
  mutable n_reasons : int;
}

let tally () = { attempted = 0; failed = 0; reasons = []; n_reasons = 0 }

let fail t reason =
  t.failed <- t.failed + 1;
  if t.n_reasons < 20 then begin
    t.reasons <- reason :: t.reasons;
    t.n_reasons <- t.n_reasons + 1
  end

(* A check that fails the run without naming one unit (the daemon's exit
   status, a leftover repro directory). *)
let fail_run t reason =
  if t.n_reasons < 20 then t.reasons <- reason :: t.reasons;
  t.n_reasons <- t.n_reasons + 1

let ok t = t.n_reasons = 0 && t.failed = 0
