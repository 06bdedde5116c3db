(* The load client: one thread, at most two Unix-socket connections,
   driven by select(2).

   Open loop: request [i] is due at [start + due.(i)] and is sent then
   whether or not earlier answers have arrived; its latency runs from
   the due time, so a stall is charged to every request queued behind
   it.  Closed loop: each connection sends its next request when its
   previous answer arrives.  Answers are matched to requests by their
   ["id"], which is the request's index into [lines]. *)

module Json = Pipesched_prelude.Json

type conn = { fd : Unix.file_descr; partial : Buffer.t }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; partial = Buffer.create 4096 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send c line =
  let s = line ^ "\n" in
  write_all c.fd s 0 (String.length s)

(* Responses render ["id"] first; fall back to a full parse otherwise. *)
let id_of_line line =
  let prefix = "{\"id\":" in
  let n = String.length line and p = String.length prefix in
  let rec digits i acc =
    if i < n && line.[i] >= '0' && line.[i] <= '9' then
      digits (i + 1) ((acc * 10) + Char.code line.[i] - 48)
    else if i > p then Some acc
    else None
  in
  match
    if n > p && String.sub line 0 p = prefix then digits p 0 else None
  with
  | Some id -> Some id
  | None ->
    Option.bind
      (Result.to_option (Json.parse line))
      (fun j -> Option.bind (Json.member "id" j) Json.to_int_opt)

(* Reads what is available on [c] and hands every complete line to
   [on_line]; raises [End_of_file] when the peer closed. *)
let pump buf c on_line =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> raise End_of_file
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get buf i = '\n' then begin
        Buffer.add_subbytes c.partial buf !start (i - !start);
        on_line (Buffer.contents c.partial);
        Buffer.clear c.partial;
        start := i + 1
      end
    done;
    Buffer.add_subbytes c.partial buf !start (n - !start)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

type run = {
  answers : string option array;  (** by request index *)
  done_at : float array;  (** [nan] when unanswered *)
  started : float;  (** the open loop's time origin; the closed loop's start *)
  lateness : float array;  (** open loop: send time minus due time *)
}

let fresh_run n started =
  { answers = Array.make n None;
    done_at = Array.make n Float.nan;
    started;
    lateness = Array.make n 0.0 }

(* Waits for readable connections until [until] and records the answers
   that arrive; returns the number recorded.  [first] offsets the ids
   of this phase's lines. *)
let collect buf conns run ~first ~until ~on_answer =
  let fds = List.map (fun c -> c.fd) conns in
  let got = ref 0 in
  let left = until -. Unix.gettimeofday () in
  (match Unix.select fds [] [] (Float.max 0.0 left) with
   | ready, _, _ ->
     List.iter
       (fun c ->
         if List.mem c.fd ready then
           pump buf c (fun line ->
               let now = Unix.gettimeofday () in
               match id_of_line line with
               | Some id
                 when id - first >= 0
                      && id - first < Array.length run.answers
                      && run.answers.(id - first) = None ->
                 let i = id - first in
                 run.answers.(i) <- Some line;
                 run.done_at.(i) <- now;
                 incr got;
                 on_answer c
               | _ -> ()))
       conns
   | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  !got

let open_loop conns ~lines ~due ~first ~grace =
  let n = Array.length lines in
  let buf = Bytes.create 65536 in
  let conns_a = Array.of_list conns in
  let start = Unix.gettimeofday () +. 0.01 in
  let run = fresh_run n start in
  let sent = ref 0 and answered = ref 0 in
  let last_due = if n = 0 then start else start +. due.(n - 1) in
  let give_up = last_due +. grace in
  while !answered < n && Unix.gettimeofday () < give_up do
    let now = Unix.gettimeofday () in
    while !sent < n && start +. due.(!sent) <= now do
      let i = !sent in
      send conns_a.(i mod Array.length conns_a) lines.(i);
      run.lateness.(i) <- Unix.gettimeofday () -. (start +. due.(i));
      incr sent
    done;
    let until = if !sent < n then start +. due.(!sent) else give_up in
    answered :=
      !answered + collect buf conns run ~first ~until ~on_answer:ignore
  done;
  run

let closed_loop conns ~lines ~first ~stop_sending ~grace =
  let n = Array.length lines in
  let buf = Bytes.create 65536 in
  let start = Unix.gettimeofday () in
  let run = fresh_run n start in
  let next = ref 0 and outstanding = ref 0 in
  let send_next c =
    if !next < n && Unix.gettimeofday () < stop_sending then begin
      send c lines.(!next);
      incr next;
      incr outstanding
    end
  in
  List.iter send_next conns;
  let give_up = stop_sending +. grace in
  while !outstanding > 0 && Unix.gettimeofday () < give_up do
    ignore
      (collect buf conns run ~first ~until:give_up ~on_answer:(fun c ->
           decr outstanding;
           send_next c))
  done;
  (run, !next)
