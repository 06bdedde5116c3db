(* Child processes the benchmark starts, owns and always reaps.

   A child is spawned directly (fork, chdir into its private directory,
   execve: no shell, no dune, no wrapper) with a stdin pipe that only
   the benchmark holds.  The daemon treats EOF on stdin as shutdown, so
   it drains and exits even when the benchmark is SIGKILLed.  Every
   exit path of the benchmark goes through [stop]: close the pipe, wait
   a bounded time, then SIGKILL and reap. *)

type t = {
  pid : int;
  stdin_w : Unix.file_descr;
  stdout_r : Unix.file_descr;
  dir : string;  (** private directory: the child's cwd, removed by [stop] *)
}

(* Live children, for the signal path's cleanup. *)
let live : t list ref = ref []
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* The program under test runs with its runtime settings at their
   defaults and without inherited chaos or job-count overrides. *)
let child_env () =
  let dropped kv =
    List.exists
      (fun p -> String.starts_with ~prefix:p kv)
      [ "PIPESCHED_"; "OCAMLRUNPARAM="; "CAMLRUNPARAM=" ]
  in
  Array.of_list
    (List.filter (fun kv -> not (dropped kv)) (Array.to_list (Unix.environment ())))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let spawn ~exe ~args ~dir =
  (* a killed earlier run may have left a directory under a reused pid *)
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile (Filename.concat dir "stderr.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600
  in
  let argv = Array.of_list (exe :: args) in
  let env = child_env () in
  with_lock (fun () ->
      match Unix.fork () with
      | 0 -> (
        try
          Unix.chdir dir;
          Unix.dup2 ~cloexec:false in_r Unix.stdin;
          Unix.dup2 ~cloexec:false out_w Unix.stdout;
          Unix.dup2 ~cloexec:false err Unix.stderr;
          (* the benchmark blocks its shutdown signals for a watcher
             thread; the child must not inherit that mask *)
          ignore (Unix.sigprocmask Unix.SIG_SETMASK []);
          Unix.execve exe argv env
        with _ -> Unix._exit 127)
      | pid ->
        Unix.close in_r;
        Unix.close out_w;
        Unix.close err;
        let t = { pid; stdin_w = in_w; stdout_r = out_r; dir } in
        live := t :: !live;
        t)

(* One line from the child's stdout, or [None] on EOF or timeout. *)
let read_line ?(timeout = 30.0) t =
  let buf = Buffer.create 64 and byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then None
    else
      match Unix.select [ t.stdout_r ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read t.stdout_r byte 0 1 with
        | 0 -> None
        | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
        | _ ->
          Buffer.add_bytes buf byte;
          go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let send t line =
  let s = line ^ "\n" in
  ignore (Unix.write_substring t.stdin_w s 0 (String.length s))

(* Peak resident set (VmHWM) of a live child, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> go ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) go

let stderr_text t =
  match open_in (Filename.concat t.dir "stderr.log") with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))

type ending = {
  status : Unix.process_status;
  killed : bool;  (** the grace period ran out and SIGKILL was sent *)
  stderr : string;
  leftovers : string list;  (** files the child left in its directory *)
}

(* Close the stdin pipe (the daemon's shutdown signal), wait up to
   [grace] seconds, then SIGKILL; always reap, then remove the child's
   directory.  Idempotent per child. *)
let stop ?(grace = 10.0) t =
  let already = with_lock (fun () ->
      let was = not (List.memq t !live) in
      live := List.filter (fun c -> c != t) !live;
      was)
  in
  if already then None
  else begin
    (try Unix.close t.stdin_w with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. grace in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ ->
        if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.005;
          wait ()
        end
        else begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (snd (Unix.waitpid [] t.pid), true)
        end
      | _, status -> (status, false)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let status, killed = wait () in
    (try Unix.close t.stdout_r with Unix.Unix_error _ -> ());
    let stderr = stderr_text t in
    let leftovers =
      match Sys.readdir t.dir with
      | files ->
        List.filter (fun f -> f <> "stderr.log") (Array.to_list files)
      | exception Sys_error _ -> []
    in
    rm_rf t.dir;
    Some { status; killed; stderr; leftovers }
  end

let cleanup_all () = List.iter (fun t -> ignore (stop ~grace:2.0 t)) !live

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
