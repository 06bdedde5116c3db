open Pipesched_ir

type t = {
  name : string;
  pipes : Pipe.t array;
  table : (Op.t * int list) list; (* original mapping, for printing *)
  (* Per operation, by [Op.index]: the candidate pipes and the default
     (first) one, [-1] when resource-free.  Built once by [make], so a
     lookup is an array read. *)
  cands : int list array;
  defaults : int array;
  fingerprint : string;
}

let render_fingerprint pipes cands =
  (* Everything scheduling observes, nothing it does not: pipe
     parameters in id order (labels and the machine name are cosmetic)
     and the op -> candidate-pipe map with ops in declaration order.
     Candidate order is preserved — [default_pipe] is the first
     candidate, so it is semantically load-bearing. *)
  let buf = Buffer.create 64 in
  Array.iter
    (fun (p : Pipe.t) ->
      Buffer.add_string buf
        (Printf.sprintf "p%d,%d;" p.Pipe.latency p.Pipe.enqueue))
    pipes;
  List.iter
    (fun op ->
      match cands.(Op.index op) with
      | [] -> ()
      | pids ->
        Buffer.add_string buf
          (Printf.sprintf "%s:%s;" (Op.to_string op)
             (String.concat "," (List.map string_of_int pids))))
    Op.all;
  Buffer.contents buf

let make ~name pipes ~assign =
  (* A private copy: the fingerprint below must keep describing the
     pipes this machine schedules with. *)
  let pipes = Array.copy pipes in
  let npipes = Array.length pipes in
  let cands = Array.make Op.count [] in
  let mapped = Array.make Op.count false in
  List.iter
    (fun (op, pids) ->
      let i = Op.index op in
      if mapped.(i) then
        invalid_arg
          ("Machine.make: duplicate mapping for " ^ Op.to_string op);
      List.iter
        (fun pid ->
          if pid < 0 || pid >= npipes then
            invalid_arg "Machine.make: pipeline index out of range")
        pids;
      mapped.(i) <- true;
      cands.(i) <- pids)
    assign;
  let defaults =
    Array.map (function [] -> -1 | pid :: _ -> pid) cands
  in
  { name; pipes; table = assign; cands; defaults;
    fingerprint = render_fingerprint pipes cands }

let name m = m.name
let pipes m = Array.copy m.pipes
let pipe_count m = Array.length m.pipes
let pipe m pid = m.pipes.(pid)
let candidates m op = m.cands.(Op.index op)
let default_pipe_id m op = m.defaults.(Op.index op)

let default_pipe m op =
  match m.defaults.(Op.index op) with -1 -> None | pid -> Some pid

let latency m op =
  match m.defaults.(Op.index op) with
  | -1 -> 1
  | pid -> m.pipes.(pid).Pipe.latency

let fingerprint m = m.fingerprint

type diagnostic =
  | No_pipes
  | Bad_latency of { pipe : int; label : string; latency : int }
  | Bad_enqueue of { pipe : int; label : string; enqueue : int }
  | No_candidates of { op : Op.t }
  | Duplicate_candidate of { op : Op.t; pipe : int }

let diagnostic_to_string = function
  | No_pipes -> "machine has no pipelines"
  | Bad_latency { pipe; label; latency } ->
    Printf.sprintf "pipe %d (%s): non-positive latency %d" pipe label latency
  | Bad_enqueue { pipe; label; enqueue } ->
    Printf.sprintf "pipe %d (%s): non-positive enqueue %d" pipe label enqueue
  | No_candidates { op } ->
    Printf.sprintf
      "operation %s is mapped to an empty pipeline set (drop the line to \
       make it resource-free)"
      (Op.to_string op)
  | Duplicate_candidate { op; pipe } ->
    Printf.sprintf "operation %s lists pipe %d more than once"
      (Op.to_string op) pipe

let validate m =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if Array.length m.pipes = 0 then add No_pipes;
  Array.iteri
    (fun pid (p : Pipe.t) ->
      if p.Pipe.latency <= 0 then
        add (Bad_latency { pipe = pid; label = p.Pipe.label; latency = p.Pipe.latency });
      if p.Pipe.enqueue <= 0 then
        add (Bad_enqueue { pipe = pid; label = p.Pipe.label; enqueue = p.Pipe.enqueue }))
    m.pipes;
  List.iter
    (fun (op, pids) ->
      if pids = [] then add (No_candidates { op });
      let seen = Hashtbl.create 4 in
      List.iter
        (fun pid ->
          if Hashtbl.mem seen pid then add (Duplicate_candidate { op; pipe = pid })
          else Hashtbl.replace seen pid ())
        pids)
    m.table;
  List.rev !diags

module Presets = struct
  let simulation =
    make ~name:"simulation"
      [| Pipe.make ~label:"loader" ~latency:2 ~enqueue:1;
         Pipe.make ~label:"multiplier" ~latency:4 ~enqueue:2 |]
      ~assign:[ (Op.Load, [ 0 ]); (Op.Mul, [ 1 ]); (Op.Div, [ 1 ]);
                (Op.Mod, [ 1 ]) ]

  let demo =
    make ~name:"demo"
      [| Pipe.make ~label:"loader" ~latency:2 ~enqueue:1;
         Pipe.make ~label:"loader" ~latency:2 ~enqueue:1;
         Pipe.make ~label:"adder" ~latency:4 ~enqueue:3;
         Pipe.make ~label:"adder" ~latency:4 ~enqueue:3;
         Pipe.make ~label:"multiplier" ~latency:4 ~enqueue:2 |]
      ~assign:[ (Op.Load, [ 0; 1 ]); (Op.Add, [ 2; 3 ]); (Op.Sub, [ 2; 3 ]);
                (Op.Mul, [ 4 ]); (Op.Div, [ 4 ]) ]

  let deep =
    make ~name:"deep"
      [| Pipe.make ~label:"loader" ~latency:4 ~enqueue:1;
         Pipe.make ~label:"adder" ~latency:3 ~enqueue:1;
         Pipe.make ~label:"multiplier" ~latency:6 ~enqueue:2;
         Pipe.make ~label:"divider" ~latency:12 ~enqueue:12 |]
      ~assign:[ (Op.Load, [ 0 ]); (Op.Add, [ 1 ]); (Op.Sub, [ 1 ]);
                (Op.Neg, [ 1 ]); (Op.And, [ 1 ]); (Op.Or, [ 1 ]);
                (Op.Xor, [ 1 ]); (Op.Shl, [ 1 ]); (Op.Shr, [ 1 ]);
                (Op.Mul, [ 2 ]); (Op.Div, [ 3 ]); (Op.Mod, [ 3 ]) ]

  let uniform ~latency ~enqueue =
    let everything =
      List.filter (fun op -> op <> Op.Const) Op.all
      |> List.map (fun op -> (op, [ 0 ]))
    in
    make
      ~name:(Printf.sprintf "uniform-%d-%d" latency enqueue)
      [| Pipe.make ~label:"pipe" ~latency ~enqueue |]
      ~assign:everything

  let throttled =
    make ~name:"throttled"
      [| Pipe.make ~label:"loader" ~latency:2 ~enqueue:1;
         Pipe.make ~label:"multiplier" ~latency:4 ~enqueue:9;
         Pipe.make ~label:"divider" ~latency:6 ~enqueue:14 |]
      ~assign:[ (Op.Load, [ 0 ]); (Op.Mul, [ 1 ]); (Op.Div, [ 2 ]);
                (Op.Mod, [ 2 ]) ]

  let all =
    [ ("simulation", simulation); ("demo", demo); ("deep", deep);
      ("throttled", throttled);
      ("uniform", uniform ~latency:4 ~enqueue:1) ]

  let find key = List.assoc_opt key all
end

let pp_tables fmt m =
  Format.fprintf fmt "Machine %S@." m.name;
  Format.fprintf fmt "  %-12s %-4s %-8s %-8s@." "Function" "Id" "Latency"
    "Enqueue";
  Array.iteri
    (fun pid (p : Pipe.t) ->
      Format.fprintf fmt "  %-12s %-4d %-8d %-8d@." p.Pipe.label pid
        p.Pipe.latency p.Pipe.enqueue)
    m.pipes;
  Format.fprintf fmt "  %-12s %s@." "Operation" "Pipelines";
  List.iter
    (fun (op, pids) ->
      Format.fprintf fmt "  %-12s {%s}@." (Op.to_string op)
        (String.concat ", " (List.map string_of_int pids)))
    m.table

let to_text m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "machine %s\n" m.name);
  Array.iter
    (fun (p : Pipe.t) ->
      Buffer.add_string buf
        (Printf.sprintf "pipe %s %d %d\n" p.Pipe.label p.Pipe.latency
           p.Pipe.enqueue))
    m.pipes;
  List.iter
    (fun (op, pids) ->
      Buffer.add_string buf
        (Printf.sprintf "ops %s -> %s\n" (Op.to_string op)
           (String.concat " " (List.map string_of_int pids))))
    m.table;
  Buffer.contents buf

let parse text =
  let name = ref "machine" in
  let pipes = ref [] in
  let assign = ref [] in
  let exception Fail of int * string in
  let fail lineno msg = raise (Fail (lineno, msg)) in
  let words s =
    String.split_on_char ' ' s |> List.filter (fun w -> w <> "")
  in
  try
    List.iteri
      (fun i raw ->
        let lineno = i + 1 in
        let body =
          match String.index_opt raw '#' with
          | Some j -> String.sub raw 0 j
          | None -> raw
        in
        let body = String.trim body in
        if body = "" then ()
        else
          match words body with
          | [ "machine"; n ] -> name := n
          | "pipe" :: rest -> (
            match rest with
            | [ label; lat; enq ] -> (
              match (int_of_string_opt lat, int_of_string_opt enq) with
              | Some latency, Some enqueue -> (
                match Pipe.make ~label ~latency ~enqueue with
                | p -> pipes := p :: !pipes
                | exception Invalid_argument msg -> fail lineno msg)
              | _ -> fail lineno "pipe expects integer latency and enqueue")
            | _ -> fail lineno "pipe expects: pipe <label> <latency> <enqueue>")
          | "ops" :: rest -> (
            let rec split_arrow before = function
              | "->" :: after -> Some (List.rev before, after)
              | w :: more -> split_arrow (w :: before) more
              | [] -> None
            in
            match split_arrow [] rest with
            | None | Some ([], _) | Some (_, []) ->
              fail lineno "ops expects: ops <Op>... -> <pipe index>..."
            | Some (op_names, pid_texts) ->
              let ops =
                List.map
                  (fun w ->
                    match Op.of_string w with
                    | Some op -> op
                    | None -> fail lineno ("unknown operation: " ^ w))
                  op_names
              in
              let pids =
                List.map
                  (fun w ->
                    match int_of_string_opt w with
                    | Some p -> p
                    | None -> fail lineno ("bad pipe index: " ^ w))
                  pid_texts
              in
              List.iter (fun op -> assign := (op, pids) :: !assign) ops)
          | w :: _ -> fail lineno ("unknown directive: " ^ w)
          | [] -> ())
      (String.split_on_char '\n' text);
    (match make ~name:!name (Array.of_list (List.rev !pipes))
             ~assign:(List.rev !assign) with
     | m -> Ok m
     | exception Invalid_argument msg -> Error (0, msg))
  with Fail (lineno, msg) -> Error (lineno, msg)
