(* Spans recorded by the benchmark around its own calls into a layer's
   public functions: name, start, end, parent span and the request or
   block id.  Spans stay in memory and are written out once, at the
   end.  Only the traced run creates a trace; the untraced run reads no
   clock inside the layers. *)

module Json = Pipesched_prelude.Json

type span = {
  name : string;
  start : float;
  stop : float;
  parent : int;  (** index of the enclosing span, -1 for a root *)
  unit_id : int;
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;
  origin : float;
}

let dummy = { name = ""; start = 0.0; stop = 0.0; parent = -1; unit_id = -1 }

let create () =
  { spans = Array.make 4096 dummy; len = 0; stack = [];
    origin = Unix.gettimeofday () }

let span t name ~unit_id f =
  let idx = t.len in
  if idx = Array.length t.spans then begin
    let bigger = Array.make (2 * idx) dummy in
    Array.blit t.spans 0 bigger 0 idx;
    t.spans <- bigger
  end;
  t.len <- idx + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- idx :: t.stack;
  let start = Unix.gettimeofday () in
  let finish () =
    t.spans.(idx) <- { name; start; stop = Unix.gettimeofday (); parent; unit_id };
    t.stack <- List.tl t.stack
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let duration s = s.stop -. s.start

(* Self time: a span's duration minus the part its children cover. *)
let self_times t =
  let child = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s
  done;
  Array.init t.len (fun i -> duration t.spans.(i) -. child.(i))

type layer = {
  layer : string;
  calls : int;
  self_s : float;  (** summed self time *)
  mean_us : float; (** mean self time per call *)
}

(* Per-name totals over the spans below roots named [root]; spans of
   other roots (side measurements such as the standalone backends) are
   left out.  Returns the layers ranked by self
   time, the summed root durations and the roots' own self time (time
   inside a unit that no layer span covers). *)
let layers t ~root =
  let self = self_times t in
  let in_root = Array.make t.len false in
  let tbl = Hashtbl.create 32 in
  let wall = ref 0.0 and gap = ref 0.0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent < 0 then begin
      if s.name = root then begin
        in_root.(i) <- true;
        wall := !wall +. duration s;
        gap := !gap +. self.(i)
      end
    end
    else if in_root.(s.parent) then begin
      in_root.(i) <- true;
      let calls, total =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (calls + 1, total +. self.(i))
    end
  done;
  let ranked =
    Hashtbl.fold
      (fun layer (calls, self_s) acc ->
        { layer; calls; self_s;
          mean_us = 1e6 *. self_s /. float_of_int (max 1 calls) }
        :: acc)
      tbl []
    |> List.sort (fun a b -> compare b.self_s a.self_s)
  in
  (ranked, !wall, !gap)

(* Mean self time per call, in microseconds, of layer [name] in a
   {!layers} ranking (0 when it made no calls). *)
let mean_us ranked name =
  match List.find_opt (fun l -> l.layer = name) ranked with
  | Some l -> l.mean_us
  | None -> 0.0

(* [(unit id, duration)] of every span named [name], in trace order. *)
let by_unit t name =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    let s = t.spans.(i) in
    if s.name = name then acc := (s.unit_id, duration s) :: !acc
  done;
  !acc

let write_jsonl t path =
  let oc = open_out path in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    output_string oc
      (Json.to_string
         (Json.Assoc
            [ ("name", Json.String s.name);
              ("start_us", Json.Float (1e6 *. (s.start -. t.origin)));
              ("end_us", Json.Float (1e6 *. (s.stop -. t.origin)));
              ("parent", Json.Int s.parent);
              ("unit", Json.Int s.unit_id) ]));
    output_char oc '\n'
  done;
  close_out oc

let ranking_json (ranked, wall, gap) =
  Json.Assoc
    [ ("traced_wall_s", Json.Float wall);
      ("untraced_gap_s", Json.Float gap);
      ( "layers",
        Json.List
          (List.map
             (fun l ->
               Json.Assoc
                 [ ("layer", Json.String l.layer);
                   ("self_s", Json.Float l.self_s);
                   ( "share",
                     Json.Float (if wall > 0.0 then l.self_s /. wall else 0.0)
                   );
                   ("calls", Json.Int l.calls);
                   ("mean_self_us", Json.Float l.mean_us) ])
             ranked) ) ]

(* The ranked profile of a traced run: its own units' layers first, then
   any further sections (serve-hot's in-process write side). *)
let profile_json ~workload ~seed ~coverage ~overhead ranking sections =
  Json.Assoc
    ([ ("workload", Json.String workload);
       ("seed", Json.Int seed);
       ("coverage", Json.Float coverage);
       ("overhead", Json.Float overhead);
       ("units", ranking_json ranking) ]
    @ List.map (fun (name, r) -> (name, ranking_json r)) sections)
