(* Seeded request lines for the two serving workloads.  Every line is a
   pure function of (seed, index): payloads come from
   [Synth.Schedule] event streams, blocks from [Generator.of_seed] and
   the hot pool from [Schedule.seed_at], so the same seed gives
   byte-identical lines. *)

open Pipesched_ir
module Json = Pipesched_prelude.Json
module Rng = Pipesched_prelude.Rng
module Machine = Pipesched_machine.Machine
module Generator = Pipesched_synth.Generator
module Schedule = Pipesched_synth.Schedule
module Optimal = Pipesched_core.Optimal

type request = {
  id : int;
  line : string;
  block : Block.t;  (** the block as submitted *)
  machine : Machine.t;
}

(* Isomorphic relabeling: fresh tuple ids, renamed variables and
   shifted immediates.  The dependence DAG is unchanged, so the
   canonical form (and the cache key) is too. *)
let relabel rng blk =
  let tuples = Block.tuples blk in
  let n = Array.length tuples in
  let ids = Array.init n (fun i -> 100 + (3 * i) + Rng.int rng 3) in
  Rng.shuffle rng ids;
  let id_of = Hashtbl.create n in
  Array.iteri (fun i (t : Tuple.t) -> Hashtbl.replace id_of t.Tuple.id ids.(i)) tuples;
  let vars = Array.of_list (Block.vars blk) in
  let names = Array.mapi (fun i _ -> Printf.sprintf "m%d" i) vars in
  Rng.shuffle rng names;
  let var_of = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace var_of v names.(i)) vars;
  let shift = 1 + Rng.int rng 50 in
  let operand = function
    | Operand.Var v -> Operand.Var (Hashtbl.find var_of v)
    | Operand.Ref id -> Operand.Ref (Hashtbl.find id_of id)
    | Operand.Imm k -> Operand.Imm (k + shift)
    | Operand.Null -> Operand.Null
  in
  Block.of_tuples_exn
    (Array.to_list
       (Array.map
          (fun (t : Tuple.t) ->
            Tuple.make ~id:(Hashtbl.find id_of t.Tuple.id) t.Tuple.op
              (operand t.Tuple.a) (operand t.Tuple.b))
          tuples))

let simulation = Machine.Presets.simulation

(* A block from the generator's paper mix, redrawn until it has at most
   [max_size] statements and instructions (parameters are redrawn alone
   first, which is cheap). *)
let bounded_block ~max_size rng =
  let rec go () =
    let params = Generator.sample_params rng in
    if params.Generator.statements > max_size then go ()
    else
      let blk = Generator.block rng params in
      if Block.length blk <= max_size then blk else go ()
  in
  go ()

let line_of ~id ~machine ~extra blk =
  Json.to_string
    (Json.Assoc
       ([ ("id", Json.Int id); ("machine", machine);
          ("block", Json.String (Block.to_string blk)) ]
       @ extra))

(* The first [n] payloads of an event stream with one event per
   [period] seconds, with their due times. *)
let take_events ~seed ~period ~n draw =
  let evs =
    Array.of_seq
      (Seq.take n (Schedule.events ~seed (Schedule.every ~period draw)))
  in
  (Array.map (fun e -> e.Schedule.time) evs,
   Array.map (fun e -> e.Schedule.payload) evs)

(* ---------------------------------------------------------------- *)
(* serve-hot                                                         *)

type hot = {
  pool : Block.t array;  (** the hot pool: presented once by the warm pass *)
  variants : Block.t array array;  (** isomorphic relabelings per pool block *)
  pool_rest : string array;  (** each pool block's line after its id *)
  variant_rest : string array array;
}

(* The pool's mean NOPs is the bulk of serve-hot's [nops_mean]; at 4096
   blocks it varies by under a tenth from seed to seed (at 1024, by an
   eighth). *)
let hot_pool_size = 4096
let hot_variants = 2
let hot_share = 0.95

(* Size caps.  Hot blocks keep the warm pass short; fresh blocks stay
   small enough that a miss costs a few milliseconds at most, so the
   tail shows head-of-line blocking behind typical misses rather than
   one rare outlier. *)
let hot_max_size = 23
let fresh_max_size = 12

(* A hot block must be cacheable: only a search that completes within
   the server's default lambda is cached, and an uncacheable hot block
   would be re-solved on every presentation. *)
let cacheable blk =
  (Optimal.schedule simulation (Dag.of_block blk)).Optimal.stats.Optimal.completed

let hot_extra = [ ("detail", Json.Bool true) ]

(* A line renders its "id" first, so a hot block's line is its id's
   prefix before one rendering of the rest, made once per block. *)
let hot_rest blk =
  let line = line_of ~id:0 ~machine:(Json.String "simulation") ~extra:hot_extra blk in
  let i = String.index line ',' in
  String.sub line i (String.length line - i)

let hot ~seed =
  let pool =
    Array.init hot_pool_size (fun i ->
        let rng = Rng.create (Schedule.seed_at ~seed:(seed lxor 0x40f) i) in
        let rec draw () =
          let blk = bounded_block ~max_size:hot_max_size rng in
          if cacheable blk then blk else draw ()
        in
        draw ())
  in
  let variants =
    Array.mapi
      (fun i blk ->
        Array.init hot_variants (fun v ->
            relabel
              (Rng.create
                 (Schedule.seed_at ~seed:(seed lxor 0x7e1)
                    ((i * hot_variants) + v)))
              blk))
      pool
  in
  { pool; variants; pool_rest = Array.map hot_rest pool;
    variant_rest = Array.map (Array.map hot_rest) variants }

type hot_payload = Same of int | Relabeled of int * int | Fresh of int

let draw_hot rng =
  if Rng.float rng < hot_share then begin
    let i = Rng.int rng hot_pool_size in
    if Rng.bool rng then Same i else Relabeled (i, Rng.int rng hot_variants)
  end
  else Fresh (Rng.bits rng)

let hot_request h ~id payload =
  let with_id rest = Printf.sprintf "{\"id\":%d%s" id rest in
  let blk, line =
    match payload with
    | Same i -> (h.pool.(i), with_id h.pool_rest.(i))
    | Relabeled (i, v) -> (h.variants.(i).(v), with_id h.variant_rest.(i).(v))
    | Fresh s ->
      let blk = bounded_block ~max_size:fresh_max_size (Rng.create s) in
      (blk, line_of ~id ~machine:(Json.String "simulation") ~extra:hot_extra blk)
  in
  { id; line; block = blk; machine = simulation }

(* The warm pass (each pool block once), then [closed] closed-loop
   requests, then [opened] open-loop requests due at [rate] per
   second.  Ids run on across the three phases. *)
let serve_hot ~seed ~closed ~opened ~rate =
  let h = hot ~seed in
  let warm = Array.mapi (fun i _ -> hot_request h ~id:i (Same i)) h.pool in
  let first_closed = Array.length warm in
  let _, closed_p =
    take_events ~seed:(seed lxor 0xc1) ~period:1.0 ~n:closed draw_hot
  in
  let closed_r =
    Array.mapi (fun i p -> hot_request h ~id:(first_closed + i) p) closed_p
  in
  let first_open = first_closed + closed in
  let due, open_p =
    take_events ~seed:(seed lxor 0x0e) ~period:(1.0 /. rate) ~n:opened draw_hot
  in
  let open_r =
    Array.mapi (fun i p -> hot_request h ~id:(first_open + i) p) open_p
  in
  (warm, closed_r, open_r, due)

(* ---------------------------------------------------------------- *)
(* serve-race                                                        *)

let race_lambda = 10_000

(* Larger blocks make the portfolio's cost so heavy-tailed (races that
   run both sides to lambda) that a run of seconds cannot measure it
   steadily. *)
let race_max_size = 12

(* Even indices use the simulation preset, odd ones a seeded random
   machine sent inline as its text. *)
let race_payload rng =
  let blk = bounded_block ~max_size:race_max_size rng in
  (blk, Generator.random_machine rng)

let race_request ~id (blk, random_m) =
  let machine, mjson =
    if id mod 2 = 0 then (simulation, Json.String "simulation")
    else
      let text = Machine.to_text random_m in
      (* checks use the machine the daemon reads back from the text *)
      match Machine.parse text with
      | Ok m -> (m, Json.Assoc [ ("text", Json.String text) ])
      | Error (line, msg) ->
        failwith (Printf.sprintf "random machine text, line %d: %s" line msg)
  in
  { id;
    line =
      line_of ~id ~machine:mjson
        ~extra:
          [ ("backend", Json.String "portfolio");
            ("lambda", Json.Int race_lambda);
            ("detail", Json.Bool true) ]
        blk;
    block = blk;
    machine }

(* [fill] requests that fill the cache, then [closed] closed-loop and
   [opened] open-loop requests at [rate] per second.  Every request is a
   cache miss: a block canonically equal to an earlier one on the same
   machine is redrawn. *)
let serve_race ~seed ~fill ~closed ~opened ~rate =
  let _, closed_p =
    take_events ~seed:(seed lxor 0xf1) ~period:1.0 ~n:(fill + closed)
      race_payload
  in
  let due, open_p =
    take_events ~seed:(seed lxor 0x0f) ~period:(1.0 /. rate) ~n:opened
      race_payload
  in
  let seen = Hashtbl.create 4096 in
  let distinct i payload =
    let rec go attempt payload =
      let r = race_request ~id:i payload in
      let key =
        Machine.fingerprint r.machine ^ "\x00"
        ^ (Canonical.of_block r.block).Canonical.key
      in
      if Hashtbl.mem seen key then
        go (attempt + 1)
          (race_payload
             (Rng.create (Schedule.seed_at ~seed:(seed lxor 0xdd) ((i * 64) + attempt))))
      else begin
        Hashtbl.add seen key ();
        r
      end
    in
    go 0 payload
  in
  let all = Array.mapi distinct (Array.append closed_p open_p) in
  let n = fill + closed in
  (Array.sub all 0 fill, Array.sub all fill closed, Array.sub all n opened, due)
