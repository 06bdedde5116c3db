(* Tests for Pipesched_synth: Frequency and Generator. *)

open Pipesched_ir
open Pipesched_frontend
open Pipesched_synth
module Rng = Pipesched_prelude.Rng
open Helpers

(* ------------------------------------------------------------------ *)
(* Frequency                                                           *)

let test_default_valid () =
  ignore (Frequency.check Frequency.default);
  ignore (Frequency.check Frequency.mul_heavy)

let test_check_rejects () =
  Alcotest.check_raises "empty ops"
    (Invalid_argument "Frequency.check: op weights must have positive total")
    (fun () ->
      ignore
        (Frequency.check { Frequency.default with Frequency.op_weights = [] }));
  Alcotest.check_raises "non-binary op"
    (Invalid_argument "Frequency.check: not a binary operator: Load")
    (fun () ->
      ignore
        (Frequency.check
           { Frequency.default with
             Frequency.op_weights = [ (1, Op.Load) ] }))

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)

let test_determinism () =
  let p = { Generator.statements = 10; variables = 4; constants = 3 } in
  let b1 = Generator.block (Rng.create 5) p in
  let b2 = Generator.block (Rng.create 5) p in
  check bool_t "same seed, same block" true (Block.equal b1 b2);
  let b3 = Generator.block (Rng.create 6) p in
  check bool_t "different seed differs" true (not (Block.equal b1 b3))

let test_respects_parameters () =
  let rng = Rng.create 7 in
  for _ = 1 to 50 do
    let p =
      { Generator.statements = 1 + Rng.int rng 10;
        variables = 1 + Rng.int rng 5;
        constants = 1 + Rng.int rng 4 }
    in
    let prog = Generator.program rng p in
    check int_t "statement count" p.Generator.statements (List.length prog);
    let vars =
      List.sort_uniq compare
        (Ast.read_vars prog @ Ast.written_vars prog)
    in
    check bool_t "variable pool bound" true
      (List.length vars <= p.Generator.variables);
    List.iter
      (fun v -> check bool_t "pool naming" true (String.length v >= 2 && v.[0] = 'v'))
      vars
  done

let test_rejects_bad_params () =
  Alcotest.check_raises "zero statements"
    (Invalid_argument "Generator: parameters must be positive") (fun () ->
      ignore
        (Generator.program (Rng.create 1)
           { Generator.statements = 0; variables = 1; constants = 1 }))

let generated_blocks_valid =
  qtest ~count:200 "generated blocks are valid and nonempty"
    QCheck2.Gen.(int_bound 1_000_000)
    string_of_int
    (fun seed ->
      let rng = Rng.create seed in
      let p = Generator.sample_params rng in
      let blk = Generator.block rng p in
      Block.length blk > 0)

let generated_programs_compile_faithfully =
  qtest ~count:200 "generated programs survive the full front end"
    QCheck2.Gen.(int_bound 1_000_000)
    string_of_int
    (fun seed ->
      let rng = Rng.create seed in
      let p = Generator.sample_params rng in
      let prog = Generator.program rng p in
      let blk = Compile.compile_program prog in
      let vars =
        List.sort_uniq compare (Ast.read_vars prog @ Ast.written_vars prog)
      in
      Interp.equivalent_on prog blk ~env:(env_of_seed 6) ~vars)

let test_op_mix_follows_frequency () =
  (* With the mul-heavy table, multiplies should clearly outnumber what
     the default table produces. *)
  let count_muls freq seed =
    let rng = Rng.create seed in
    let total = ref 0 in
    for _ = 1 to 200 do
      let prog =
        Generator.program ~freq rng
          { Generator.statements = 10; variables = 5; constants = 3 }
      in
      let rec count_expr = function
        | Ast.Int _ | Ast.Var _ -> 0
        | Ast.Unop (_, e) -> count_expr e
        | Ast.Binop (op, e1, e2) ->
          (if op = Op.Mul then 1 else 0) + count_expr e1 + count_expr e2
      in
      List.iter
        (function
          | Ast.Assign (_, e) -> total := !total + count_expr e
          | Ast.If _ | Ast.While _ -> ())
        prog
    done;
    !total
  in
  let default = count_muls Frequency.default 3 in
  let heavy = count_muls Frequency.mul_heavy 3 in
  check bool_t "mul-heavy has more multiplies" true (heavy > default * 2)

let test_size_mix_shape () =
  (* The calibrated mix: mean optimized size near 20, spread past 40. *)
  let rng = Rng.create 2024 in
  let sizes =
    List.init 600 (fun _ ->
        Block.length (Generator.block rng (Generator.sample_params rng)))
  in
  let mean =
    float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int 600
  in
  check bool_t "mean near 20" true (mean > 15.0 && mean < 25.0);
  check bool_t "has large blocks" true (List.exists (fun s -> s > 35) sizes);
  check bool_t "has small blocks" true (List.exists (fun s -> s < 8) sizes)

let test_batch () =
  let blocks = Generator.batch (Rng.create 9) ~count:25 in
  check int_t "count" 25 (List.length blocks);
  let blocks' = Generator.batch (Rng.create 9) ~count:25 in
  check bool_t "deterministic" true
    (List.for_all2 Block.equal blocks blocks')

(* Pins the text of generated blocks: instruction order, tuple ids and
   operands, which test_ir's canonical digest does not see.  It covers
   the study's blocks, the same programs compiled in reuse mode, each
   exported pass applied alone to the raw block (each keeps the block's
   own ids, except renumber), and the blocks of lowered structured
   programs.  It must not move unless a change means to change what the
   front end emits. *)
let generator_golden_digest = "4d32484527d9d3cdfab7c23c4e398aca"

let test_generator_golden () =
  let buf = Buffer.create (1 lsl 22) in
  let record blk =
    Buffer.add_string buf (Block.to_string blk);
    Buffer.add_string buf "\n\n"
  in
  let passes =
    [ Opt.const_fold; Opt.peephole; Opt.copy_prop; Opt.cse; Opt.dce;
      Opt.dead_store; Opt.renumber ]
  in
  for i = 0 to 1999 do
    let s = Schedule.seed_at ~seed:18 i in
    record (Generator.of_seed s);
    let rng = Rng.create s in
    let prog = Generator.program rng (Generator.sample_params rng) in
    record (Compile.compile_program ~reuse:true prog);
    let raw = Gen.generate prog in
    List.iter (fun pass -> record (pass raw)) passes
  done;
  let rng = Rng.create 18 in
  for _ = 1 to 300 do
    let prog =
      Generator.structured_program rng
        { Generator.statements = 8 + Rng.int rng 10;
          variables = 4 + Rng.int rng 4;
          constants = 2 + Rng.int rng 3 }
        ~depth:2
    in
    let cfg = Pipesched_cflow.Lower.lower prog in
    for n = 0 to Pipesched_cflow.Cfg.length cfg - 1 do
      record (Pipesched_cflow.Cfg.node cfg n).Pipesched_cflow.Cfg.block
    done
  done;
  check Alcotest.string "digest of Block.to_string" generator_golden_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)
(* Kernels                                                             *)

let test_kernels_parse () =
  List.iter
    (fun (k : Kernels.t) ->
      match Parser.parse k.Kernels.source with
      | prog ->
        check bool_t (k.Kernels.name ^ " loopedness") k.Kernels.looped
          (not (Ast.straight_line prog))
      | exception Parser.Error msg ->
        Alcotest.failf "%s: %s" k.Kernels.name msg)
    Kernels.all;
  let names = List.map (fun k -> k.Kernels.name) Kernels.all in
  check bool_t "unique names" true
    (List.length names = List.length (List.sort_uniq compare names));
  check bool_t "find" true (Kernels.find "dot4" <> None);
  check bool_t "find missing" true (Kernels.find "nope" = None)

let test_kernels_compile_faithfully () =
  List.iter
    (fun ((k : Kernels.t), prog) ->
      let blk = Compile.compile_program prog in
      let vars =
        List.sort_uniq compare (Ast.read_vars prog @ Ast.written_vars prog)
      in
      check bool_t (k.Kernels.name ^ " faithful") true
        (Interp.equivalent_on prog blk ~env:(env_of_seed 27) ~vars))
    (Kernels.straight_line ())

let test_kernels_looped_run () =
  (* Positive inputs guarantee termination of the branchy kernels. *)
  let env v = 1 + (Hashtbl.hash v mod 7) in
  List.iter
    (fun (k : Kernels.t) ->
      if k.Kernels.looped then begin
        let prog = Parser.parse k.Kernels.source in
        let reference = Interp.run_program ~fuel:100_000 prog ~env in
        let cfg = Pipesched_cflow.Lower.lower prog in
        let got = Pipesched_cflow.Cfg.run ~fuel:100_000 cfg ~env in
        List.iter
          (fun (v, x) ->
            if v.[0] <> '$' then
              check bool_t
                (Printf.sprintf "%s: %s" k.Kernels.name v)
                true
                (Option.value ~default:(env v) (List.assoc_opt v got) = x))
          reference
      end)
    Kernels.all

(* ------------------------------------------------------------------ *)
(* Schedule combinators                                                *)

let take_events ~seed n s = List.of_seq (Seq.take n (Schedule.events ~seed s))
let times es = List.map (fun e -> e.Schedule.time) es
let payloads es = List.map (fun e -> e.Schedule.payload) es
let float_list_t = Alcotest.(list (float 0.0))

let test_schedule_determinism () =
  let s =
    Schedule.mix
      [ Schedule.every ~period:1.0 Rng.bits;
        Schedule.delayed 0.5 (Schedule.limited 20 (Schedule.every ~period:2.0 Rng.bits)) ]
  in
  let a = take_events ~seed:11 50 s in
  let b = take_events ~seed:11 50 s in
  check bool_t "same seed, same events" true (a = b);
  let c = take_events ~seed:12 50 s in
  check bool_t "different seed, different payloads" true
    (payloads a <> payloads c);
  (* Forcing is pure: a partial earlier forcing never perturbs a later
     full one. *)
  Schedule.iter ~seed:11 ~limit:7 ignore s;
  check bool_t "forcing twice is stable" true (take_events ~seed:11 50 s = a)

let test_schedule_limited_drop_laws () =
  let s = Schedule.every ~period:1.0 Rng.bits in
  let whole = take_events ~seed:3 30 s in
  (* [limited] is a prefix of the same stream, [drop] the rest: slicing
     commutes with generation (no reseeding on either side). *)
  check bool_t "limited = prefix" true
    (take_events ~seed:3 30 (Schedule.limited 10 s)
     = (List.filteri (fun i _ -> i < 10) whole));
  check bool_t "drop = suffix" true
    (take_events ~seed:3 20 (Schedule.drop 10 s)
     = List.filteri (fun i _ -> i >= 10) whole);
  check bool_t "limited of limited = min" true
    (take_events ~seed:3 30 (Schedule.limited 7 (Schedule.limited 10 s))
     = take_events ~seed:3 30 (Schedule.limited 7 s));
  check int_t "limited 0 is empty" 0
    (List.length (take_events ~seed:3 5 (Schedule.limited 0 s)));
  Alcotest.check_raises "negative limited"
    (Invalid_argument "Schedule.limited: negative count") (fun () ->
      ignore (Schedule.limited (-1) s))

let test_schedule_delayed_law () =
  let s = Schedule.limited 10 (Schedule.every ~period:1.0 Rng.bits) in
  let base = take_events ~seed:9 10 s in
  let shifted = take_events ~seed:9 10 (Schedule.delayed 4.0 s) in
  check float_list_t "times shift by the delay"
    (List.map (fun t -> t +. 4.0) (times base))
    (times shifted);
  check bool_t "payloads unchanged" true (payloads base = payloads shifted);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Schedule.delayed: negative delay") (fun () ->
      ignore (Schedule.delayed (-1.0) s))

let test_schedule_mix_laws () =
  check int_t "mix [] is empty" 0
    (List.length (take_events ~seed:1 5 (Schedule.mix [])));
  (* Left bias on ties: both singletons fire at t = 0. *)
  check bool_t "ties break toward the earlier stream" true
    (payloads (take_events ~seed:1 2 (Schedule.mix [ Schedule.pure "a"; Schedule.pure "b" ]))
     = [ "a"; "b" ]);
  (* Counts add and the merge is time-sorted. *)
  let a = Schedule.limited 10 (Schedule.every ~period:3.0 Rng.bits) in
  let b =
    Schedule.delayed 1.0 (Schedule.limited 15 (Schedule.every ~period:2.0 Rng.bits))
  in
  let merged = take_events ~seed:5 100 (Schedule.mix [ a; b ]) in
  check int_t "counts add" 25 (List.length merged);
  let rec sorted = function
    | e1 :: (e2 :: _ as rest) ->
      e1.Schedule.time <= e2.Schedule.time && sorted rest
    | _ -> true
  in
  check bool_t "time-sorted" true (sorted merged)

let test_schedule_periodic_shapes () =
  check float_list_t "every fires on the grid"
    [ 0.0; 2.0; 4.0; 6.0 ]
    (times (take_events ~seed:2 4 (Schedule.every ~period:2.0 Rng.bits)));
  check float_list_t "repeating shifts each copy"
    [ 0.0; 1.5; 3.0 ]
    (times (take_events ~seed:2 9 (Schedule.repeating 3 ~period:1.5 Schedule.(pure ()))));
  check int_t "burst fires all copies at once" 5
    (List.length (take_events ~seed:2 9 (Schedule.burst 5 Schedule.(pure ()))));
  check bool_t "burst times all zero" true
    (List.for_all (( = ) 0.0)
       (times (take_events ~seed:2 9 (Schedule.burst 5 Schedule.(pure ())))));
  (* soak 4/s for 2s = 8 copies, 0.25s apart. *)
  let soak = take_events ~seed:2 99 (Schedule.soak ~rate:4.0 ~duration:2.0 Schedule.(pure ())) in
  check int_t "soak count = rate * duration" 8 (List.length soak);
  check float_list_t "soak grid"
    [ 0.0; 0.25; 0.5; 0.75; 1.0; 1.25; 1.5; 1.75 ]
    (times soak);
  (* ramp stages start back to back. *)
  let ramp =
    take_events ~seed:2 99
      (Schedule.ramp ~stages:[ (1.0, 2.0); (2.0, 1.0) ] Schedule.(pure ()))
  in
  check float_list_t "ramp stage boundaries"
    [ 0.0; 1.0; 2.0; 2.5 ]
    (times ramp);
  (* A uniformly empty inner schedule terminates rather than diverging. *)
  check int_t "periodic of empty is empty" 0
    (List.length (take_events ~seed:2 5 (Schedule.periodic ~period:1.0 Schedule.empty)))

let test_seed_at_pins_seeds_stream () =
  (* The O(1) contract the mega study and synthgen stand on: [seed_at]
     must equal the actual payload of event [i] of [seeds]. *)
  List.iter
    (fun seed ->
      let got = payloads (take_events ~seed 64 (Schedule.seeds ~count:64)) in
      let want = List.init 64 (fun i -> Schedule.seed_at ~seed i) in
      check bool_t (Printf.sprintf "seed_at pins seeds (root %d)" seed) true
        (got = want))
    [ 0; 1; 1990; 123456789 ]

let schedule_sharding_partitions =
  qtest ~count:100 "sharded generation partitions the serial corpus"
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 40) (int_range 1 6))
    (fun (seed, count, shards) ->
      Printf.sprintf "seed=%d count=%d shards=%d" seed count shards)
    (fun (seed, count, shards) ->
      let serial = ref [] in
      Generator.stream ~seed ~start:0 ~count (fun i b -> serial := (i, b) :: !serial);
      let sharded = ref [] in
      for k = 0 to shards - 1 do
        let lo = k * count / shards and hi = (k + 1) * count / shards in
        Generator.stream ~seed ~start:lo ~count:(hi - lo) (fun i b ->
            sharded := (i, b) :: !sharded)
      done;
      List.for_all2
        (fun (i, b) (j, c) -> i = j && Block.equal b c)
        (List.rev !serial) (List.rev !sharded))

let schedule_drop_commutes =
  qtest ~count:100 "drop/limited slice = serial slice (seeds stream)"
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_bound 30) (int_bound 30))
    (fun (seed, lo, n) -> Printf.sprintf "seed=%d lo=%d n=%d" seed lo n)
    (fun (seed, lo, n) ->
      let s = Schedule.seeds ~count:(lo + n) in
      let whole = payloads (take_events ~seed (lo + n) s) in
      let slice =
        payloads (take_events ~seed n Schedule.(limited n (drop lo s)))
      in
      slice = List.filteri (fun i _ -> i >= lo) whole)

let () =
  Alcotest.run "synth"
    [ ( "frequency",
        [ Alcotest.test_case "defaults valid" `Quick test_default_valid;
          Alcotest.test_case "check rejects" `Quick test_check_rejects ] );
      ( "generator",
        [ Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "respects parameters" `Quick
            test_respects_parameters;
          Alcotest.test_case "rejects bad parameters" `Quick
            test_rejects_bad_params;
          generated_blocks_valid;
          generated_programs_compile_faithfully;
          Alcotest.test_case "op mix follows frequency" `Quick
            test_op_mix_follows_frequency;
          Alcotest.test_case "size mix shape" `Quick test_size_mix_shape;
          Alcotest.test_case "batch" `Quick test_batch;
          Alcotest.test_case "golden digest" `Quick test_generator_golden ] );
      ( "schedule",
        [ Alcotest.test_case "determinism" `Quick test_schedule_determinism;
          Alcotest.test_case "limited/drop laws" `Quick
            test_schedule_limited_drop_laws;
          Alcotest.test_case "delayed law" `Quick test_schedule_delayed_law;
          Alcotest.test_case "mix laws" `Quick test_schedule_mix_laws;
          Alcotest.test_case "periodic shapes" `Quick
            test_schedule_periodic_shapes;
          Alcotest.test_case "seed_at pins seeds" `Quick
            test_seed_at_pins_seeds_stream;
          schedule_sharding_partitions;
          schedule_drop_commutes ] );
      ( "kernels",
        [ Alcotest.test_case "parse" `Quick test_kernels_parse;
          Alcotest.test_case "compile faithfully" `Quick
            test_kernels_compile_faithfully;
          Alcotest.test_case "looped kernels run" `Quick
            test_kernels_looped_run ] ) ]
