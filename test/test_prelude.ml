(* Tests for Pipesched_prelude: Bitset and Rng. *)

module Bitset = Pipesched_prelude.Bitset
module Rng = Pipesched_prelude.Rng
open Helpers

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)

let test_empty () =
  let s = Bitset.create 100 in
  check int_t "cardinal" 0 (Bitset.cardinal s);
  for i = 0 to 99 do
    check bool_t "mem" false (Bitset.mem s i)
  done

let test_add_remove () =
  let s = Bitset.create 200 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  check int_t "cardinal" 4 (Bitset.cardinal s);
  check bool_t "mem 63" true (Bitset.mem s 63);
  check bool_t "mem 64" true (Bitset.mem s 64);
  check bool_t "mem 65" false (Bitset.mem s 65);
  Bitset.remove s 63;
  check bool_t "removed" false (Bitset.mem s 63);
  check int_t "cardinal after remove" 3 (Bitset.cardinal s)

let test_add_idempotent () =
  let s = Bitset.create 10 in
  Bitset.add s 5;
  Bitset.add s 5;
  check int_t "cardinal" 1 (Bitset.cardinal s)

let test_out_of_range () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s (-1));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem s 10))

let test_union_inter_subset () =
  let a = Bitset.create 70 and b = Bitset.create 70 in
  List.iter (Bitset.add a) [ 1; 3; 5; 64 ];
  List.iter (Bitset.add b) [ 3; 5; 7 ];
  let i = Bitset.inter a b in
  check (Alcotest.list int_t) "inter" [ 3; 5 ] (Bitset.elements i);
  check bool_t "subset inter a" true (Bitset.subset i a);
  check bool_t "subset inter b" true (Bitset.subset i b);
  check bool_t "not subset a b" false (Bitset.subset a b);
  Bitset.union_into ~into:b a;
  check (Alcotest.list int_t) "union" [ 1; 3; 5; 7; 64 ] (Bitset.elements b);
  check bool_t "a subset union" true (Bitset.subset a b)

let test_copy_independent () =
  let a = Bitset.create 10 in
  Bitset.add a 1;
  let b = Bitset.copy a in
  Bitset.add b 2;
  check bool_t "copy has 2" true (Bitset.mem b 2);
  check bool_t "original lacks 2" false (Bitset.mem a 2);
  check bool_t "equal after clear" false (Bitset.equal a b);
  Bitset.clear b;
  check int_t "cleared" 0 (Bitset.cardinal b)

let test_capacity_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: capacity mismatch")
    (fun () -> ignore (Bitset.subset a b))

let bitset_model =
  qtest ~count:300 "bitset matches a list-set model"
    QCheck2.Gen.(list (pair (int_bound 99) bool))
    (fun ops ->
      String.concat ";"
        (List.map (fun (i, add) -> Printf.sprintf "%d%b" i add) ops))
    (fun ops ->
      let s = Bitset.create 100 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (i, add) ->
          if add then begin
            Bitset.add s i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove s i;
            Hashtbl.remove model i
          end)
        ops;
      Bitset.cardinal s = Hashtbl.length model
      && List.for_all (fun i -> Hashtbl.mem model i) (Bitset.elements s))

let test_hash_raw_words () =
  let a = Bitset.create 100 and b = Bitset.create 100 in
  List.iter (Bitset.add a) [ 2; 63; 64; 99 ];
  List.iter (Bitset.add b) [ 99; 64; 63; 2 ];
  check bool_t "equal sets hash equally" true (Bitset.hash a = Bitset.hash b);
  check bool_t "non-negative" true (Bitset.hash a >= 0);
  Bitset.remove b 64;
  check bool_t "hash reflects membership" true
    (Bitset.hash a <> Bitset.hash b);
  (* raw_words is the live backing store, not a copy. *)
  let w = Bitset.raw_words a in
  Bitset.add a 7;
  check bool_t "raw_words aliases the set" true (w == Bitset.raw_words a);
  check bool_t "word updated" true (w.(0) land (1 lsl 7) <> 0)

(* Bit 62 is the sign bit: [1 lsl 62] is [min_int]. *)
let test_ntz_one_bit_words () =
  for k = 0 to 62 do
    check int_t (Printf.sprintf "ntz (1 lsl %d)" k) k (Bitset.ntz (1 lsl k))
  done

let test_popcount_words () =
  let rec clearing acc x =
    if x = 0 then acc else clearing (acc + 1) (x land (x - 1))
  in
  let rng = Rng.create 62 in
  let random _ =
    (* Dense and sparse words, half of them with the sign bit set. *)
    let w = Rng.bits rng in
    let w = if Rng.bool rng then w land Rng.bits rng else w in
    if Rng.bool rng then w lor min_int else w
  in
  List.iter
    (fun w -> check int_t (Printf.sprintf "popcount %x" w) (clearing 0 w)
        (Bitset.popcount w))
    ([ 0; 1; -1; min_int; max_int; min_int + 1; 1 lsl 61 ]
     @ List.init 10_000 random)

(* ------------------------------------------------------------------ *)
(* Memo_table                                                          *)

module Memo_table = Pipesched_prelude.Memo_table

let test_memo_insert_lookup () =
  let t = Memo_table.create ~capacity:16 ~key_words:2 ~value_words:3 in
  check int_t "capacity" 16 (Memo_table.capacity t);
  check int_t "empty" 0 (Memo_table.entries t);
  check int_t "absent" (-1) (Memo_table.find t ~hash:5 [| 1; 2 |]);
  check bool_t "store" true
    (Memo_table.store t ~hash:5 ~depth:3 ~key:[| 1; 2 |]
       ~value:[| 7; 0; 9 |]);
  check int_t "one entry" 1 (Memo_table.entries t);
  let slot = Memo_table.find t ~hash:5 [| 1; 2 |] in
  check bool_t "found" true (slot >= 0);
  check int_t "depth recorded" 3 (Memo_table.depth_at t slot);
  (* Same hash, different key: open addressing must not lie. *)
  check int_t "hash collision, other key" (-1)
    (Memo_table.find t ~hash:5 [| 1; 3 |]);
  (* Overwrite in place on key match: entry count stays put. *)
  check bool_t "overwrite" true
    (Memo_table.store t ~hash:5 ~depth:2 ~key:[| 1; 2 |]
       ~value:[| 6; 0; 9 |]);
  check int_t "still one entry" 1 (Memo_table.entries t);
  let slot = Memo_table.find t ~hash:5 [| 1; 2 |] in
  check int_t "depth replaced" 2 (Memo_table.depth_at t slot);
  Memo_table.clear t;
  check int_t "cleared" 0 (Memo_table.entries t);
  check int_t "gone" (-1) (Memo_table.find t ~hash:5 [| 1; 2 |])

let test_memo_dominance () =
  (* The table stores value rows and never interprets them: a caller's
     dominance test reads the stored row back through [values], at
     [slot * value_words].  The componentwise-<= truth table against the
     stored [2; 5; 0], run over the row read back. *)
  let t = Memo_table.create ~capacity:8 ~key_words:1 ~value_words:3 in
  ignore
    (Memo_table.store t ~hash:1 ~depth:0 ~key:[| 42 |] ~value:[| 2; 5; 0 |]);
  let slot = Memo_table.find t ~hash:1 [| 42 |] in
  let rows = Memo_table.values t in
  let dominates candidate =
    List.for_all Fun.id
      (List.mapi (fun i c -> rows.{(slot * 3) + i} <= c) candidate)
  in
  List.iter
    (fun (candidate, expect) ->
      check bool_t
        (Printf.sprintf "dominates [%s]"
           (String.concat ";" (List.map string_of_int candidate)))
        expect (dominates candidate))
    [ ([ 2; 5; 0 ], true );   (* equal *)
      ([ 3; 5; 0 ], true );   (* strictly worse first component *)
      ([ 2; 9; 4 ], true );   (* worse everywhere else *)
      ([ 1; 5; 0 ], false);   (* better nops *)
      ([ 2; 4; 0 ], false);   (* better pipe state *)
      ([ 2; 5; -1 ], false);  (* better residual *)
      ([ 9; 9; -1 ], false) ]; (* mixed: one better component kills it *)
  (* Growth moves every row: each is still read back at its new slot. *)
  let g =
    Memo_table.create_growing ~initial:1 ~capacity:64 ~key_words:1
      ~value_words:2
  in
  for k = 0 to 40 do
    ignore
      (Memo_table.store g ~hash:(k * 7) ~depth:k ~key:[| k |]
         ~value:[| k; -k |])
  done;
  check int_t "grown" 64 (Memo_table.allocated g);
  for k = 0 to 40 do
    let s = Memo_table.find g ~hash:(k * 7) [| k |] in
    let rows = Memo_table.values g in
    check bool_t (Printf.sprintf "row %d after growth" k) true
      (s >= 0 && rows.{s * 2} = k && rows.{(s * 2) + 1} = -k)
  done

let test_memo_capacity_one () =
  (* capacity 1 => probe window of 1 slot: the table still works, with
     eviction strictly by depth. *)
  let t = Memo_table.create ~capacity:1 ~key_words:1 ~value_words:1 in
  check int_t "capacity" 1 (Memo_table.capacity t);
  check bool_t "first store" true
    (Memo_table.store t ~hash:0 ~depth:5 ~key:[| 10 |] ~value:[| 0 |]);
  (* A deeper newcomer is dropped, the incumbent survives. *)
  check bool_t "deeper dropped" false
    (Memo_table.store t ~hash:0 ~depth:7 ~key:[| 11 |] ~value:[| 0 |]);
  check bool_t "incumbent intact" true
    (Memo_table.find t ~hash:0 [| 10 |] >= 0);
  check int_t "no evictions yet" 0 (Memo_table.evictions t);
  (* An equal-depth newcomer is also dropped (strict preference). *)
  check bool_t "equal depth dropped" false
    (Memo_table.store t ~hash:0 ~depth:5 ~key:[| 12 |] ~value:[| 0 |]);
  (* A shallower newcomer evicts. *)
  check bool_t "shallower evicts" true
    (Memo_table.store t ~hash:0 ~depth:4 ~key:[| 13 |] ~value:[| 0 |]);
  check int_t "evicted" 1 (Memo_table.evictions t);
  check int_t "old key gone" (-1) (Memo_table.find t ~hash:0 [| 10 |]);
  check bool_t "new key present" true
    (Memo_table.find t ~hash:0 [| 13 |] >= 0);
  check int_t "entries stable" 1 (Memo_table.entries t)

let test_memo_eviction_prefers_deepest () =
  (* Fill one probe window (capacity 8 => window 8) with depths 0..7 on
     colliding hashes, then insert at depth 3: the depth-7 entry goes. *)
  let t = Memo_table.create ~capacity:8 ~key_words:1 ~value_words:1 in
  for d = 0 to 7 do
    check bool_t "fill" true
      (Memo_table.store t ~hash:0 ~depth:d ~key:[| 100 + d |] ~value:[| d |])
  done;
  check int_t "full" 8 (Memo_table.entries t);
  check bool_t "evicting store" true
    (Memo_table.store t ~hash:0 ~depth:3 ~key:[| 200 |] ~value:[| 0 |]);
  check int_t "one eviction" 1 (Memo_table.evictions t);
  check int_t "deepest displaced" (-1) (Memo_table.find t ~hash:0 [| 107 |]);
  check bool_t "shallow survivors" true
    (List.for_all
       (fun d -> Memo_table.find t ~hash:0 [| 100 + d |] >= 0)
       [ 0; 1; 2; 3; 4; 5; 6 ]);
  check bool_t "newcomer stored" true (Memo_table.find t ~hash:0 [| 200 |] >= 0)

let test_memo_rounding_and_errors () =
  let t = Memo_table.create ~capacity:5 ~key_words:1 ~value_words:1 in
  check int_t "rounded up" 8 (Memo_table.capacity t);
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Memo_table.create: capacity must be >= 1") (fun () ->
      ignore (Memo_table.create ~capacity:0 ~key_words:1 ~value_words:1));
  Alcotest.check_raises "key size"
    (Invalid_argument "Memo_table: key length mismatch") (fun () ->
      ignore (Memo_table.find t ~hash:0 [| 1; 2 |]));
  Alcotest.check_raises "value size"
    (Invalid_argument "Memo_table: value length mismatch") (fun () ->
      ignore
        (Memo_table.store t ~hash:0 ~depth:0 ~key:[| 1 |] ~value:[| 1; 2 |]));
  Alcotest.check_raises "negative depth"
    (Invalid_argument "Memo_table.store: negative depth") (fun () ->
      ignore
        (Memo_table.store t ~hash:0 ~depth:(-1) ~key:[| 1 |] ~value:[| 1 |]))

let memo_model =
  qtest ~count:300 "memo table find agrees with a model map"
    QCheck2.Gen.(
      list (triple (int_bound 30) (int_bound 7) (int_bound 100)))
    (fun ops ->
      String.concat ";"
        (List.map (fun (k, d, v) -> Printf.sprintf "%d,%d,%d" k d v) ops))
    (fun ops ->
      (* Capacity ample (64 > 31 keys), so nothing is ever dropped or
         evicted and every stored key must be findable with its last
         value readable in its row. *)
      let t = Memo_table.create ~capacity:64 ~key_words:1 ~value_words:1 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, d, v) ->
          ignore (Memo_table.store t ~hash:k ~depth:d ~key:[| k |] ~value:[| v |]);
          Hashtbl.replace model k v)
        ops;
      Memo_table.entries t = Hashtbl.length model
      && Memo_table.evictions t = 0
      && Hashtbl.fold
           (fun k v ok ->
             ok
             &&
             let slot = Memo_table.find t ~hash:k [| k |] in
             slot >= 0 && (Memo_table.values t).{slot} = v)
           model true)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check int_t "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.bits a = Rng.bits b then incr same
  done;
  check bool_t "streams differ" true (!same < 5)

let test_copy () =
  let a = Rng.create 7 in
  ignore (Rng.bits a);
  let b = Rng.copy a in
  check int_t "copy continues identically" (Rng.bits a) (Rng.bits b)

let test_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.bits a) in
  let ys = List.init 20 (fun _ -> Rng.bits b) in
  check bool_t "split streams differ" true (xs <> ys)

let test_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    check bool_t "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_int_in () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    check bool_t "in closed range" true (v >= -5 && v <= 5)
  done

let test_int_uniformish () =
  let rng = Rng.create 5 in
  let counts = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      (* each bucket within 20% of the expected 2000 *)
      check bool_t "roughly uniform" true (c > 1600 && c < 2400))
    counts

let test_float_range () =
  let rng = Rng.create 6 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    check bool_t "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_weighted () =
  let rng = Rng.create 8 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.weighted rng [ (1, "a"); (9, "b"); (0, "c") ] in
    Hashtbl.replace counts x
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts x))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  check int_t "zero-weight never drawn" 0 (get "c");
  check bool_t "ratio approx 1:9" true
    (get "b" > 7 * get "a" && get "b" < 12 * get "a")

let test_shuffle_permutes () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check bool_t "same elements" true (sorted = Array.init 50 (fun i -> i));
  check bool_t "actually moved" true (arr <> Array.init 50 (fun i -> i))

let test_choose () =
  let rng = Rng.create 10 in
  for _ = 1 to 100 do
    let v = Rng.choose rng [| 1; 2; 3 |] in
    check bool_t "member" true (List.mem v [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose rng [||]))

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)

module Budget = Pipesched_prelude.Budget

let test_budget_lambda_parity () =
  (* Checked before each spend, [lambda = l] admits exactly [l] units of
     work — the same accounting as the paper's lambda. *)
  let b = Budget.start ~lambda:5 () in
  for _ = 1 to 5 do
    check bool_t "not exhausted before the spend" false (Budget.exhausted b);
    Budget.spend b
  done;
  check bool_t "exhausted after 5 spends" true (Budget.exhausted b);
  check bool_t "by lambda" true (b.Budget.stopped = Budget.Curtailed_lambda);
  check int_t "spent" 5 b.Budget.spent

(* A fake clock at [!now] that counts its reads, installed for [f]. *)
let with_fake_clock now f =
  let reads = ref 0 in
  Budget.set_clock (fun () ->
      incr reads;
      !now);
  Fun.protect
    ~finally:(fun () -> Budget.set_clock Unix.gettimeofday)
    (fun () -> f reads)

let test_budget_sticky () =
  let now = ref 0.0 in
  with_fake_clock now (fun reads ->
      let b = Budget.start ~lambda:1 ~deadline_s:1.0 () in
      Budget.spend b;
      check bool_t "lambda trips first" true (Budget.exhausted b);
      (* A deadline passing later does not change the recorded reason,
         and the tripped budget reads no clock. *)
      now := 5.0;
      let r0 = !reads in
      check bool_t "still exhausted" true (Budget.exhausted b);
      check bool_t "reason is sticky" true
        (b.Budget.stopped = Budget.Curtailed_lambda);
      check int_t "no clock read once tripped" r0 !reads);
  (* A deadline trip holds at the off-stride counts after it, which
     [Windowed] reaches by spending its commits unchecked. *)
  let now = ref 0.0 in
  with_fake_clock now (fun reads ->
      let b = Budget.start ~lambda:100 ~deadline_s:1.0 () in
      now := 5.0;
      check bool_t "deadline trips at 0" true (Budget.exhausted b);
      Budget.spend b;
      let r0 = !reads in
      check bool_t "still exhausted off-stride" true (Budget.exhausted b);
      check bool_t "by the deadline" true
        (b.Budget.stopped = Budget.Curtailed_deadline);
      check int_t "no clock read once tripped" r0 !reads)

let test_budget_deadline_strided_clock () =
  let now = ref 100.0 in
  with_fake_clock now (fun reads ->
      let b = Budget.start ~lambda:max_int ~deadline_s:1.0 () in
      check bool_t "within the deadline" false (Budget.exhausted b);
      (* Off-stride spends never consult the clock. *)
      let r0 = !reads in
      for _ = 1 to Budget.check_stride - 1 do
        Budget.spend b;
        check bool_t "still running" false (Budget.exhausted b)
      done;
      check int_t "no clock reads off-stride" r0 !reads;
      now := 102.0;
      Budget.spend b;
      (* spent is a stride multiple again: the expiry is noticed. *)
      check bool_t "deadline tripped" true (Budget.exhausted b);
      check bool_t "by the deadline" true
        (b.Budget.stopped = Budget.Curtailed_deadline))

let test_budget_no_deadline_never_reads_clock () =
  (* The determinism contract: without a deadline the clock must never
     be consulted, so call-bounded searches are bit-for-bit stable. *)
  Budget.set_clock (fun () ->
      Alcotest.fail "clock read by a deadline-free budget");
  Fun.protect
    ~finally:(fun () -> Budget.set_clock Unix.gettimeofday)
    (fun () ->
      check int_t "first check returns lambda" 40
        (Budget.checkpoint (Budget.start ~lambda:40 ()) ~spent:0);
      let b = Budget.start ~lambda:40 () in
      for _ = 1 to 64 do
        Budget.spend b;
        ignore (Budget.exhausted b)
      done;
      check bool_t "lambda still enforced" true
        (b.Budget.stopped = Budget.Curtailed_lambda))

let test_budget_expiry_lambda_only_when_tripped () =
  (* The budget reports lambda only when the counter actually tripped. *)
  let b = Budget.start ~lambda:5 () in
  for _ = 1 to 4 do
    Budget.spend b
  done;
  check bool_t "not yet" false (Budget.exhausted b);
  check bool_t "nothing recorded" true (b.Budget.stopped = Budget.Complete);
  Budget.spend b;
  check bool_t "tripped" true (Budget.exhausted b);
  check bool_t "by lambda" true (b.Budget.stopped = Budget.Curtailed_lambda)

let test_budget_lambda_outranks_deadline () =
  let now = ref 10.0 in
  with_fake_clock now (fun _ ->
      let b = Budget.start ~lambda:32 ~deadline_s:1.0 () in
      now := 20.0;
      for _ = 1 to 32 do
        Budget.spend b
      done;
      (* Both limits have passed at a stride multiple: lambda wins. *)
      check bool_t "exhausted" true (Budget.exhausted b);
      check bool_t "by lambda" true (b.Budget.stopped = Budget.Curtailed_lambda))

(* A search that keeps its own count and calls [checkpoint] only at 0
   and at the counts it returns stops at the same unit, for the same
   reason and after the same clock reads as one that calls [exhausted]
   before every unit. *)
let test_budget_checkpoint_agrees () =
  let run ~inline ~lambda ~deadline_s ~expire_at =
    let now = ref 0.0 in
    with_fake_clock now (fun reads ->
        let b = Budget.start ~lambda ?deadline_s () in
        let spent = ref 0 and next = ref 0 and stopped = ref false in
        while not !stopped do
          if !spent = expire_at then now := 100.0;
          (if not inline then stopped := Budget.exhausted b
           else if !spent >= !next then
             match Budget.checkpoint b ~spent:!spent with
             | n -> next := n
             | exception Budget.Exhausted -> stopped := true);
          if not !stopped then begin
            incr spent;
            if not inline then Budget.spend b
          end
        done;
        (!spent, b.Budget.stopped, !reads))
  in
  List.iter
    (fun (lambda, deadline_s, expire_at) ->
      let ((spent, _, reads) as expected) =
        run ~inline:false ~lambda ~deadline_s ~expire_at
      in
      let got = run ~inline:true ~lambda ~deadline_s ~expire_at in
      let what =
        Printf.sprintf "lambda %d, deadline %b, clock past it at %d" lambda
          (deadline_s <> None) expire_at
      in
      check bool_t what true (got = expected);
      check bool_t (what ^ ": stops at a stride multiple or lambda") true
        (spent = lambda || spent land (Budget.check_stride - 1) = 0);
      if deadline_s = None then check int_t (what ^ ": no clock") 0 reads)
    [ (0, None, max_int); (5, None, max_int); (100, None, 3);
      (0, Some 1.0, 0); (31, Some 1.0, max_int); (32, Some 1.0, 32);
      (100, Some 1.0, max_int); (100, Some 1.0, 0); (100, Some 1.0, 1);
      (100, Some 1.0, 33); (100, Some 1.0, 64); (100, Some 1.0, 97);
      (1_000, Some 1.0, 500) ]

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)

module Lru = Pipesched_prelude.Lru

let test_lru_capacity_bound () =
  let c = Lru.create ~capacity:3 in
  for i = 1 to 10 do
    Lru.put c (string_of_int i) i
  done;
  check int_t "length stays at capacity" 3 (Lru.length c);
  check int_t "evictions" 7 (Lru.evictions c);
  check bool_t "newest survives" true (Lru.mem c "10");
  check bool_t "oldest gone" false (Lru.mem c "1")

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:3 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Lru.put c "c" 3;
  (* Touch "a" so "b" becomes least-recent, then overflow. *)
  check bool_t "hit a" true (Lru.find c "a" = Some 1);
  Lru.put c "d" 4;
  check bool_t "b evicted" false (Lru.mem c "b");
  check bool_t "a kept" true (Lru.mem c "a");
  check bool_t "mru order" true (Lru.keys_mru c = [ "d"; "a"; "c" ]);
  (* Replacing an existing key promotes without evicting. *)
  Lru.put c "c" 33;
  check int_t "no extra eviction" 1 (Lru.evictions c);
  check bool_t "c promoted" true (Lru.keys_mru c = [ "c"; "d"; "a" ]);
  check bool_t "c updated" true (Lru.find c "c" = Some 33)

let test_lru_counters () =
  let c = Lru.create ~capacity:2 in
  check bool_t "miss" true (Lru.find c "x" = None);
  Lru.put c "x" 1;
  check bool_t "hit" true (Lru.find c "x" = Some 1);
  check bool_t "miss again" true (Lru.find c "y" = None);
  check int_t "hits" 1 (Lru.hits c);
  check int_t "misses" 2 (Lru.misses c);
  Lru.clear c;
  check int_t "cleared hits" 0 (Lru.hits c);
  check int_t "cleared length" 0 (Lru.length c);
  check bool_t "cleared" true (Lru.find c "x" = None)

let test_lru_zero_capacity () =
  let c = Lru.create ~capacity:0 in
  Lru.put c "x" 1;
  check int_t "inert" 0 (Lru.length c);
  check bool_t "always misses" true (Lru.find c "x" = None);
  check int_t "no evictions" 0 (Lru.evictions c)

let test_lru_concurrent () =
  (* Hammer one cache from several domains; the exercise is mutual
     exclusion (no torn list), checked by a consistent final state. *)
  let c = Lru.create ~capacity:64 in
  let worker seed () =
    let rng = Rng.create seed in
    for _ = 1 to 2_000 do
      let k = string_of_int (Rng.int rng 100) in
      if Rng.bool rng then ignore (Lru.find c k) else Lru.put c k seed
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join domains;
  check bool_t "within capacity" true (Lru.length c <= 64);
  check int_t "list and table agree" (Lru.length c)
    (List.length (Lru.keys_mru c));
  check bool_t "accounting adds up" true
    (Lru.hits c + Lru.misses c <= 4 * 2_000)

(* ------------------------------------------------------------------ *)
(* Fault: deterministic chaos injection                                 *)

module Fault = Pipesched_prelude.Fault

let test_fault_parse () =
  let ok spec want =
    match Fault.parse spec with
    | Ok specs -> check bool_t ("parses " ^ spec) true (specs = want)
    | Error e -> Alcotest.failf "spec %S rejected: %s" spec e
  in
  ok "" [];
  ok "solver:0.05:1" [ (Fault.Solver, 0.05, 1) ];
  ok "solver:0.05:1,write_response:0.02:7"
    [ (Fault.Solver, 0.05, 1); (Fault.Write_response, 0.02, 7) ];
  ok " cache_insert : 1 : -3 ,accept:0:0"
    [ (Fault.Cache_insert, 1.0, -3); (Fault.Accept, 0.0, 0) ];
  let bad spec =
    check bool_t ("rejects " ^ spec) true
      (match Fault.parse spec with Error _ -> true | Ok _ -> false)
  in
  bad "nope:0.5:1";
  bad "solver:1.5:1";
  bad "solver:-0.1:1";
  bad "solver:x:1";
  bad "solver:0.5:y";
  bad "solver:0.5";
  List.iter
    (fun s ->
      check bool_t "site name round-trips" true
        (Fault.site_of_string (Fault.site_to_string s) = Some s))
    Fault.all_sites

let test_fault_determinism () =
  Fault.arm [ (Fault.Solver, 0.3, 17) ];
  Fun.protect ~finally:Fault.disarm (fun () ->
      let keys = List.init 500 (fun i -> Printf.sprintf "request-%d" i) in
      let verdicts = List.map (fun k -> Fault.fire Fault.Solver ~key:k) keys in
      (* Same arming, same keys: same verdicts, in any order. *)
      let again =
        List.map (fun k -> Fault.fire Fault.Solver ~key:k) (List.rev keys)
      in
      check bool_t "verdicts are a pure function of the key" true
        (List.rev verdicts = again);
      let fired = List.length (List.filter Fun.id verdicts) in
      check bool_t "rate in the right ballpark" true
        (fired > 50 && fired < 250);
      (* The counter saw both passes. *)
      check int_t "counter counts fires" (2 * fired)
        (Fault.injected Fault.Solver);
      (* Concurrent fire from several domains cannot perturb verdicts. *)
      let results = Array.make 4 [] in
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                results.(d) <-
                  List.map (fun k -> Fault.fire Fault.Solver ~key:k) keys))
      in
      List.iter Domain.join domains;
      Array.iter
        (fun r ->
          check bool_t "interleaving-independent" true (r = verdicts))
        results)

let test_fault_extremes_and_disarm () =
  Fault.arm [ (Fault.Solver, 1.0, 1); (Fault.Accept, 0.0, 1) ];
  Fun.protect ~finally:Fault.disarm (fun () ->
      check bool_t "prob 1 always fires" true (Fault.fire Fault.Solver ~key:"k");
      check bool_t "prob 0 never fires" false (Fault.fire Fault.Accept ~key:"k");
      check bool_t "unarmed site never fires" false
        (Fault.fire Fault.Write_response ~key:"k");
      check bool_t "armed" true (Fault.armed Fault.Solver);
      check bool_t "not armed" false (Fault.armed Fault.Write_response);
      (match
         try
           Fault.guard Fault.Solver ~key:"k";
           None
         with Fault.Injected site -> Some site
       with
      | Some site -> check bool_t "guard raises with site name" true
          (site = "solver")
      | None -> Alcotest.fail "guard did not raise");
      check bool_t "fires counted" true (Fault.total_injected () >= 2));
  check bool_t "disarmed" false (Fault.armed Fault.Solver);
  check bool_t "nothing fires after disarm" false
    (Fault.fire Fault.Solver ~key:"k");
  check int_t "counters reset" 0 (Fault.total_injected ())

let test_fault_seed_and_key_sensitivity () =
  let verdicts seed =
    Fault.arm [ (Fault.Solver, 0.5, seed) ];
    Fun.protect ~finally:Fault.disarm (fun () ->
        List.init 200 (fun i ->
            Fault.fire Fault.Solver ~key:(string_of_int i)))
  in
  check bool_t "different seeds, different draws" true
    (verdicts 1 <> verdicts 2);
  check bool_t "same seed replays" true (verdicts 1 = verdicts 1)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

module Json = Pipesched_prelude.Json

let test_json_roundtrip () =
  let v =
    Json.Assoc
      [ ("id", Json.Int 7);
        ("ok", Json.Bool true);
        ("pi", Json.Float 3.5);
        ("msg", Json.String "a \"quoted\"\nline\twith \\ stuff");
        ("items", Json.List [ Json.Int 1; Json.Null; Json.String "x" ]);
        ("nested", Json.Assoc [ ("empty", Json.List []) ]) ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> check bool_t "roundtrip" true (v = v')
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_parse_basics () =
  check bool_t "int" true (Json.parse "42" = Ok (Json.Int 42));
  check bool_t "negative" true (Json.parse "-3" = Ok (Json.Int (-3)));
  check bool_t "float" true (Json.parse "2.5" = Ok (Json.Float 2.5));
  check bool_t "ws" true
    (Json.parse "  {\"a\" : [1, 2]}  "
    = Ok (Json.Assoc [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]));
  check bool_t "escape" true
    (Json.parse "\"a\\u0041\\n\"" = Ok (Json.String "aA\n"));
  check bool_t "trailing rejected" true
    (match Json.parse "1 2" with Error _ -> true | Ok _ -> false);
  check bool_t "unterminated rejected" true
    (match Json.parse "{\"a\": 1" with Error _ -> true | Ok _ -> false);
  check bool_t "member" true
    (Json.member "a" (Json.Assoc [ ("a", Json.Int 1) ]) = Some (Json.Int 1));
  check bool_t "float of int" true
    (Json.to_float_opt (Json.Int 2) = Some 2.0)

(* OCaml's [int_of_string] accepts underscores, a leading '+', leading
   zeros and 0x/0o/0b prefixes — none of which are JSON.  The strict
   grammar pass must reject them all while keeping every number JSON
   does admit. *)
let test_json_strict_numbers () =
  let rejects s = match Json.parse s with Error _ -> true | Ok _ -> false in
  check bool_t "underscored int" true (rejects "1_2");
  check bool_t "leading plus" true (rejects "+5");
  check bool_t "leading plus in list" true (rejects "[+5]");
  check bool_t "leading zero" true (rejects "05");
  check bool_t "hex prefix" true (rejects "0x1f");
  check bool_t "bare trailing dot" true (rejects "1.");
  check bool_t "bare exponent" true (rejects "1e");
  check bool_t "dot without int part" true (rejects ".5");
  check bool_t "underscored float" true (rejects "1_0.5");
  check bool_t "zero" true (Json.parse "0" = Ok (Json.Int 0));
  check bool_t "negative zero point five" true
    (Json.parse "-0.5" = Ok (Json.Float (-0.5)));
  check bool_t "exponent with plus" true
    (Json.parse "1e+5" = Ok (Json.Float 100000.0));
  check bool_t "capital exponent" true
    (Json.parse "2E-2" = Ok (Json.Float 0.02));
  check bool_t "zero-led fraction" true
    (Json.parse "0.25" = Ok (Json.Float 0.25))

(* The regression that motivated the strict pass: [int_of_string
   "0x1_2a"] succeeds, so the lenient parser accepted "\u1_2a" as
   U+012A.  A \u escape is exactly four hex digits, nothing else. *)
let test_json_strict_unicode_escape () =
  let rejects s = match Json.parse s with Error _ -> true | Ok _ -> false in
  check bool_t "underscored escape" true (rejects "\"\\u1_2a\"");
  check bool_t "non-hex escape" true (rejects "\"\\u00gg\"");
  check bool_t "truncated escape" true (rejects "\"\\u00\"");
  check bool_t "signed escape" true (rejects "\"\\u-001\"");
  check bool_t "space in escape" true (rejects "\"\\u 041\"");
  check bool_t "plain BMP escape" true
    (Json.parse "\"\\u0041\"" = Ok (Json.String "A"));
  check bool_t "uppercase hex accepted" true
    (Json.parse "\"\\u00E9\"" = Ok (Json.String "\xc3\xa9"))

(* Structural equality modulo the Int/Float boundary: the printer emits
   integer-valued floats without a decimal point ("%.17g" of 1.0 is
   "1"), which legitimately reparse as Int. *)
let rec json_equal a b =
  match (a, b) with
  | Json.Int i, Json.Float f | Json.Float f, Json.Int i -> float_of_int i = f
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Assoc xs, Json.Assoc ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k, v) (k', v') -> String.equal k k' && json_equal v v')
         xs ys
  | a, b -> a = b

let json_gen =
  QCheck2.Gen.(
    sized_size (int_bound 3) @@ fix (fun self n ->
        let leaf =
          oneof
            [ return Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun i -> Json.Int i) int;
              map (fun f -> Json.Float f) (float_range (-1e6) 1e6);
              map
                (fun s -> Json.String s)
                (string_size ~gen:printable (int_bound 8)) ]
        in
        if n = 0 then leaf
        else
          oneof
            [ leaf;
              map (fun xs -> Json.List xs)
                (list_size (int_bound 3) (self (n - 1)));
              map
                (fun kvs -> Json.Assoc kvs)
                (list_size (int_bound 3)
                   (pair
                      (string_size ~gen:printable (int_bound 6))
                      (self (n - 1)))) ]))

let json_print_parse_roundtrip =
  qtest ~count:500 "print/parse round-trips" json_gen Json.to_string
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' -> json_equal j j'
      | Error _ -> false)

let json_escape_strictness =
  qtest ~count:500 "\\u escapes parse iff exactly 4 hex digits"
    QCheck2.Gen.(
      string_size
        ~gen:
          (oneofl
             [ '0'; '9'; 'a'; 'f'; 'A'; 'F'; '_'; 'g'; 'x'; '+'; '-'; ' ' ])
        (return 4))
    (fun s -> Printf.sprintf "%S" s)
    (fun s ->
      let is_hex = function
        | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
        | _ -> false
      in
      let well_formed = String.for_all is_hex s in
      match Json.parse (Printf.sprintf "\"\\u%s\"" s) with
      | Ok _ -> well_formed
      | Error _ -> not well_formed)

(* [Int] writes its digits straight into the output buffer; the bytes
   must be those of [string_of_int], sign and [min_int] included. *)
let test_json_int_pinned () =
  List.iter
    (fun i ->
      check Alcotest.string (string_of_int i) (string_of_int i)
        (Json.to_string (Json.Int i)))
    [ 0; -1; 1; 9; 10; -10; max_int; min_int; max_int - 1; min_int + 1 ]

let json_int_digits =
  qtest ~count:1000 "Int renders like string_of_int"
    QCheck2.Gen.(oneof [ int; small_signed_int ])
    string_of_int
    (fun i -> String.equal (Json.to_string (Json.Int i)) (string_of_int i))

(* Nesting is bounded: a line of '['s is refused at the first bracket
   past the limit, and nesting exactly at the limit still parses. *)
let test_json_depth () =
  check
    Alcotest.(result reject string)
    "100,000 brackets"
    (Error "JSON parse error at offset 512: nesting deeper than 512")
    (Result.map ignore (Json.parse (String.make 100_000 '[')));
  let arrays k = String.make k '[' ^ String.make k ']' in
  check bool_t "512 arrays" true (Result.is_ok (Json.parse (arrays 512)));
  check bool_t "513 arrays" false (Result.is_ok (Json.parse (arrays 513)));
  (* Objects count too: an array, an object, then arrays. *)
  let mixed k = "[{\"a\":" ^ arrays (k - 2) ^ "}]" in
  check bool_t "512 mixed" true (Result.is_ok (Json.parse (mixed 512)));
  check bool_t "513 mixed" false (Result.is_ok (Json.parse (mixed 513)))

let () =
  Alcotest.run "prelude"
    [ ( "bitset",
        [ Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "add idempotent" `Quick test_add_idempotent;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "union/inter/subset" `Quick
            test_union_inter_subset;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "capacity mismatch" `Quick
            test_capacity_mismatch;
          Alcotest.test_case "hash and raw_words" `Quick
            test_hash_raw_words;
          bitset_model;
          Alcotest.test_case "ntz of every one-bit word" `Quick
            test_ntz_one_bit_words;
          Alcotest.test_case "popcount against bit clearing" `Quick
            test_popcount_words ] );
      ( "memo_table",
        [ Alcotest.test_case "insert/lookup/overwrite" `Quick
            test_memo_insert_lookup;
          Alcotest.test_case "dominance truth table" `Quick
            test_memo_dominance;
          Alcotest.test_case "capacity 1" `Quick test_memo_capacity_one;
          Alcotest.test_case "eviction prefers deepest" `Quick
            test_memo_eviction_prefers_deepest;
          Alcotest.test_case "rounding and errors" `Quick
            test_memo_rounding_and_errors;
          memo_model ] );
      ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "different seeds" `Quick test_different_seeds;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "split" `Quick test_split_independent;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "uniformity" `Quick test_int_uniformish;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "weighted" `Quick test_weighted;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutes;
          Alcotest.test_case "choose" `Quick test_choose ] );
      ( "budget",
        [ Alcotest.test_case "lambda parity" `Quick test_budget_lambda_parity;
          Alcotest.test_case "sticky reason" `Quick test_budget_sticky;
          Alcotest.test_case "strided deadline clock" `Quick
            test_budget_deadline_strided_clock;
          Alcotest.test_case "no deadline, no clock" `Quick
            test_budget_no_deadline_never_reads_clock;
          Alcotest.test_case "expiry lambda only when tripped" `Quick
            test_budget_expiry_lambda_only_when_tripped;
          Alcotest.test_case "lambda outranks the deadline" `Quick
            test_budget_lambda_outranks_deadline;
          Alcotest.test_case "checkpoint agrees with exhausted" `Quick
            test_budget_checkpoint_agrees ] );
      ( "lru",
        [ Alcotest.test_case "capacity bound" `Quick test_lru_capacity_bound;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "hit/miss counters" `Quick test_lru_counters;
          Alcotest.test_case "zero capacity inert" `Quick
            test_lru_zero_capacity;
          Alcotest.test_case "concurrent access" `Quick test_lru_concurrent ] );
      ( "fault",
        [ Alcotest.test_case "spec parsing" `Quick test_fault_parse;
          Alcotest.test_case "content-keyed determinism" `Quick
            test_fault_determinism;
          Alcotest.test_case "extremes and disarm" `Quick
            test_fault_extremes_and_disarm;
          Alcotest.test_case "seed and key sensitivity" `Quick
            test_fault_seed_and_key_sensitivity ] );
      ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "strict numbers" `Quick test_json_strict_numbers;
          Alcotest.test_case "strict unicode escapes" `Quick
            test_json_strict_unicode_escape;
          json_print_parse_roundtrip;
          json_escape_strictness;
          Alcotest.test_case "int digits pinned" `Quick test_json_int_pinned;
          json_int_digits;
          Alcotest.test_case "depth bound" `Quick test_json_depth ] ) ]
