(* Tests for Pipesched_ir: Op, Operand, Tuple, Block, Dag. *)

open Pipesched_ir
module Bitset = Pipesched_prelude.Bitset
module Rng = Pipesched_prelude.Rng
open Helpers

(* ------------------------------------------------------------------ *)
(* Op                                                                  *)

let test_op_roundtrip () =
  List.iter
    (fun op ->
      check bool_t (Op.to_string op) true
        (Op.of_string (Op.to_string op) = Some op);
      check bool_t "case-insensitive" true
        (Op.of_string (String.uppercase_ascii (Op.to_string op)) = Some op))
    Op.all;
  check bool_t "unknown" true (Op.of_string "Bogus" = None)

let test_op_of_string_case () =
  List.iter
    (fun op ->
      let name = Op.to_string op in
      let mixed =
        String.mapi
          (fun i c ->
            if i mod 2 = 0 then Char.uppercase_ascii c
            else Char.lowercase_ascii c)
          name
      in
      List.iter
        (fun text -> check bool_t text true (Op.of_string text = Some op))
        [ String.lowercase_ascii name; String.uppercase_ascii name; mixed ])
    Op.all;
  List.iter
    (fun text ->
      check bool_t (Printf.sprintf "%S" text) true (Op.of_string text = None))
    [ ""; "loadx"; "lo ad" ]

let test_op_arity () =
  check int_t "const" 0 (Op.value_arity Op.Const);
  check int_t "load" 0 (Op.value_arity Op.Load);
  check int_t "store" 1 (Op.value_arity Op.Store);
  check int_t "neg" 1 (Op.value_arity Op.Neg);
  check int_t "add" 2 (Op.value_arity Op.Add)

let test_op_eval () =
  check int_t "add" 7 (Op.eval2 Op.Add 3 4);
  check int_t "sub" (-1) (Op.eval2 Op.Sub 3 4);
  check int_t "mul" 12 (Op.eval2 Op.Mul 3 4);
  check int_t "div" 3 (Op.eval2 Op.Div 13 4);
  check int_t "div0 total" 0 (Op.eval2 Op.Div 13 0);
  check int_t "mod0 total" 0 (Op.eval2 Op.Mod 13 0);
  check int_t "neg" (-3) (Op.eval1 Op.Neg 3);
  check int_t "mov" 3 (Op.eval1 Op.Mov 3);
  Alcotest.check_raises "eval2 on unary"
    (Invalid_argument "Op.eval2: not a binary operation") (fun () ->
      ignore (Op.eval2 Op.Neg 1 2))

let op_commutative_sound =
  qtest ~count:200 "commutative ops commute"
    QCheck2.Gen.(pair small_int small_int)
    (fun (x, y) -> Printf.sprintf "(%d,%d)" x y)
    (fun (x, y) ->
      List.for_all
        (fun op ->
          (not (Op.commutative op)) || Op.eval2 op x y = Op.eval2 op y x)
        Op.binary_ops)

let test_op_pure () =
  check bool_t "load impure" false (Op.pure Op.Load);
  check bool_t "store impure" false (Op.pure Op.Store);
  check bool_t "add pure" true (Op.pure Op.Add);
  check bool_t "const pure" true (Op.pure Op.Const)

(* ------------------------------------------------------------------ *)
(* Tuple shapes                                                        *)

let test_tuple_shapes () =
  let ok op a b = ignore (Tuple.make ~id:1 op a b) in
  let bad op a b =
    match Tuple.make ~id:1 op a b with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected shape rejection"
  in
  ok Op.Const (Operand.Imm 5) Operand.Null;
  bad Op.Const (Operand.Var "x") Operand.Null;
  bad Op.Const (Operand.Imm 5) (Operand.Imm 5);
  ok Op.Load (Operand.Var "x") Operand.Null;
  bad Op.Load (Operand.Imm 5) Operand.Null;
  ok Op.Store (Operand.Var "x") (Operand.Ref 0);
  ok Op.Store (Operand.Var "x") (Operand.Imm 3);
  bad Op.Store (Operand.Ref 0) (Operand.Ref 1);
  bad Op.Store (Operand.Var "x") Operand.Null;
  ok Op.Add (Operand.Ref 0) (Operand.Imm 1);
  bad Op.Add (Operand.Ref 0) Operand.Null;
  bad Op.Add (Operand.Var "x") (Operand.Imm 1);
  ok Op.Neg (Operand.Ref 0) Operand.Null;
  bad Op.Neg (Operand.Ref 0) (Operand.Ref 1)

let test_tuple_accessors () =
  let t = Tuple.make ~id:3 Op.Add (Operand.Ref 1) (Operand.Ref 1) in
  check (Alcotest.list int_t) "refs with duplicates" [ 1; 1 ]
    (Tuple.value_refs t);
  check bool_t "no memory var" true (Tuple.memory_var t = None);
  let s = Tuple.make ~id:4 Op.Store (Operand.Var "a") (Operand.Ref 3) in
  check bool_t "store memory var" true (Tuple.memory_var s = Some "a");
  check bool_t "store writes" true (Tuple.writes_memory s);
  check bool_t "store no value" false (Tuple.produces_value s);
  let l = Tuple.make ~id:5 Op.Load (Operand.Var "a") Operand.Null in
  check bool_t "load memory var" true (Tuple.memory_var l = Some "a");
  check bool_t "load reads only" false (Tuple.writes_memory l)

(* ------------------------------------------------------------------ *)
(* Block validation                                                    *)

let tu ~id op a b = Tuple.make ~id op a b

let test_block_valid () =
  let blk =
    Block.of_tuples_exn
      [ tu ~id:10 Op.Const (Operand.Imm 1) Operand.Null;
        tu ~id:20 Op.Neg (Operand.Ref 10) Operand.Null;
        tu ~id:30 Op.Store (Operand.Var "x") (Operand.Ref 20) ]
  in
  check int_t "length" 3 (Block.length blk);
  check int_t "pos of 20" 1 (Block.pos_of_id blk 20);
  check bool_t "find" true ((Block.find blk 30).Tuple.op = Op.Store);
  check (Alcotest.list Alcotest.string) "vars" [ "x" ] (Block.vars blk)

let test_block_rejects_duplicates () =
  match
    Block.of_tuples
      [ tu ~id:1 Op.Const (Operand.Imm 1) Operand.Null;
        tu ~id:1 Op.Const (Operand.Imm 2) Operand.Null ]
  with
  | Error msg -> check bool_t "mentions duplicate" true
                   (String.length msg > 0)
  | Ok _ -> Alcotest.fail "accepted duplicate ids"

let test_block_rejects_forward_ref () =
  match
    Block.of_tuples
      [ tu ~id:1 Op.Neg (Operand.Ref 2) Operand.Null;
        tu ~id:2 Op.Const (Operand.Imm 1) Operand.Null ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted forward reference"

let test_block_rejects_ref_to_store () =
  match
    Block.of_tuples
      [ tu ~id:1 Op.Const (Operand.Imm 1) Operand.Null;
        tu ~id:2 Op.Store (Operand.Var "x") (Operand.Ref 1);
        tu ~id:3 Op.Neg (Operand.Ref 2) Operand.Null ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a reference to a Store"

let test_block_permute () =
  let blk =
    Block.of_tuples_exn
      [ tu ~id:1 Op.Const (Operand.Imm 1) Operand.Null;
        tu ~id:2 Op.Const (Operand.Imm 2) Operand.Null;
        tu ~id:3 Op.Add (Operand.Ref 1) (Operand.Ref 2) ]
  in
  let blk' = Block.permute blk [| 1; 0; 2 |] in
  check int_t "swapped" 1 (Block.pos_of_id blk' 1);
  Alcotest.check_raises "illegal permute"
    (Invalid_argument
       "Block.permute: illegal schedule: tuple 3 references 2, which is \
        undefined or defined later")
    (fun () -> ignore (Block.permute blk [| 0; 2; 1 |]));
  (match Block.permute blk [| 0; 0; 1 |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "accepted non-permutation")

(* ------------------------------------------------------------------ *)
(* Text round-trips                                                    *)

(* Blocks drawn with their seed, so a property can derive further
   random presentations of the same block. *)
let seeded_block_gen =
  QCheck2.Gen.(
    pair (int_bound 1_000_000) (int_range 1 14)
    |> map (fun (seed, n) ->
           let rng = Rng.create seed in
           (random_block rng n, seed)))

let seeded_print (blk, seed) =
  Printf.sprintf "seed %d:\n%s" seed (Block.to_string blk)

let test_operand_roundtrip () =
  List.iter
    (fun o ->
      check bool_t (Operand.to_string o) true
        (Operand.of_string (Operand.to_string o) = Some o))
    [ Operand.Var "abc"; Operand.Ref 12; Operand.Imm 0; Operand.Imm (-7);
      Operand.Null ];
  check bool_t "bad ref" true (Operand.of_string "tx" = None);
  check bool_t "bare word" true (Operand.of_string "abc" = None)

let test_tuple_parse () =
  (match Tuple.of_string "4: Mul t1, t3" with
   | Ok t ->
     check bool_t "parsed" true
       (t = Tuple.make ~id:4 Op.Mul (Operand.Ref 1) (Operand.Ref 3))
   | Error msg -> Alcotest.fail msg);
  (match Tuple.of_string "  2:   Store #b , 15 " with
   | Ok t -> check bool_t "whitespace tolerated" true (t.Tuple.op = Op.Store)
   | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match Tuple.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" bad)
    [ "no colon"; "x: Mul t1, t2"; "1: Frobnicate t1"; "1: Mul t1";
      "1: Mul t1, t2, t3"; "1: Load 5"; "1: Const #x" ]

let block_text_roundtrip =
  qtest ~count:300 "Block.to_string/parse round-trips"
    (block_gen ~max_size:16 ()) block_print
    (fun blk ->
      match Block.parse (Block.to_string blk) with
      | Ok blk' -> Block.equal blk blk'
      | Error _ -> false)

(* Reference rendering through [Printf] per tuple and [Format] per
   block: the text format the buffer renderers must match byte for
   byte. *)
let model_operand = function
  | Operand.Var v -> "#" ^ v
  | Operand.Ref i -> "t" ^ string_of_int i
  | Operand.Imm n -> string_of_int n
  | Operand.Null -> "_"

let model_tuple (t : Tuple.t) =
  match t.Tuple.op with
  | Op.Const | Op.Load | Op.Mov | Op.Neg ->
    Printf.sprintf "%d: %s %s" t.Tuple.id (Op.to_string t.Tuple.op)
      (model_operand t.Tuple.a)
  | _ ->
    Printf.sprintf "%d: %s %s, %s" t.Tuple.id (Op.to_string t.Tuple.op)
      (model_operand t.Tuple.a) (model_operand t.Tuple.b)

let model_block blk =
  Format.asprintf "%a"
    (fun fmt b ->
      Array.iteri
        (fun i tu ->
          if i > 0 then Format.pp_print_newline fmt ();
          Format.pp_print_string fmt (model_tuple tu))
        (Block.tuples b))
    blk

(* Re-dress a block with extreme immediates (negative, [min_int],
   [max_int]) and, sometimes, variable names longer than a line. *)
let extreme_presentation rng blk =
  let imm = function
    | Operand.Imm k ->
      Operand.Imm
        (Rng.choose rng [| -k - 1; min_int; max_int; -1; k; -1000000007 |])
    | o -> o
  in
  let long = Rng.bool rng in
  let var = function
    | Operand.Var x when long -> Operand.Var (x ^ String.make 90 'v')
    | o -> o
  in
  Block.of_tuples_exn
    (Array.to_list (Block.tuples blk)
    |> List.map (fun (tu : Tuple.t) ->
           Tuple.make ~id:tu.Tuple.id tu.Tuple.op
             (var (imm tu.Tuple.a))
             (imm tu.Tuple.b)))

let rendering_matches_model =
  qtest ~count:300 "to_string matches the Format/Printf model"
    seeded_block_gen seeded_print
    (fun (blk, seed) ->
      let blk' = extreme_presentation (Rng.create seed) blk in
      List.for_all
        (fun b ->
          String.equal (Block.to_string b) (model_block b)
          && Array.for_all
               (fun tu -> String.equal (Tuple.to_string tu) (model_tuple tu))
               (Block.tuples b))
        [ blk; blk' ])

let test_rendering_edges () =
  let empty = Block.of_tuples_exn [] in
  check Alcotest.string "empty block" (model_block empty)
    (Block.to_string empty);
  check Alcotest.string "empty block is empty" "" (Block.to_string empty);
  let blk =
    Block.of_tuples_exn
      [ tu ~id:(-3) Op.Const (Operand.Imm min_int) Operand.Null;
        tu ~id:7 Op.Sub (Operand.Imm (-12)) (Operand.Ref (-3));
        tu ~id:8 Op.Store (Operand.Var "x") (Operand.Imm max_int);
        tu ~id:9 Op.Mov (Operand.Ref 7) Operand.Null;
        tu ~id:10 Op.Shl (Operand.Ref 9) (Operand.Imm (-1)) ]
  in
  check Alcotest.string "negative ids, immediates, unary Mov" (model_block blk)
    (Block.to_string blk)

let test_block_parse_diagnostics () =
  (match Block.parse "1: Const 1\n\n# a comment\n2: Neg t1" with
   | Ok blk -> check int_t "comments skipped" 2 (Block.length blk)
   | Error _ -> Alcotest.fail "rejected valid text");
  (match Block.parse "1: Const 1\nbogus line" with
   | Error (2, _) -> ()
   | Error (l, _) -> Alcotest.failf "wrong line %d" l
   | Ok _ -> Alcotest.fail "accepted bogus line");
  match Block.parse "1: Neg t9" with
  | Error (0, _) -> () (* block-level validation: dangling reference *)
  | _ -> Alcotest.fail "accepted dangling reference"

(* The line parser the scanner replaced — [Tuple.of_string] with the
   [Op] and [Operand] parsers it called — kept as the model the scanner
   must match: the same tuple or the same error string. *)
let model_op s =
  match String.lowercase_ascii s with
  | "const" -> Some Op.Const
  | "load" -> Some Op.Load
  | "store" -> Some Op.Store
  | "mov" -> Some Op.Mov
  | "add" -> Some Op.Add
  | "sub" -> Some Op.Sub
  | "mul" -> Some Op.Mul
  | "div" -> Some Op.Div
  | "mod" -> Some Op.Mod
  | "neg" -> Some Op.Neg
  | "and" -> Some Op.And
  | "or" -> Some Op.Or
  | "xor" -> Some Op.Xor
  | "shl" -> Some Op.Shl
  | "shr" -> Some Op.Shr
  | _ -> None

let model_operand_of_string s =
  let n = String.length s in
  if s = "_" then Some Operand.Null
  else if n >= 2 && s.[0] = '#' then Some (Operand.Var (String.sub s 1 (n - 1)))
  else if n >= 2 && s.[0] = 't' then
    match int_of_string_opt (String.sub s 1 (n - 1)) with
    | Some id -> Some (Operand.Ref id)
    | None -> None
  else
    match int_of_string_opt s with
    | Some v -> Some (Operand.Imm v)
    | None -> None

let model_tuple_of_string line =
  let line = String.trim line in
  match String.index_opt line ':' with
  | None -> Error "missing ':' after the tuple id"
  | Some colon ->
    let id_text = String.trim (String.sub line 0 colon) in
    let rest =
      String.trim
        (String.sub line (colon + 1) (String.length line - colon - 1))
    in
    (match int_of_string_opt id_text with
     | None -> Error ("bad tuple id: " ^ id_text)
     | Some id ->
       let mnemonic, args =
         match String.index_opt rest ' ' with
         | None -> (rest, "")
         | Some sp ->
           ( String.sub rest 0 sp,
             String.trim
               (String.sub rest (sp + 1) (String.length rest - sp - 1)) )
       in
       (match model_op mnemonic with
        | None -> Error ("unknown operation: " ^ mnemonic)
        | Some op ->
          let toks =
            if args = "" then []
            else
              String.split_on_char ',' args
              |> List.map String.trim
              |> List.filter (fun s -> s <> "")
          in
          let operand tok =
            match model_operand_of_string tok with
            | Some o -> Ok o
            | None -> Error ("bad operand: " ^ tok)
          in
          let build a b =
            match Tuple.make ~id op a b with
            | t -> Ok t
            | exception Invalid_argument msg -> Error msg
          in
          (match toks with
           | [] -> build Operand.Null Operand.Null
           | [ a ] ->
             Result.bind (operand a) (fun a -> build a Operand.Null)
           | [ a; b ] ->
             Result.bind (operand a) (fun a ->
                 Result.bind (operand b) (fun b -> build a b))
           | _ -> Error "too many operands")))

let model_block_parse text =
  let rec go lineno acc = function
    | [] -> (
      match Block.of_tuples (List.rev acc) with
      | Ok blk -> Ok blk
      | Error msg -> Error (0, msg))
    | raw :: rest ->
      let body = String.trim raw in
      if body = "" || body.[0] = '#' then go (lineno + 1) acc rest
      else
        match model_tuple_of_string body with
        | Ok tu -> go (lineno + 1) (tu :: acc) rest
        | Error msg -> Error (lineno, msg)
  in
  go 1 [] (String.split_on_char '\n' text)

(* A line in any of the forms the parser accepts: random spacing and
   case; decimal, hex, octal, binary, underscored and signed integers;
   [tN], [#name] and [_] operands; usually the op's own arity. *)
let random_line rng =
  let pick a = Rng.choose rng a in
  let spaces () =
    String.init (Rng.int rng 3) (fun _ -> pick [| ' '; ' '; '\t' |])
  in
  let int_text () =
    let k = Rng.int rng 1000 in
    match Rng.int rng 12 with
    | 0 -> Printf.sprintf "0x%X" k
    | 1 -> Printf.sprintf "0o%o" k
    | 2 -> "0b101" ^ String.make (Rng.int rng 3) '1'
    | 3 -> Printf.sprintf "%d_%03d" (1 + Rng.int rng 9) k
    | 4 -> Printf.sprintf "+%d" k
    | 5 -> Printf.sprintf "-%d" k
    | 6 -> pick [| "4611686018427387903"; "-4611686018427387904";
                   "4611686018427387904"; "99999999999999999999";
                   "0x7fffffffffffffff"; "0u12"; "007"; "-0" |]
    | _ -> string_of_int k
  in
  let mixed_case w =
    String.map
      (fun c -> if Rng.bool rng then Char.uppercase_ascii c else c)
      (String.lowercase_ascii w)
  in
  let operand () =
    match Rng.int rng 6 with
    | 0 -> "_"
    | 1 -> "#" ^ pick [| "a"; "x1"; "long_name"; "b#c"; "q:r" |]
    | 2 | 3 -> "t" ^ int_text ()
    | _ -> int_text ()
  in
  let op = pick (Array.of_list Op.all) in
  let arity =
    if Rng.int rng 8 = 0 then Rng.int rng 4
    else match op with Op.Const | Op.Load | Op.Mov | Op.Neg -> 1 | _ -> 2
  in
  let operands =
    List.init arity (fun _ -> spaces () ^ operand () ^ spaces ())
  in
  Printf.sprintf "%s%s%s:%s%s %s%s" (spaces ()) (int_text ()) (spaces ())
    (spaces ()) (mixed_case (Op.to_string op))
    (String.concat "," operands) (spaces ())

(* [line] with one character deleted, inserted or replaced. *)
let edit_line rng line =
  let alphabet = " \t\r\012\n,:#t_-+x0159aZ" in
  let c () = alphabet.[Rng.int rng (String.length alphabet)] in
  let n = String.length line in
  let i = Rng.int rng (n + 1) in
  let before = String.sub line 0 i in
  match Rng.int rng 3 with
  | 0 when i < n -> before ^ String.sub line (i + 1) (n - i - 1)
  | 1 when i < n ->
    before ^ String.make 1 (c ()) ^ String.sub line (i + 1) (n - i - 1)
  | _ -> before ^ String.make 1 (c ()) ^ String.sub line i (n - i)

let scanner_matches_model =
  qtest ~count:1000 "scanner matches the model"
    QCheck2.Gen.(int_bound 1_000_000)
    string_of_int
    (fun seed ->
      let rng = Rng.create seed in
      let lines =
        List.init 4 (fun _ ->
            let line = random_line rng in
            [ line; edit_line rng line ])
        |> List.concat
      in
      let same_line line = Tuple.of_string line = model_tuple_of_string line in
      (* A block: the lines (ids made unique, most of the time), blank
         and comment lines between them. *)
      let text =
        List.mapi
          (fun i line ->
            let line =
              if Rng.int rng 4 = 0 then line
              else
                match String.index_opt line ':' with
                | Some c ->
                  string_of_int (i + 1)
                  ^ String.sub line c (String.length line - c)
                | None -> line
            in
            match Rng.int rng 6 with
            | 0 -> line ^ "\n  \t"
            | 1 -> "# a comment: 1: Load #a\n" ^ line
            | _ -> line)
          lines
        |> String.concat "\n"
      in
      let same_block =
        match (Block.parse text, model_block_parse text) with
        | Ok b, Ok b' -> Block.equal b b'
        | Error e, Error e' -> e = e'
        | _ -> false
      in
      List.for_all same_line lines && same_block)

(* ------------------------------------------------------------------ *)
(* Dag                                                                 *)

(* The paper's Figure 3 block. *)
let fig3 () =
  Block.of_tuples_exn
    [ tu ~id:1 Op.Const (Operand.Imm 15) Operand.Null;
      tu ~id:2 Op.Store (Operand.Var "b") (Operand.Ref 1);
      tu ~id:3 Op.Load (Operand.Var "a") Operand.Null;
      tu ~id:4 Op.Mul (Operand.Ref 1) (Operand.Ref 3);
      tu ~id:5 Op.Store (Operand.Var "a") (Operand.Ref 4) ]

let test_dag_edges () =
  let dag = Dag.of_block (fig3 ()) in
  check (Alcotest.list int_t) "preds of store b" [ 0 ] (Dag.preds dag 1);
  check (Alcotest.list int_t) "preds of mul" [ 0; 2 ] (Dag.preds dag 3);
  (* store a depends on mul (data) and load a (memory anti) *)
  check (Alcotest.list int_t) "preds of store a" [ 2; 3 ] (Dag.preds dag 4);
  check bool_t "anti edge kind" true
    (Dag.edge_kind dag 2 4 = Some Dag.Mem_anti);
  check bool_t "data edge kind" true (Dag.edge_kind dag 3 4 = Some Dag.Data);
  check bool_t "no edge" true (Dag.edge_kind dag 1 3 = None);
  check (Alcotest.list int_t) "roots" [ 0; 2 ] (Dag.roots dag)

let test_dag_memory_kinds () =
  (* store x; load x; store x; load x -> flow, anti, output edges *)
  let blk =
    Block.of_tuples_exn
      [ tu ~id:1 Op.Store (Operand.Var "x") (Operand.Imm 1);
        tu ~id:2 Op.Load (Operand.Var "x") Operand.Null;
        tu ~id:3 Op.Store (Operand.Var "x") (Operand.Imm 2);
        tu ~id:4 Op.Load (Operand.Var "x") Operand.Null ]
  in
  let dag = Dag.of_block blk in
  check bool_t "flow 0->1" true (Dag.edge_kind dag 0 1 = Some Dag.Mem_flow);
  check bool_t "anti 1->2" true (Dag.edge_kind dag 1 2 = Some Dag.Mem_anti);
  check bool_t "output 0->2" true
    (Dag.edge_kind dag 0 2 = Some Dag.Mem_output);
  check bool_t "flow 2->3" true (Dag.edge_kind dag 2 3 = Some Dag.Mem_flow);
  (* no edge from load 1 to load 3 *)
  check bool_t "load-load independent" true (Dag.edge_kind dag 1 3 = None)

(* The dependence rules, as a model: data edges first, then per
   variable in block order flow (store -> later load), output (store ->
   next store) and anti (loads since the last store -> store) edges; the
   first kind recorded for a pair wins; no self-edges. *)
let model_kinds blk =
  let n = Block.length blk in
  let kinds = Hashtbl.create 16 in
  let add u v k =
    if u <> v && not (Hashtbl.mem kinds (u, v)) then
      Hashtbl.replace kinds (u, v) k
  in
  for v = 0 to n - 1 do
    List.iter
      (fun id -> add (Block.pos_of_id blk id) v Dag.Data)
      (Tuple.value_refs (Block.tuple_at blk v))
  done;
  let last_store = Hashtbl.create 8 and loads = Hashtbl.create 8 in
  for v = 0 to n - 1 do
    let t = Block.tuple_at blk v in
    match Tuple.memory_var t with
    | None -> ()
    | Some x ->
      let since = Option.value ~default:[] (Hashtbl.find_opt loads x) in
      if Tuple.writes_memory t then begin
        Option.iter
          (fun s -> add s v Dag.Mem_output)
          (Hashtbl.find_opt last_store x);
        List.iter (fun l -> add l v Dag.Mem_anti) since;
        Hashtbl.replace last_store x v;
        Hashtbl.replace loads x []
      end
      else begin
        Option.iter
          (fun s -> add s v Dag.Mem_flow)
          (Hashtbl.find_opt last_store x);
        Hashtbl.replace loads x (v :: since)
      end
  done;
  kinds

let dag_kinds_match_model =
  qtest ~count:300 "kind arrays and edge_kind match the model"
    QCheck2.Gen.(
      triple (int_bound 1_000_000) (int_range 0 16) (int_range 1 4))
    (fun (seed, n, nvars) ->
      Printf.sprintf "seed %d n %d vars %d:\n%s" seed n nvars
        (Block.to_string (random_block_with (Rng.create seed) n nvars)))
    (fun (seed, n, nvars) ->
      let blk = random_block_with (Rng.create seed) n nvars in
      let dag = Dag.of_block blk in
      let model = model_kinds blk in
      let side ~pred v =
        List.filter_map
          (fun w ->
            let e = if pred then (w, v) else (v, w) in
            Option.map (fun k -> (w, k)) (Hashtbl.find_opt model e))
          (List.init n Fun.id)
      in
      let arrays nbrs kinds =
        List.combine (Array.to_list nbrs) (Array.to_list kinds)
      in
      List.for_all
        (fun v ->
          arrays (Dag.preds_arr dag v) (Dag.pred_kinds dag v)
          = side ~pred:true v
          && arrays (Dag.succs_arr dag v) (Dag.succ_kinds dag v)
             = side ~pred:false v
          && List.for_all
               (fun w -> Dag.edge_kind dag v w = Hashtbl.find_opt model (v, w))
               (-1 :: n :: List.init n Fun.id))
        (List.init n Fun.id)
      && Dag.edge_kind dag (-1) 0 = None
      && Dag.edge_kind dag n 0 = None)

let test_earliest_latest () =
  let dag = Dag.of_block (fig3 ()) in
  (* positions: 0 Const, 1 Store b, 2 Load a, 3 Mul, 4 Store a *)
  check int_t "earliest const" 0 (Dag.earliest dag 0);
  check int_t "earliest mul" 2 (Dag.earliest dag 3);
  check int_t "earliest store a" 3 (Dag.earliest dag 4);
  (* const's descendants are store b, mul, store a -> latest = 4 - 3 = 1 *)
  check int_t "latest const" 1 (Dag.latest dag 0);
  check int_t "latest store b" 4 (Dag.latest dag 1);
  check int_t "latest load a" 2 (Dag.latest dag 2);
  check int_t "latest store a" 4 (Dag.latest dag 4)

let test_heights_critical_path () =
  let dag = Dag.of_block (fig3 ()) in
  let h = Dag.heights dag ~edge_weight:(fun ~src:_ ~dst:_ -> 1) in
  check int_t "height const" 2 h.(0);
  check int_t "height store a" 0 h.(4);
  check int_t "critical path" 2
    (Dag.critical_path dag ~edge_weight:(fun ~src:_ ~dst:_ -> 1))

let test_is_legal_order () =
  let dag = Dag.of_block (fig3 ()) in
  check bool_t "identity legal" true
    (Dag.is_legal_order dag [| 0; 1; 2; 3; 4 |]);
  check bool_t "valid reorder" true
    (Dag.is_legal_order dag [| 2; 0; 3; 1; 4 |]);
  check bool_t "consumer before producer" false
    (Dag.is_legal_order dag [| 3; 0; 1; 2; 4 |]);
  check bool_t "wrong length" false (Dag.is_legal_order dag [| 0; 1 |]);
  check bool_t "not a permutation" false
    (Dag.is_legal_order dag [| 0; 0; 1; 2; 3 |])

(* Transitive closure via bitsets must agree with a brute-force DFS. *)
let closure_agrees =
  qtest ~count:150 "ancestors/descendants agree with DFS reachability"
    (block_gen ~max_size:12 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let n = Dag.length dag in
      let reach_fwd = Array.make_matrix n n false in
      for u = n - 1 downto 0 do
        List.iter
          (fun v ->
            reach_fwd.(u).(v) <- true;
            for w = 0 to n - 1 do
              if reach_fwd.(v).(w) then reach_fwd.(u).(w) <- true
            done)
          (Dag.succs dag u)
      done;
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Bitset.mem (Dag.descendants dag u) v <> reach_fwd.(u).(v) then
            ok := false;
          if Bitset.mem (Dag.ancestors dag v) u <> reach_fwd.(u).(v) then
            ok := false
        done
      done;
      !ok)

(* earliest/latest bound every legal order's positions (on small blocks,
   checked against full enumeration). *)
let earliest_latest_bound =
  qtest ~count:60 "earliest/latest bound all legal positions"
    (block_gen ~max_size:7 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let orders = all_legal_orders dag in
      List.for_all
        (fun order ->
          let ok = ref true in
          Array.iteri
            (fun newpos oldpos ->
              if
                newpos < Dag.earliest dag oldpos
                || newpos > Dag.latest dag oldpos
              then ok := false)
            order;
          !ok)
        orders)

(* Every legal order keeps the block valid under permute. *)
let permute_legal_orders =
  qtest ~count:60 "legal orders permute into valid blocks"
    (block_gen ~max_size:7 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      List.for_all
        (fun order ->
          match Block.permute blk order with
          | _ -> true
          | exception Invalid_argument _ -> false)
        (all_legal_orders dag))

(* Every edge runs forward in block order (dag.mli), so block order is a
   topological order: the list scheduler's walk relies on it. *)
let edges_run_forward =
  qtest ~count:300 "every edge runs forward"
    QCheck2.Gen.(
      map2
        (fun seed n ->
          random_block_with (Rng.create seed) n (1 + (seed mod 12)))
        (int_bound 1_000_000) (int_range 1 80))
    block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let ok = ref true in
      for v = 0 to Dag.length dag - 1 do
        Array.iter (fun u -> if u >= v then ok := false) (Dag.preds_arr dag v);
        Array.iter (fun w -> if w <= v then ok := false) (Dag.succs_arr dag v)
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Canonical: isomorphism-stable form and hash.                        *)

(* Canonicalization is invariant under any composition of topological
   reordering and relabeling, and idempotent (the canonical block is its
   own canonical form). *)
let canonical_invariance =
  qtest ~count:300 "canonical key invariant under iso presentations"
    seeded_block_gen seeded_print
    (fun (blk, seed) ->
      let rng = Rng.create (seed + 1) in
      let c = Canonical.of_block blk in
      let variants =
        [ random_topo_reorder rng blk;
          random_relabel rng blk;
          random_relabel rng (random_topo_reorder rng blk);
          c.Canonical.block ]
      in
      List.for_all
        (fun v ->
          let cv = Canonical.of_block v in
          String.equal cv.Canonical.key c.Canonical.key
          && cv.Canonical.hash = c.Canonical.hash
          && Block.equal cv.Canonical.block c.Canonical.block)
        variants)

(* [apply] maps every legal order of the canonical block onto a legal
   order of the original (small blocks, full enumeration). *)
let canonical_apply_legal =
  qtest ~count:60 "canonical apply maps legal orders to legal orders"
    (block_gen ~max_size:7 ()) block_print
    (fun blk ->
      let dag = Dag.of_block blk in
      let c = Canonical.of_block blk in
      let cdag = Dag.of_block c.Canonical.block in
      List.for_all
        (fun corder -> Dag.is_legal_order dag (Canonical.apply c corder))
        (all_legal_orders cdag))

(* Flipping one op kind changes the op multiset, so the key must move. *)
let canonical_detects_op_flip =
  qtest ~count:200 "canonical key detects op-kind flips" seeded_block_gen
    seeded_print
    (fun (blk, _) ->
      let tus = Block.tuples blk in
      let site =
        Array.to_list tus
        |> List.find_opt (fun (tu : Tuple.t) -> Op.value_arity tu.Tuple.op = 2)
      in
      match site with
      | None -> true (* vacuous: nothing to flip *)
      | Some tu ->
        let flip = if tu.Tuple.op = Op.Add then Op.Xor else Op.Add in
        let blk' =
          Block.of_tuples_exn
            (Array.to_list tus
            |> List.map (fun (t : Tuple.t) ->
                   if t.Tuple.id = tu.Tuple.id then
                     Tuple.make ~id:t.Tuple.id flip t.Tuple.a t.Tuple.b
                   else t))
        in
        not
          (String.equal (Canonical.of_block blk).Canonical.key
             (Canonical.of_block blk').Canonical.key))

(* Adding one data edge (immediate operand -> reference to a producer the
   tuple does not already read) changes the data-edge count, so the key
   must move. *)
let canonical_detects_edge_add =
  qtest ~count:200 "canonical key detects added dependences" seeded_block_gen
    seeded_print
    (fun (blk, _) ->
      let tus = Block.tuples blk in
      let producers_before i =
        Array.to_list (Array.sub tus 0 i)
        |> List.filter Tuple.produces_value
        |> List.map (fun (t : Tuple.t) -> t.Tuple.id)
      in
      let site = ref None in
      Array.iteri
        (fun i (tu : Tuple.t) ->
          if !site = None && Op.value_arity tu.Tuple.op = 2 then
            match tu.Tuple.b with
            | Operand.Imm _ ->
              let avoid =
                match tu.Tuple.a with Operand.Ref r -> Some r | _ -> None
              in
              (match
                 List.filter (fun id -> Some id <> avoid) (producers_before i)
               with
              | id :: _ -> site := Some (tu, id)
              | [] -> ())
            | _ -> ())
        tus;
      match !site with
      | None -> true (* vacuous: no place to add an edge *)
      | Some (tu, target) ->
        let blk' =
          Block.of_tuples_exn
            (Array.to_list tus
            |> List.map (fun (t : Tuple.t) ->
                   if t.Tuple.id = tu.Tuple.id then
                     Tuple.make ~id:t.Tuple.id t.Tuple.op t.Tuple.a
                       (Operand.Ref target)
                   else t))
        in
        not
          (String.equal (Canonical.of_block blk).Canonical.key
             (Canonical.of_block blk').Canonical.key))

(* The key packs the canonical block, so two blocks have equal keys
   exactly when their canonical blocks are equal.  Small blocks over one
   or two variables, so equal forms are common: about half of the pairs
   are key-equal. *)
let canonical_key_is_block =
  qtest ~count:2000 "key equality is block equality"
    QCheck2.Gen.(int_bound 1_000_000)
    string_of_int
    (fun seed ->
      let rng = Rng.create seed in
      let small () =
        random_block_with rng (1 + Rng.int rng 6) (1 + Rng.int rng 2)
      in
      let b1 = small () in
      let b2 =
        match Rng.int rng 4 with
        | 0 -> random_relabel rng b1
        | 1 -> random_relabel rng (random_topo_reorder rng b1)
        | 2 -> random_relabel rng (small ())
        | _ -> small ()
      in
      let c1 = Canonical.of_block b1 and c2 = Canonical.of_block b2 in
      String.equal c1.Canonical.key c2.Canonical.key
      = Block.equal c1.Canonical.block c2.Canonical.block)

let test_canonical_shapes () =
  (* Two hand-written presentations of the same computation: different
     ids, variable names, immediates, instruction order, operand sides. *)
  let p1 =
    Block.of_tuples_exn
      [ Tuple.make ~id:1 Op.Load (Operand.Var "a") Operand.Null;
        Tuple.make ~id:2 Op.Load (Operand.Var "b") Operand.Null;
        Tuple.make ~id:3 Op.Add (Operand.Ref 1) (Operand.Ref 2);
        Tuple.make ~id:4 Op.Store (Operand.Var "c") (Operand.Ref 3) ]
  in
  let p2 =
    Block.of_tuples_exn
      [ Tuple.make ~id:9 Op.Load (Operand.Var "y") Operand.Null;
        Tuple.make ~id:4 Op.Load (Operand.Var "x") Operand.Null;
        Tuple.make ~id:7 Op.Add (Operand.Ref 4) (Operand.Ref 9);
        Tuple.make ~id:1 Op.Store (Operand.Var "z") (Operand.Ref 7) ]
  in
  let c1 = Canonical.of_block p1 and c2 = Canonical.of_block p2 in
  check bool_t "same key" true (String.equal c1.Canonical.key c2.Canonical.key);
  check bool_t "same hash" true (c1.Canonical.hash = c2.Canonical.hash);
  (* A genuinely different computation (Mul instead of Add) separates. *)
  let p3 =
    Block.of_tuples_exn
      [ Tuple.make ~id:1 Op.Load (Operand.Var "a") Operand.Null;
        Tuple.make ~id:2 Op.Load (Operand.Var "b") Operand.Null;
        Tuple.make ~id:3 Op.Mul (Operand.Ref 1) (Operand.Ref 2);
        Tuple.make ~id:4 Op.Store (Operand.Var "c") (Operand.Ref 3) ]
  in
  check bool_t "mul differs" false
    (String.equal c1.Canonical.key (Canonical.of_block p3).Canonical.key);
  (* hash_string is the documented FNV-1a: fixed known vector. *)
  check bool_t "fnv empty" true
    (Canonical.hash_string "" = (0xcbf29ce4 lsl 32) lor 0x84222325)

(* Two isomorphic Load/Const/And components.  Which [Const] a
   presentation lists first must not decide which [Load] it is paired
   with in the canonical order: every legal reordering of the block has
   the block's own key. *)
let test_canonical_twin_components () =
  let blk =
    Block.of_tuples_exn
      [ Tuple.make ~id:1 Op.Load (Operand.Var "a") Operand.Null;
        Tuple.make ~id:2 Op.Const (Operand.Imm 1) Operand.Null;
        Tuple.make ~id:3 Op.And (Operand.Ref 2) (Operand.Ref 1);
        Tuple.make ~id:4 Op.Load (Operand.Var "b") Operand.Null;
        Tuple.make ~id:5 Op.Const (Operand.Imm 2) Operand.Null;
        Tuple.make ~id:6 Op.And (Operand.Ref 4) (Operand.Ref 5) ]
  in
  let key = (Canonical.of_block blk).Canonical.key in
  let orders = all_legal_orders (Dag.of_block blk) in
  check int_t "legal orders" 80 (List.length orders);
  let differing =
    List.filter
      (fun order ->
        not
          (String.equal key
             (Canonical.of_block (Block.permute blk order)).Canonical.key))
      orders
  in
  check int_t "orders with a different key" 0 (List.length differing)

(* The exact bytes of every canonical form.  Changing this digest
   changes every schedule-cache key and every study/fuzz dedup class, so
   it may only move in a change that means to re-key them; a speed-up of
   the canonicalizer must leave it alone. *)
let canonical_golden_digest =
  "714b552e8a489546afa356311eb446b2"

let test_canonical_golden () =
  let module Generator = Pipesched_synth.Generator in
  let module Schedule = Pipesched_synth.Schedule in
  let rng = Rng.create 15 in
  let buf = Buffer.create (1 lsl 20) in
  let record blk =
    let c = Canonical.of_block blk in
    Buffer.add_string buf c.Canonical.key;
    Buffer.add_char buf '\x00';
    Array.iter
      (fun p ->
        Buffer.add_string buf (string_of_int p);
        Buffer.add_char buf ',')
      c.Canonical.perm;
    Buffer.add_char buf '\x00';
    Buffer.add_string buf (string_of_int c.Canonical.hash);
    Buffer.add_char buf '\n'
  in
  for i = 0 to 1999 do
    let blk = Generator.of_seed (Schedule.seed_at ~seed:15 i) in
    record blk;
    record (random_topo_reorder rng blk);
    record (random_relabel rng blk)
  done;
  check Alcotest.string "digest of key, perm and hash"
    canonical_golden_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "ir"
    [ ( "op",
        [ Alcotest.test_case "roundtrip" `Quick test_op_roundtrip;
          Alcotest.test_case "of_string any case" `Quick
            test_op_of_string_case;
          Alcotest.test_case "arity" `Quick test_op_arity;
          Alcotest.test_case "eval" `Quick test_op_eval;
          Alcotest.test_case "pure" `Quick test_op_pure;
          op_commutative_sound ] );
      ( "tuple",
        [ Alcotest.test_case "shapes" `Quick test_tuple_shapes;
          Alcotest.test_case "accessors" `Quick test_tuple_accessors ] );
      ( "block",
        [ Alcotest.test_case "valid" `Quick test_block_valid;
          Alcotest.test_case "rejects duplicates" `Quick
            test_block_rejects_duplicates;
          Alcotest.test_case "rejects forward refs" `Quick
            test_block_rejects_forward_ref;
          Alcotest.test_case "rejects refs to store" `Quick
            test_block_rejects_ref_to_store;
          Alcotest.test_case "permute" `Quick test_block_permute ] );
      ( "text",
        [ Alcotest.test_case "operand roundtrip" `Quick
            test_operand_roundtrip;
          Alcotest.test_case "tuple parse" `Quick test_tuple_parse;
          block_text_roundtrip;
          Alcotest.test_case "parse diagnostics" `Quick
            test_block_parse_diagnostics;
          rendering_matches_model;
          Alcotest.test_case "rendering edge cases" `Quick
            test_rendering_edges;
          scanner_matches_model ] );
      ( "dag",
        [ Alcotest.test_case "edges (fig 3)" `Quick test_dag_edges;
          Alcotest.test_case "memory edge kinds" `Quick
            test_dag_memory_kinds;
          dag_kinds_match_model;
          Alcotest.test_case "earliest/latest (fig 3)" `Quick
            test_earliest_latest;
          Alcotest.test_case "heights" `Quick test_heights_critical_path;
          Alcotest.test_case "is_legal_order" `Quick test_is_legal_order;
          closure_agrees;
          earliest_latest_bound;
          permute_legal_orders;
          edges_run_forward ] );
      ( "canonical",
        [ Alcotest.test_case "shapes" `Quick test_canonical_shapes;
          Alcotest.test_case "twin components" `Quick
            test_canonical_twin_components;
          canonical_invariance;
          canonical_apply_legal;
          canonical_detects_op_flip;
          canonical_detects_edge_add;
          Alcotest.test_case "golden digest" `Quick test_canonical_golden;
          canonical_key_is_block ]
      ) ]
