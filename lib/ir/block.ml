(* Positions by tuple id.  Ids are small and usually dense, so the
   identity hash spreads them over the buckets at no cost. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id
end)

type t = { arr : Tuple.t array; pos : int Ids.t }

(* Validation builds the position table as it goes: a [Ref] must name
   an id already in the table, and the tuple there must produce a
   value. *)
let of_tuples ts =
  let arr = Array.of_list ts in
  let n = Array.length arr in
  let pos = Ids.create (2 * n) in
  let bad_ref = function
    | Operand.Ref r -> (
      match Ids.find_opt pos r with
      | None -> Some (r, "undefined or defined later")
      | Some i when not (Tuple.produces_value arr.(i)) ->
        Some (r, "not a value-producing tuple")
      | Some _ -> None)
    | Operand.Var _ | Operand.Imm _ | Operand.Null -> None
  in
  let rec go i =
    if i = n then Ok { arr; pos }
    else
      let tu = arr.(i) in
      if Ids.mem pos tu.Tuple.id then
        Error (Printf.sprintf "duplicate tuple id %d" tu.Tuple.id)
      else
        match
          match bad_ref tu.Tuple.a with
          | None -> bad_ref tu.Tuple.b
          | bad -> bad
        with
        | Some (r, what) ->
          Error
            (Printf.sprintf "tuple %d references %d, which is %s" tu.Tuple.id
               r what)
        | None ->
          Ids.replace pos tu.Tuple.id i;
          go (i + 1)
  in
  go 0

let of_tuples_exn ts =
  match of_tuples ts with
  | Ok b -> b
  | Error msg -> invalid_arg ("Block.of_tuples_exn: " ^ msg)

let tuples b = Array.copy b.arr
let length b = Array.length b.arr
let tuple_at b i = b.arr.(i)

let pos_of_id b id = Ids.find b.pos id

let find b id = b.arr.(pos_of_id b id)

let vars b =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  Array.iter
    (fun tu ->
      match Tuple.memory_var tu with
      | Some v when not (Hashtbl.mem seen v) ->
        Hashtbl.replace seen v ();
        acc := v :: !acc
      | Some _ | None -> ())
    b.arr;
  List.rev !acc

let permute b order =
  let n = Array.length b.arr in
  if Array.length order <> n then
    invalid_arg "Block.permute: order length mismatch";
  let used = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || used.(i) then
        invalid_arg "Block.permute: not a permutation";
      used.(i) <- true)
    order;
  let ts = Array.to_list (Array.map (fun i -> b.arr.(i)) order) in
  match of_tuples ts with
  | Ok b' -> b'
  | Error msg -> invalid_arg ("Block.permute: illegal schedule: " ^ msg)

let equal b1 b2 =
  Array.length b1.arr = Array.length b2.arr
  && Array.for_all2 Tuple.equal b1.arr b2.arr

let pp fmt b =
  Array.iteri
    (fun i tu ->
      if i > 0 then Format.pp_print_newline fmt ();
      Tuple.pp fmt tu)
    b.arr

let to_string b =
  let buf = Buffer.create (16 * Array.length b.arr) in
  Array.iteri
    (fun i tu ->
      if i > 0 then Buffer.add_char buf '\n';
      Tuple.to_buffer buf tu)
    b.arr;
  Buffer.contents buf

let parse text =
  let n = String.length text in
  (* [String.trim]'s whitespace, which a blank line is made of. *)
  let is_space = function
    | ' ' | '\012' | '\n' | '\r' | '\t' -> true
    | _ -> false
  in
  let rec eol i = if i = n || text.[i] = '\n' then i else eol (i + 1) in
  let rec skip i stop =
    if i < stop && is_space text.[i] then skip (i + 1) stop else i
  in
  let rec go lineno start acc =
    let stop = eol start in
    let lo = skip start stop in
    (* Only full-line comments: '#' also prefixes variable operands. *)
    if lo = stop || text.[lo] = '#' then next lineno stop acc
    else
      match Tuple.of_substring text lo (stop - lo) with
      | Ok tu -> next lineno stop (tu :: acc)
      | Error msg -> Error (lineno, msg)
  and next lineno stop acc =
    if stop < n then go (lineno + 1) (stop + 1) acc
    else
      match of_tuples (List.rev acc) with
      | Ok blk -> Ok blk
      | Error msg -> Error (0, msg)
  in
  go 1 0 []
