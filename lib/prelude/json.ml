type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec print_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Decimal.add_int buf i
  | Float f ->
    (* JSON has no NaN/Infinity; clamp to null like most encoders. *)
    if Float.is_nan f || Float.abs f = Float.infinity then
      Buffer.add_string buf "null"
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s -> escape_into buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        print_into buf x)
      xs;
    Buffer.add_char buf ']'
  | Assoc fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_into buf k;
        Buffer.add_char buf ':';
        print_into buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  print_into buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Fail of int * string

(* The parser recurses once per nesting level, so a line of ['['s would
   otherwise take the stack and the heap with it. *)
let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
          if !pos >= n then fail "unterminated escape"
          else
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' ->
              Buffer.add_char buf e;
              go ()
            | 'n' ->
              Buffer.add_char buf '\n';
              go ()
            | 't' ->
              Buffer.add_char buf '\t';
              go ()
            | 'r' ->
              Buffer.add_char buf '\r';
              go ()
            | 'b' ->
              Buffer.add_char buf '\b';
              go ()
            | 'f' ->
              Buffer.add_char buf '\012';
              go ()
            | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape"
              else begin
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                (* Exactly 4 hex digits: [int_of_string "0x..."] alone
                   would also admit OCaml literal syntax ("1_2a"). *)
                let is_hex = function
                  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                  | _ -> false
                in
                if not (String.for_all is_hex hex) then fail "bad \\u escape";
                match int_of_string_opt ("0x" ^ hex) with
                | None -> fail "bad \\u escape"
                | Some code ->
                  (* Encode the code point as UTF-8 (BMP only; surrogate
                     pairs are passed through as-is, which round-trips our
                     own printer). *)
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else if code < 0x800 then begin
                    Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                  end
                  else begin
                    Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                    Buffer.add_char buf
                      (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                  end;
                  go ()
              end
            | _ -> fail "bad escape")
        | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    (* Enforce the JSON number grammar — optional minus, "0" or a
       nonzero-led digit run, optional ".digits", optional
       "[eE][+-]digits" — before handing the text to OCaml's lenient
       converters.  Rejects a leading '+', leading zeros ("05") and
       bare trailing parts ("1.", "1e") that
       [int_of_string]/[float_of_string] accept. *)
    let grammatical =
      let len = String.length text in
      let i = ref 0 in
      let digit c = c >= '0' && c <= '9' in
      let digits () =
        if !i < len && digit text.[!i] then begin
          while !i < len && digit text.[!i] do incr i done;
          true
        end
        else false
      in
      let ok = ref true in
      if !i < len && text.[!i] = '-' then incr i;
      (if !i < len && text.[!i] = '0' then incr i
       else if not (digits ()) then ok := false);
      if !ok && !i < len && text.[!i] = '.' then begin
        incr i;
        if not (digits ()) then ok := false
      end;
      if !ok && !i < len && (text.[!i] = 'e' || text.[!i] = 'E') then begin
        incr i;
        if !i < len && (text.[!i] = '+' || text.[!i] = '-') then incr i;
        if not (digits ()) then ok := false
      end;
      !ok && !i = len
    in
    if not grammatical then fail "bad number";
    let floatish =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
    in
    if floatish then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  (* [depth]: the containers around the value. *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('{' | '[') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Assoc []
      end
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields_loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        fields_loop ();
        Assoc (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items_loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        items_loop ();
        List (List.rev !items)
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Fail (p, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function Assoc fields -> List.assoc_opt key fields | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
