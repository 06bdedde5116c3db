let add_int buf i =
  (* Digits are taken from the non-positive side: [-min_int] does not
     exist, while every [i] has a non-positive counterpart. *)
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))
  in
  if i < 0 then begin
    Buffer.add_char buf '-';
    digits i
  end
  else digits (-i)

(* The value of the digits in [s.[i .. stop-1]] after [acc], or [-1]
   at a non-digit. *)
let rec digits s i stop acc =
  if i = stop then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> digits s (i + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

let int_of_substring s pos len =
  (* The common case, an optional '-' and at most 18 digits (so no
     overflow), is read in place; any other text — a '+', a 0x/0o/0b/0u
     prefix, '_' separators, more digits, garbage — goes to
     [int_of_string_opt] itself, so both accept and return exactly the
     same. *)
  let neg = len > 0 && s.[pos] = '-' in
  let first = if neg then pos + 1 else pos in
  let stop = pos + len in
  let v =
    if stop - first >= 1 && stop - first <= 18 then digits s first stop 0
    else -1
  in
  if v >= 0 then Some (if neg then -v else v)
  else int_of_string_opt (String.sub s pos len)
