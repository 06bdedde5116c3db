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
