type t = { words : int array; n : int }

let bits_per_word = 63

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word) 0; n }

let capacity s = s.n

let check s i =
  if i < 0 || i >= s.n then invalid_arg "Bitset: index out of range"

let mem s i =
  check s i;
  s.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add s i =
  check s i;
  let w = i / bits_per_word in
  s.words.(w) <- s.words.(w) lor (1 lsl (i mod bits_per_word))

let remove s i =
  check s i;
  let w = i / bits_per_word in
  s.words.(w) <- s.words.(w) land lnot (1 lsl (i mod bits_per_word))

(* SWAR over bits 0..61; bit 62, the sign bit, is counted apart: the
   masks must stay below [max_int], and a word of 62 bits has at most 62
   set, which the top byte of the final product (bits 56..62) holds. *)
let popcount x =
  let y = x land max_int in
  let y = y - ((y lsr 1) land 0x1555_5555_5555_5555) in
  let y =
    (y land 0x3333_3333_3333_3333) + ((y lsr 2) land 0x3333_3333_3333_3333)
  in
  let y = (y + (y lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  ((y * 0x0101_0101_0101_0101) lsr 56) + (x lsr 62)

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let copy s = { s with words = Array.copy s.words }

let same_capacity s1 s2 =
  if s1.n <> s2.n then invalid_arg "Bitset: capacity mismatch"

let union_into ~into s =
  same_capacity into s;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) lor s.words.(i)
  done

let inter s1 s2 =
  same_capacity s1 s2;
  let r = create s1.n in
  for i = 0 to Array.length r.words - 1 do
    r.words.(i) <- s1.words.(i) land s2.words.(i)
  done;
  r

let subset s1 s2 =
  same_capacity s1 s2;
  let ok = ref true in
  for i = 0 to Array.length s1.words - 1 do
    if s1.words.(i) land lnot s2.words.(i) <> 0 then ok := false
  done;
  !ok

(* Number of trailing zeros of a one-bit word, read from a table at
   [b mod 67]: 2 is a primitive root mod 67, so the powers [2^0 .. 2^61]
   leave distinct non-zero remainders.  Bit 62 is [min_int]; masking it
   with [max_int] sends it to remainder 0.  The table is a string
   literal, static data that costs nothing at start-up; the four
   remainders no one-bit word reaches hold 255. *)
let ntz_table =
  "\062\000\001\039\002\015\040\023\003\012\016\059\
   \041\019\024\054\004\255\013\010\017\255\060\028\
   \042\030\020\051\025\044\055\047\005\032\255\038\
   \014\022\011\058\018\053\255\009\061\027\029\050\
   \043\046\031\037\021\057\052\008\026\049\045\036\
   \056\007\048\035\006\034\033"

let ntz b = Char.code ntz_table.[(b land max_int) mod 67]

let iter f s =
  for w = 0 to Array.length s.words - 1 do
    let x = ref s.words.(w) in
    let base = w * bits_per_word in
    while !x <> 0 do
      let b = !x land (- !x) in
      f (base + ntz b);
      x := !x lxor b
    done
  done

let elements s =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) s;
  List.rev !acc

let clear s = Array.fill s.words 0 (Array.length s.words) 0

let equal s1 s2 =
  same_capacity s1 s2;
  let eq = ref true in
  for i = 0 to Array.length s1.words - 1 do
    if s1.words.(i) <> s2.words.(i) then eq := false
  done;
  !eq

let raw_words s = s.words

let hash s =
  let h = ref 0 in
  let k = Array.length s.words in
  for i = 0 to k - 1 do
    (* Fold each word in with a distinct odd multiplier per position so
       the same bits in different words hash apart; wrap-around is fine. *)
    h := (!h * 0x3C79AC49) + s.words.(i) + i
  done;
  (* One step more, as if a zero word followed: the search digests
     (test_core, test_harness) pin the memo slots these hashes pick. *)
  h := (!h * 0x3C79AC49) + k;
  let x = !h lxor (!h lsr 29) in
  (x * 0x2545F491) land max_int
