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

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

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

(* Number of trailing zeros of a one-bit word (binary search). *)
let ntz b =
  let n = ref 0 and x = ref b in
  if !x land 0xFFFFFFFF = 0 then begin n := !n + 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then incr n;
  !n

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

let to_buffer s buf =
  let k = ref 0 in
  for w = 0 to Array.length s.words - 1 do
    let x = ref s.words.(w) in
    let base = w * bits_per_word in
    while !x <> 0 do
      let b = !x land (- !x) in
      buf.(!k) <- base + ntz b;
      incr k;
      x := !x lxor b
    done
  done;
  !k

let elements s =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) s;
  List.rev !acc

let clear s = Array.fill s.words 0 (Array.length s.words) 0

let equal s1 s2 =
  same_capacity s1 s2;
  s1.words = s2.words

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
