module A = Bigarray.Array1

type rows = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

(* Only [depths] needs initializing: the other arrays are read only at
   occupied slots ([depths >= 0]), which a store has written. *)
let make n = A.create Bigarray.int Bigarray.c_layout n

type t = {
  key_words : int;
  value_words : int;
  max_mask : int;          (* capacity bound - 1; capacity is a power of two *)
  mutable mask : int;      (* current allocation - 1; grows up to max_mask *)
  mutable probe : int;     (* linear-probe window length *)
  mutable depths : rows;   (* per slot; -1 = empty *)
  mutable hashes : rows;   (* per slot; quick reject before key compare *)
  mutable keys : rows;     (* allocation * key_words *)
  mutable values : rows;   (* allocation * value_words *)
  mutable entries : int;
  mutable evictions : int;
}

(* Bounding the probe window bounds both the lookup cost and the age of
   what eviction can displace; 8 slots is plenty at sane load factors. *)
let max_probe = 8

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let allocate t alloc =
  t.mask <- alloc - 1;
  t.probe <- min alloc max_probe;
  t.depths <- make alloc;
  A.fill t.depths (-1);
  t.hashes <- make alloc;
  t.keys <- make (alloc * t.key_words);
  t.values <- make (alloc * t.value_words);
  t.entries <- 0

let create_growing ~initial ~capacity ~key_words ~value_words =
  if capacity < 1 then invalid_arg "Memo_table.create: capacity must be >= 1";
  if key_words < 1 then invalid_arg "Memo_table.create: key_words must be >= 1";
  if value_words < 1 then
    invalid_arg "Memo_table.create: value_words must be >= 1";
  if initial < 1 then invalid_arg "Memo_table.create: initial must be >= 1";
  let cap = next_pow2 capacity in
  let empty = make 0 in
  let t =
    { key_words; value_words; max_mask = cap - 1; mask = 0; probe = 0;
      depths = empty; hashes = empty; keys = empty; values = empty;
      entries = 0; evictions = 0 }
  in
  allocate t (min cap (next_pow2 initial));
  t

let create ~capacity ~key_words ~value_words =
  create_growing ~initial:capacity ~capacity ~key_words ~value_words

let capacity t = t.max_mask + 1
let allocated t = t.mask + 1
let entries t = t.entries
let evictions t = t.evictions

let check_key t key =
  if Array.length key <> t.key_words then
    invalid_arg "Memo_table: key length mismatch"

let check_value t value =
  if Array.length value <> t.value_words then
    invalid_arg "Memo_table: value length mismatch"

(* Slots are [0 .. mask] and rows lie inside their arrays by
   construction, so the loops below index without bounds checks. *)
let key_eq t slot key =
  let base = slot * t.key_words in
  let ok = ref true in
  for i = 0 to t.key_words - 1 do
    if A.unsafe_get t.keys (base + i) <> Array.unsafe_get key i then ok := false
  done;
  !ok

let find t ~hash key =
  check_key t key;
  let found = ref (-1) in
  let j = ref 0 in
  while !found < 0 && !j < t.probe do
    let s = (hash + !j) land t.mask in
    if
      A.unsafe_get t.depths s >= 0
      && A.unsafe_get t.hashes s = hash
      && key_eq t s key
    then found := s;
    incr j
  done;
  !found

let values t = t.values

let depth_at t slot =
  if slot < 0 || slot > t.mask then invalid_arg "Memo_table.depth_at: slot";
  A.get t.depths slot

(* Copy [words] words from row [src] of [a] to row [dst] of [b]. *)
let copy_row (a : rows) src (b : rows) dst words =
  for i = 0 to words - 1 do
    A.unsafe_set b ((dst * words) + i) (A.unsafe_get a ((src * words) + i))
  done

(* Double the allocation (toward the capacity bound) and rehash with the
   stored hashes.  Keys are distinct, so rehashing needs no key compare;
   a probe window that fills during the rehash (rare at half load) falls
   back to the normal depth rule, counting a displacement or drop as an
   eviction. *)
let grow t =
  let old_mask = t.mask
  and old_depths = t.depths
  and old_hashes = t.hashes
  and old_keys = t.keys
  and old_values = t.values in
  allocate t ((old_mask + 1) * 2);
  for s = 0 to old_mask do
    let depth = A.unsafe_get old_depths s in
    if depth >= 0 then begin
      let hash = A.unsafe_get old_hashes s in
      let empty = ref (-1) and deepest = ref (-1) in
      for j = 0 to t.probe - 1 do
        let s' = (hash + j) land t.mask in
        if A.unsafe_get t.depths s' < 0 then begin
          if !empty < 0 then empty := s'
        end
        else if
          !deepest < 0
          || A.unsafe_get t.depths s' > A.unsafe_get t.depths !deepest
        then deepest := s'
      done;
      let slot =
        if !empty >= 0 then begin
          t.entries <- t.entries + 1;
          !empty
        end
        else begin
          t.evictions <- t.evictions + 1;
          if A.unsafe_get t.depths !deepest > depth then !deepest else -1
        end
      in
      if slot >= 0 then begin
        copy_row old_keys s t.keys slot t.key_words;
        copy_row old_values s t.values slot t.value_words;
        A.unsafe_set t.depths slot depth;
        A.unsafe_set t.hashes slot hash
      end
    end
  done

let rec store t ~hash ~depth ~key ~value =
  check_key t key;
  check_value t value;
  if depth < 0 then invalid_arg "Memo_table.store: negative depth";
  (* Keep the load factor under 3/4 while room to grow remains, so probe
     windows rarely saturate before the capacity bound is reached. *)
  if t.mask < t.max_mask && t.entries * 4 >= (t.mask + 1) * 3 then grow t;
  let matching = ref (-1) and empty = ref (-1) and deepest = ref (-1) in
  for j = 0 to t.probe - 1 do
    let s = (hash + j) land t.mask in
    if A.unsafe_get t.depths s < 0 then begin
      if !empty < 0 then empty := s
    end
    else begin
      if !matching < 0 && A.unsafe_get t.hashes s = hash && key_eq t s key then
        matching := s;
      if
        !deepest < 0
        || A.unsafe_get t.depths s > A.unsafe_get t.depths !deepest
      then deepest := s
    end
  done;
  if !matching < 0 && !empty < 0 && t.mask < t.max_mask then begin
    (* Window saturated below the bound: grow instead of evicting, then
       retry (the rehash spreads the window's entries out). *)
    grow t;
    store t ~hash ~depth ~key ~value
  end
  else begin
    let slot =
      if !matching >= 0 then !matching
      else if !empty >= 0 then begin
        t.entries <- t.entries + 1;
        !empty
      end
      else if A.unsafe_get t.depths !deepest > depth then begin
        (* Depth-preferring eviction: displace the guard of the smallest
           subtree, and only for a shallower (more valuable) newcomer. *)
        t.evictions <- t.evictions + 1;
        !deepest
      end
      else -1
    in
    if slot < 0 then false
    else begin
      for i = 0 to t.key_words - 1 do
        A.unsafe_set t.keys ((slot * t.key_words) + i) (Array.unsafe_get key i)
      done;
      for i = 0 to t.value_words - 1 do
        A.unsafe_set t.values
          ((slot * t.value_words) + i)
          (Array.unsafe_get value i)
      done;
      A.unsafe_set t.depths slot depth;
      A.unsafe_set t.hashes slot hash;
      true
    end
  end

let clear t =
  A.fill t.depths (-1);
  t.entries <- 0;
  t.evictions <- 0
