module Json = Pipesched_prelude.Json
module Budget = Pipesched_prelude.Budget

(* ------------------------------------------------------------------ *)
(* KMV distinct-count sketch over canonical hashes.

   Keeps the [k] smallest distinct hash values seen.  Union of sketches
   = sketch of the union, so the estimate is invariant under how the
   stream was partitioned across shards — unlike any LRU-based count.
   Exact while fewer than [k] distinct values have been seen; above
   that, the classic (k-1) * range / kth-minimum estimator. *)

module Kmv = struct
  let k = 256

  type t = { mutable values : int array; mutable n : int }
  (* [values.(0 .. n-1)] sorted ascending, distinct. *)

  let create () = { values = Array.make k 0; n = 0 }

  (* Largest index with values.(i) < h, plus one — i.e. insertion point;
     [`Found] if h is present. *)
  let search t h =
    let lo = ref 0 and hi = ref t.n in
    let found = ref false in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let v = t.values.(mid) in
      if v = h then (
        found := true;
        lo := mid;
        hi := mid)
      else if v < h then lo := mid + 1
      else hi := mid
    done;
    (!lo, !found)

  (* splitmix64 finalizer.  The estimator needs hashes uniform over
     [0, max_int]; re-mixing here makes the sketch correct whatever the
     caller feeds it (64-bit FNV in production, Hashtbl.hash's 30 bits
     in tests). *)
  let mix h0 =
    let open Int64 in
    let z = of_int h0 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    to_int (logxor z (shift_right_logical z 31)) land Stdlib.max_int

  (* [h] is already mixed (insertion from [add] or another sketch). *)
  let insert t h =
    let pos, found = search t h in
    if not found then
      if t.n < k then (
        Array.blit t.values pos t.values (pos + 1) (t.n - pos);
        t.values.(pos) <- h;
        t.n <- t.n + 1)
      else if pos < k then (
        Array.blit t.values pos t.values (pos + 1) (k - pos - 1);
        t.values.(pos) <- h)

  let add t hash = insert t (mix hash)

  let merge_into ~dst src =
    for i = 0 to src.n - 1 do
      insert dst src.values.(i)
    done

  let estimate t =
    if t.n < k then float_of_int t.n
    else
      let kth = float_of_int t.values.(k - 1) in
      float_of_int (k - 1) *. float_of_int max_int /. kth

  (* Order-sensitive fold of the sketch contents: two sketches with the
     same fingerprint hold the same values with overwhelming
     probability, so including this in the deterministic render catches
     any divergence in the observed hash population. *)
  let fingerprint t =
    let acc = ref 0 in
    for i = 0 to t.n - 1 do
      acc := ((!acc * 1000003) + t.values.(i)) land max_int
    done;
    !acc

  let to_json t = Json.List (List.init t.n (fun i -> Json.Int t.values.(i)))

  let of_json j =
    match Json.to_list_opt j with
    | None -> Error "sketch: expected a list"
    | Some xs ->
      let t = create () in
      let ok =
        List.for_all
          (fun x ->
            match Json.to_int_opt x with
            | Some v ->
              (* Stored values are already mixed. *)
              insert t v;
              true
            | None -> false)
          xs
      in
      if ok then Ok t else Error "sketch: non-integer entry"
end

(* ------------------------------------------------------------------ *)
(* Log-bucketed wall-time histogram: 8 buckets per decade over
   [1us, 100s) — 64 buckets, ~33% relative resolution, constant
   memory, and merges by addition.  Times are not deterministic, so
   this feeds {!pp} and {!to_json} but never the deterministic
   render. *)

module Timehist = struct
  let buckets = 64
  let per_decade = 8.0
  let t0 = 1e-6

  type t = int array

  let create () : t = Array.make buckets 0

  let index time =
    if time <= t0 then 0
    else
      let i = int_of_float (Float.floor (per_decade *. log10 (time /. t0))) in
      if i < 0 then 0 else if i >= buckets then buckets - 1 else i

  let add (t : t) time = t.(index time) <- t.(index time) + 1

  let representative i =
    t0 *. Float.pow 10.0 ((float_of_int i +. 0.5) /. per_decade)

  let quantile (t : t) q =
    let total = Array.fold_left ( + ) 0 t in
    if total = 0 then 0.0
    else
      let target =
        let r = int_of_float (Float.ceil (q *. float_of_int total)) in
        if r < 1 then 1 else if r > total then total else r
      in
      let acc = ref 0 and ans = ref 0.0 and found = ref false in
      for i = 0 to buckets - 1 do
        if not !found then (
          acc := !acc + t.(i);
          if !acc >= target then (
            ans := representative i;
            found := true))
      done;
      !ans

  let merge_into ~(dst : t) (src : t) =
    for i = 0 to buckets - 1 do
      dst.(i) <- dst.(i) + src.(i)
    done

  let count (t : t) = Array.fold_left ( + ) 0 t
end

(* ------------------------------------------------------------------ *)
(* Keyed variant of the time histogram: one log-bucket sketch per string
   key (the load harness keys by response stage — hit / fresh /
   curtailed / ...).  Merges key-wise, so per-stage percentiles from
   concurrent connections or shards fold like everything else here. *)

module Keyed = struct
  type t = (string, Timehist.t) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let hist (t : t) key =
    match Hashtbl.find_opt t key with
    | Some h -> h
    | None ->
      let h = Timehist.create () in
      Hashtbl.add t key h;
      h

  let add t key time = Timehist.add (hist t key) time

  let count t key =
    match Hashtbl.find_opt t key with
    | Some h -> Timehist.count h
    | None -> 0

  let total (t : t) =
    Hashtbl.fold (fun _ h acc -> acc + Timehist.count h) t 0

  let quantile t key q =
    match Hashtbl.find_opt t key with
    | Some h -> Timehist.quantile h q
    | None -> 0.0

  let keys (t : t) =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])

  let merge_into ~dst (src : t) =
    Hashtbl.iter (fun k h -> Timehist.merge_into ~dst:(hist dst k) h) src
end

(* ------------------------------------------------------------------ *)

let size_buckets = 20
let size_bucket_width = 5

type t = {
  mutable blocks : int;
  mutable failed : int;
  mutable completed : int;
  mutable curtailed_lambda : int;
  mutable curtailed_deadline : int;
  mutable dedup_hits : int;
  mutable sum_size : int;
  mutable sum_initial_nops : int;
  mutable sum_final_nops : int;
  mutable sum_omega_calls : int;
  mutable sum_memo_hits : int;
  mutable sum_schedules_completed : int;
  mutable min_size : int;  (* max_int while no record folded *)
  mutable max_size : int;
  size_hist : int array;
  sketch : Kmv.t;
  times : Timehist.t;
  mutable sum_time_s : float;
}

let create () =
  {
    blocks = 0;
    failed = 0;
    completed = 0;
    curtailed_lambda = 0;
    curtailed_deadline = 0;
    dedup_hits = 0;
    sum_size = 0;
    sum_initial_nops = 0;
    sum_final_nops = 0;
    sum_omega_calls = 0;
    sum_memo_hits = 0;
    sum_schedules_completed = 0;
    min_size = max_int;
    max_size = 0;
    size_hist = Array.make size_buckets 0;
    sketch = Kmv.create ();
    times = Timehist.create ();
    sum_time_s = 0.0;
  }

let add_record t ?(from_cache = false) ~hash (r : Study.record) =
  t.blocks <- t.blocks + 1;
  (match r.Study.status with
  | Budget.Complete -> t.completed <- t.completed + 1
  | Budget.Curtailed_lambda -> t.curtailed_lambda <- t.curtailed_lambda + 1
  | Budget.Curtailed_deadline -> t.curtailed_deadline <- t.curtailed_deadline + 1);
  if from_cache then t.dedup_hits <- t.dedup_hits + 1;
  t.sum_size <- t.sum_size + r.Study.size;
  t.sum_initial_nops <- t.sum_initial_nops + r.Study.initial_nops;
  t.sum_final_nops <- t.sum_final_nops + r.Study.final_nops;
  t.sum_omega_calls <- t.sum_omega_calls + r.Study.omega_calls;
  t.sum_memo_hits <- t.sum_memo_hits + r.Study.memo_hits;
  t.sum_schedules_completed <-
    t.sum_schedules_completed + r.Study.schedules_completed;
  if r.Study.size < t.min_size then t.min_size <- r.Study.size;
  if r.Study.size > t.max_size then t.max_size <- r.Study.size;
  let b = min (r.Study.size / size_bucket_width) (size_buckets - 1) in
  t.size_hist.(b) <- t.size_hist.(b) + 1;
  Kmv.add t.sketch hash;
  Timehist.add t.times r.Study.time_s;
  t.sum_time_s <- t.sum_time_s +. r.Study.time_s

let add_failure t =
  t.blocks <- t.blocks + 1;
  t.failed <- t.failed + 1

let merge_into ~dst src =
  dst.blocks <- dst.blocks + src.blocks;
  dst.failed <- dst.failed + src.failed;
  dst.completed <- dst.completed + src.completed;
  dst.curtailed_lambda <- dst.curtailed_lambda + src.curtailed_lambda;
  dst.curtailed_deadline <- dst.curtailed_deadline + src.curtailed_deadline;
  dst.dedup_hits <- dst.dedup_hits + src.dedup_hits;
  dst.sum_size <- dst.sum_size + src.sum_size;
  dst.sum_initial_nops <- dst.sum_initial_nops + src.sum_initial_nops;
  dst.sum_final_nops <- dst.sum_final_nops + src.sum_final_nops;
  dst.sum_omega_calls <- dst.sum_omega_calls + src.sum_omega_calls;
  dst.sum_memo_hits <- dst.sum_memo_hits + src.sum_memo_hits;
  dst.sum_schedules_completed <-
    dst.sum_schedules_completed + src.sum_schedules_completed;
  if src.min_size < dst.min_size then dst.min_size <- src.min_size;
  if src.max_size > dst.max_size then dst.max_size <- src.max_size;
  for i = 0 to size_buckets - 1 do
    dst.size_hist.(i) <- dst.size_hist.(i) + src.size_hist.(i)
  done;
  Kmv.merge_into ~dst:dst.sketch src.sketch;
  Timehist.merge_into ~dst:dst.times src.times;
  dst.sum_time_s <- dst.sum_time_s +. src.sum_time_s

let blocks t = t.blocks
let failed t = t.failed
let completed t = t.completed
let dedup_hits t = t.dedup_hits
let sum_time_s t = t.sum_time_s
let distinct_estimate t = Kmv.estimate t.sketch
let time_quantile t q = Timehist.quantile t.times q

let rendered_min_size t = if t.min_size = max_int then 0 else t.min_size

let deterministic_json t =
  Json.Assoc
    [
      ("blocks", Json.Int t.blocks);
      ("failed", Json.Int t.failed);
      ("completed", Json.Int t.completed);
      ("curtailed_lambda", Json.Int t.curtailed_lambda);
      ("curtailed_deadline", Json.Int t.curtailed_deadline);
      ("sum_size", Json.Int t.sum_size);
      ("sum_initial_nops", Json.Int t.sum_initial_nops);
      ("sum_final_nops", Json.Int t.sum_final_nops);
      ("sum_omega_calls", Json.Int t.sum_omega_calls);
      ("sum_memo_hits", Json.Int t.sum_memo_hits);
      ("sum_schedules_completed", Json.Int t.sum_schedules_completed);
      ("min_size", Json.Int (rendered_min_size t));
      ("max_size", Json.Int t.max_size);
      ( "size_hist",
        Json.List (Array.to_list (Array.map (fun n -> Json.Int n) t.size_hist))
      );
      ("distinct_estimate", Json.Float (distinct_estimate t));
      ("sketch_fp", Json.Int (Kmv.fingerprint t.sketch));
    ]

let render t = Json.to_string (deterministic_json t)

let to_json t =
  Json.Assoc
    [
      ("blocks", Json.Int t.blocks);
      ("failed", Json.Int t.failed);
      ("completed", Json.Int t.completed);
      ("curtailed_lambda", Json.Int t.curtailed_lambda);
      ("curtailed_deadline", Json.Int t.curtailed_deadline);
      ("dedup_hits", Json.Int t.dedup_hits);
      ("sum_size", Json.Int t.sum_size);
      ("sum_initial_nops", Json.Int t.sum_initial_nops);
      ("sum_final_nops", Json.Int t.sum_final_nops);
      ("sum_omega_calls", Json.Int t.sum_omega_calls);
      ("sum_memo_hits", Json.Int t.sum_memo_hits);
      ("sum_schedules_completed", Json.Int t.sum_schedules_completed);
      ("min_size", Json.Int t.min_size);
      ("max_size", Json.Int t.max_size);
      ( "size_hist",
        Json.List (Array.to_list (Array.map (fun n -> Json.Int n) t.size_hist))
      );
      ("sketch", Kmv.to_json t.sketch);
      ( "time_hist",
        Json.List (Array.to_list (Array.map (fun n -> Json.Int n) t.times)) );
      ("sum_time_s", Json.Float t.sum_time_s);
    ]

let of_json j =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let field name = Json.member name j in
  let int name =
    match Option.bind (field name) Json.to_int_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "aggregate: missing int field %S" name)
  in
  let float_ name =
    match Option.bind (field name) Json.to_float_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "aggregate: missing float field %S" name)
  in
  let int_array name len =
    match Option.bind (field name) Json.to_list_opt with
    | Some xs when List.length xs = len -> (
      let vals = List.filter_map Json.to_int_opt xs in
      match List.length vals = len with
      | true -> Ok (Array.of_list vals)
      | false -> Error (Printf.sprintf "aggregate: bad entries in %S" name))
    | _ -> Error (Printf.sprintf "aggregate: field %S must be a %d-list" name len)
  in
  let* blocks = int "blocks" in
  let* failed = int "failed" in
  let* completed = int "completed" in
  let* curtailed_lambda = int "curtailed_lambda" in
  let* curtailed_deadline = int "curtailed_deadline" in
  let* dedup_hits = int "dedup_hits" in
  let* sum_size = int "sum_size" in
  let* sum_initial_nops = int "sum_initial_nops" in
  let* sum_final_nops = int "sum_final_nops" in
  let* sum_omega_calls = int "sum_omega_calls" in
  let* sum_memo_hits = int "sum_memo_hits" in
  let* sum_schedules_completed = int "sum_schedules_completed" in
  let* min_size = int "min_size" in
  let* max_size = int "max_size" in
  let* size_hist = int_array "size_hist" size_buckets in
  let* sketch =
    match field "sketch" with
    | Some s -> Kmv.of_json s
    | None -> Error "aggregate: missing field \"sketch\""
  in
  let* time_hist = int_array "time_hist" Timehist.buckets in
  let* sum_time_s = float_ "sum_time_s" in
  Ok
    {
      blocks;
      failed;
      completed;
      curtailed_lambda;
      curtailed_deadline;
      dedup_hits;
      sum_size;
      sum_initial_nops;
      sum_final_nops;
      sum_omega_calls;
      sum_memo_hits;
      sum_schedules_completed;
      min_size;
      max_size;
      size_hist;
      sketch;
      times = time_hist;
      sum_time_s;
    }

let pp ?wall_s fmt t =
  let scheduled = t.blocks - t.failed in
  let avg num = if scheduled = 0 then 0.0 else float_of_int num /. float_of_int scheduled in
  Format.fprintf fmt "blocks            %d@." t.blocks;
  (match wall_s with
  | Some w when w > 0.0 ->
    Format.fprintf fmt "blocks/sec        %.1f@." (float_of_int t.blocks /. w)
  | _ -> ());
  Format.fprintf fmt "failed            %d@." t.failed;
  Format.fprintf fmt "completed         %d (%.2f%%)@." t.completed
    (100.0 *. avg t.completed);
  Format.fprintf fmt "curtailed lambda  %d@." t.curtailed_lambda;
  Format.fprintf fmt "curtailed dline   %d@." t.curtailed_deadline;
  Format.fprintf fmt "size min/avg/max  %d / %.1f / %d@." (rendered_min_size t)
    (avg t.sum_size) t.max_size;
  Format.fprintf fmt "avg initial NOPs  %.2f@." (avg t.sum_initial_nops);
  Format.fprintf fmt "avg final NOPs    %.2f@." (avg t.sum_final_nops);
  Format.fprintf fmt "avg Omega calls   %.0f@." (avg t.sum_omega_calls);
  Format.fprintf fmt "distinct classes  ~%.0f@." (distinct_estimate t);
  Format.fprintf fmt "dedup cache hits  %d@." t.dedup_hits;
  Format.fprintf fmt "block time p50    %.2e s@." (time_quantile t 0.5);
  Format.fprintf fmt "block time p99    %.2e s@." (time_quantile t 0.99)
