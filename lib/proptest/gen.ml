(* Generators as functions from a splittable RNG to a lazy rose tree of
   the value and its shrunk variants (Hedgehog-style integrated
   shrinking). Laziness matters: trees are exponentially large, and the
   engine only ever walks one failing path through them. *)

type 'a tree = Node of 'a * 'a tree Seq.t

let root (Node (x, _)) = x
let children (Node (_, cs)) = cs

type 'a t = Rng.t -> 'a tree

let generate g rng = root (g rng)

(* ---- tree algebra ---- *)

let rec map_tree f (Node (x, cs)) =
  Node (f x, Seq.map (map_tree f) cs)

(* Product shrinking: shrink the left component (right held fixed), then
   the right. Both sides keep their own subtrees, so shrinking is
   component-wise and terminates. *)
let rec map2_tree f (Node (a, as_) as ta) (Node (b, bs) as tb) =
  Node
    ( f a b,
      Seq.append
        (Seq.map (fun ta' -> map2_tree f ta' tb) as_)
        (fun () -> Seq.map (fun tb' -> map2_tree f ta tb') bs ()) )

(* Monadic shrinking: shrink the bound value and re-run the continuation
   on each candidate (from a snapshot of the continuation's RNG, so the
   regeneration is deterministic), then shrink the continuation's own
   output. *)
let rec bind_tree (Node (x, xs)) (k : 'a -> 'b tree) : 'b tree =
  let (Node (y, ys)) = k x in
  Node (y, Seq.append (Seq.map (fun tx -> bind_tree tx k) xs) ys)

let rec filter_tree p (Node (x, cs)) =
  Node
    ( x,
      Seq.filter_map
        (fun (Node (y, _) as c) -> if p y then Some (filter_tree p c) else None)
        cs )

(* ---- primitives ---- *)

let return x _rng = Node (x, Seq.empty)
let map f g rng = map_tree f (g rng)

let map2 f ga gb rng =
  let ra = Rng.split rng in
  let rb = Rng.split rng in
  map2_tree f (ga ra) (gb rb)

let bind g f rng =
  let rg = Rng.split rng in
  let rf = Rng.split rng in
  bind_tree (g rg) (fun x -> f x (Rng.copy rf))

let pair ga gb = map2 (fun a b -> (a, b)) ga gb
let map3 f ga gb gc = map2 (fun (a, b) c -> f a b c) (pair ga gb) gc
let triple ga gb gc = map3 (fun a b c -> (a, b, c)) ga gb gc
let no_shrink g rng = Node (generate g rng, Seq.empty)
let delay f rng = f () rng

(* ---- integers ---- *)

(* Shrink candidates for [x] moving toward [dest]: [dest] itself first,
   then binary steps closing the gap. *)
let towards dest x =
  if dest = x then Seq.empty
  else
    let rec halves d () =
      if d = 0 then Seq.Nil else Seq.Cons (x - d, halves (d / 2))
    in
    halves (x - dest)

let rec int_tree origin x = Node (x, Seq.map (int_tree origin) (towards origin x))

let int_origin ~origin lo hi rng =
  if lo > hi then invalid_arg "Gen.int_origin: empty range";
  let origin = max lo (min hi origin) in
  let x = lo + Rng.int rng (hi - lo + 1) in
  int_tree origin x

let int_range lo hi = int_origin ~origin:lo lo hi

let small_nat =
  (* Biased toward small sizes: 0-8 half the time, 0-64 otherwise. *)
  bind (int_range 0 1) (fun b -> if b = 0 then int_range 0 8 else int_range 0 64)

let bool = map (fun i -> i = 1) (int_range 0 1)

(* ---- floats ---- *)

(* Float shrinking follows [towards]: [dest], then [x] moved by the gap
   halved 1..20 times; candidates too close to [x] to differ from it are
   skipped, so every step makes progress. *)
let float_towards dest x =
  let d = x -. dest in
  Seq.filter (fun y -> y <> x) (Seq.init 21 (fun k -> x -. Float.ldexp d (-k)))

let rec float_tree origin x =
  Node (x, Seq.map (float_tree origin) (float_towards origin x))

let float_range lo hi rng =
  if not (lo <= hi) then invalid_arg "Gen.float_range: empty range";
  (* 53 uniform bits scaled onto [0, 1], both ends included. *)
  let k = Int64.to_float (Int64.shift_right_logical (Rng.next_int64 rng) 11) in
  let u = k /. (Float.ldexp 1. 53 -. 1.) in
  float_tree (Float.max lo (Float.min hi 0.)) (lo +. (u *. (hi -. lo)))

(* ---- choice ---- *)

let oneof gens =
  let n = List.length gens in
  if n = 0 then invalid_arg "Gen.oneof: empty list";
  let arr = Array.of_list gens in
  bind (int_range 0 (n - 1)) (fun i -> arr.(i))

let oneof_const xs = oneof (List.map return xs)

let frequency weighted =
  let total = List.fold_left (fun acc (w, _) -> acc + max 0 w) 0 weighted in
  if total <= 0 then invalid_arg "Gen.frequency: no positive weight";
  bind (int_range 0 (total - 1)) (fun k ->
      let rec pick k = function
        | [] -> assert false
        | (w, g) :: rest -> if k < w then g else pick (k - w) rest
      in
      pick k weighted)

let such_that ?(max_tries = 100) p g rng =
  let rec go tries =
    if tries = 0 then failwith "Gen.such_that: too many rejected candidates"
    else
      let t = g (Rng.split rng) in
      if p (root t) then filter_tree p t else go (tries - 1)
  in
  go max_tries

(* ---- lists ---- *)

let drop_chunk xs start len =
  List.filteri (fun i _ -> i < start || i >= start + len) xs

(* All lists obtained by removing [d] consecutive elements: at aligned
   offsets 0, d, 2d, ..., then the last [d] when [d] does not divide the
   length. *)
let removals d ts =
  let n = List.length ts in
  let rec offs i () =
    if i + d <= n then Seq.Cons (drop_chunk ts i d, offs (i + d))
    else if i < n then Seq.Cons (drop_chunk ts (n - d) d, Seq.empty)
    else Seq.Nil
  in
  if d <= 0 || d > n then Seq.empty else offs 0

let rec shrink_one_elt prefix = function
  | [] -> Seq.empty
  | (Node (_, cs) as t) :: rest ->
    fun () ->
      Seq.append
        (Seq.map (fun c -> List.rev_append prefix (c :: rest)) cs)
        (shrink_one_elt (t :: prefix) rest)
        ()

(* The list of [ts]'s roots, whose length is the root of the size tree
   [st].  It shrinks to each shorter length that [st] offers, by dropping
   chunks, so every shrink keeps a length the size generator can draw;
   then it shrinks one element at a time.  Big cuts come first because
   size trees offer their smallest values first. *)
let rec list_tree (Node (n, sizes) as st) ts =
  Node
    ( List.map root ts,
      Seq.append
        (Seq.concat_map
           (fun (Node (k, _) as sk) ->
             if k < 0 || k >= n then Seq.empty
             else Seq.map (list_tree sk) (removals (n - k) ts))
           sizes)
        (Seq.map (list_tree st) (shrink_one_elt [] ts)) )

(* The same draws as [bind size_gen (fun n -> n elements)]: the size
   from one split, the elements from successive splits of a second. *)
let list_size size_gen elt_gen rng =
  let rs = Rng.split rng in
  let re = Rng.split rng in
  let (Node (n, _) as st) = size_gen rs in
  let rec gen_trees acc k =
    if k <= 0 then List.rev acc
    else gen_trees (elt_gen (Rng.split re) :: acc) (k - 1)
  in
  list_tree st (gen_trees [] n)

let list elt_gen = list_size small_nat elt_gen
let array_size size_gen elt_gen = map Array.of_list (list_size size_gen elt_gen)

(* ---- strings ---- *)

(* Lengths below 10, 100, 1,000 and 10,000 with probabilities 1/2, 1/4,
   1/5 and 1/20; shrinking moves toward the short ranges first. *)
let string_length =
  frequency
    [ (10, int_range 0 9); (5, int_range 0 99); (4, int_range 0 999);
      (1, int_range 0 9999) ]

let string =
  map
    (fun cs -> String.of_seq (List.to_seq cs))
    (list_size string_length (map Char.chr (int_range 0 255)))
