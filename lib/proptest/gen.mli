(** Composable random generators with integrated shrinking.

    A generator produces a lazy {e rose tree}: the root is the generated
    value, the children are progressively smaller variants of it. Every
    combinator threads the shrink trees through, so a value built from
    [map]/[bind]/[list] shrinks structurally for free — the engine never
    needs a separate shrinker, and shrinking can never produce a value
    the generator itself could not have produced (invariants encoded in
    the generator survive shrinking).

    Numeric generators shrink toward the lower bound (or a stated
    origin); collections shrink by dropping chunks and then shrinking
    elements; [oneof]/[frequency] shrink toward earlier alternatives. *)

type 'a tree = Node of 'a * 'a tree Seq.t

val root : 'a tree -> 'a
val children : 'a tree -> 'a tree Seq.t

type 'a t = Rng.t -> 'a tree

val generate : 'a t -> Rng.t -> 'a
(** Run the generator, discarding the shrink tree. *)

(** {2 Primitives} *)

val return : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
val map3 : ('a -> 'b -> 'c -> 'd) -> 'a t -> 'b t -> 'c t -> 'd t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val no_shrink : 'a t -> 'a t
(** Cut the shrink tree (for values whose shrunk forms are meaningless,
    e.g. uniform field elements). *)

val delay : (unit -> 'a t) -> 'a t

(** {2 Numbers and booleans} *)

val int_range : int -> int -> int t
(** [int_range lo hi] is uniform on [\[lo, hi\]], shrinking toward
    [lo]. *)

val int_origin : origin:int -> int -> int -> int t
(** Uniform on [\[lo, hi\]] shrinking toward [origin] (clamped). *)

val small_nat : int t
(** Sizes: uniform on [\[0, 64\]] biased small, shrinking toward 0. *)

val bool : bool t
(** Shrinks toward [false]. *)

val float_range : float -> float -> float t
(** [float_range lo hi] is uniform on [\[lo, hi\]], shrinking toward the
    point of the range nearest 0. *)

(** {2 Choice} *)

val oneof : 'a t list -> 'a t
val oneof_const : 'a list -> 'a t
val frequency : (int * 'a t) list -> 'a t

val such_that : ?max_tries:int -> ('a -> bool) -> 'a t -> 'a t
(** Retry until the predicate holds (also filters the shrink tree).
    Raises [Failure] after [max_tries] (default 100) rejections. *)

(** {2 Collections} *)

val list_size : int t -> 'a t -> 'a list t
(** [list_size size g] draws a length from [size], then that many
    elements.  It shrinks by dropping chunks, but only to the shorter
    lengths [size]'s own shrink tree offers, so a shrunk list always has
    a length [size] can draw; then it shrinks element by element. *)

val list : 'a t -> 'a list t
(** [list g] = [list_size small_nat g]. *)

val array_size : int t -> 'a t -> 'a array t

(** {2 Strings} *)

val string : string t
(** Byte strings of length 0 to 9,999 with uniform bytes: shorter than
    10 half the time, shorter than 100, 1,000 and 10,000 with
    probabilities 1/4, 1/5 and 1/20. Shrinks by dropping chunks, then
    bytes toward ['\000']. *)
