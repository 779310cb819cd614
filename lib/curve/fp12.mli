(** Fp12 = Fp6[w] / (w^2 - v), Fp6 = Fp2[v] / (v^3 - xi), xi = 9 + u:
    the pairing's target field, as one flat value.

    An element is an Fp buffer of 12 cells (384 bytes) in coefficient
    order c0.c0.c0, c0.c0.c1, c0.c1.c0, ..., c1.c2.c1 (over Fp6, then
    Fp2, then Fp), each cell in the field's limb layout.  Every operation
    below is one allocation-free C call (tower_stubs.c) on the field's
    Montgomery kernel; a function returning [t] allocates its 384-byte
    result ({!inv} and {!mul_by_034} a small scratch buffer too, and
    {!inv} one [Fp.inv]).  Values are never mutated after they are
    returned, except through the [_into] functions on buffers from
    {!copy}. *)

module Fp = Zkdet_field.Bn254.Fp

type t = private Fp.buf

val zero : t
val one : t

val init : (int -> Fp.t) -> t
(** [init f] has coefficient [i] equal to [f i], called for [i] from 0
    to 11 in order. *)

val get : t -> int -> Fp.t
(** Coefficient [i], [0 <= i < 12], in the order above. *)

val copy : t -> t

val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool

val mul : t -> t -> t
val sqr : t -> t

val mul_into : t -> t -> t -> unit
(** [mul_into d a b] sets [d] to [a b]; [d] may be [a] or [b].  [d] must
    be a buffer of the caller's own (from {!copy}), never a shared value. *)

val sqr_into : t -> t -> unit
(** [sqr_into d a] sets [d] to [a^2], as {!mul_into}. *)

val mul_by_034 : t -> Fp2.t -> Fp2.t -> Fp2.t -> t
(** The product by the sparse [d0 + (d3 + d4 v) w], the shape of a
    Miller-loop line on the D-type twist. *)

val conj : t -> t
(** The p^6-power Frobenius, [a0 - a1 w]: the inverse in the cyclotomic
    subgroup. *)

val frobenius : int -> t -> t
(** [frobenius k a] is [a^(p^k)] for [k >= 0]. *)

val inv : t -> t
(** Raises [Division_by_zero] on zero. *)

val cyclotomic_sqr : t -> t
(** Granger-Scott squaring: equals {!sqr} on the cyclotomic subgroup
    ([a^(p^4 - p^2 + 1) = 1], e.g. the outputs of the final
    exponentiation's easy part), and nothing elsewhere. *)

val cyclotomic_exp : t -> int array -> t
(** [cyclotomic_exp a digits] is [a^n] for [a] in the cyclotomic
    subgroup, [digits] the signed digits of [n > 0] in [{-1, 0, 1}], least
    significant first, top digit 1: one C call, with {!cyclotomic_sqr}
    per digit and {!conj} as the inverse. *)

val pow_nat : t -> Zkdet_num.Nat.t -> t

val to_bytes : t -> string
(** The 12 coefficients' 32-byte big-endian encodings, in order. *)

val pp : Format.formatter -> t -> unit

(** {2 The tower's parameters, derived and checked at init} *)

val gamma1 : Fp2.t
(** [xi^((p-1)/3)]: [v^p = gamma1 v]. *)

val gamma_w : Fp2.t
(** [xi^((p-1)/6)]: [w^p = gamma_w w]. *)

val params : string
(** The block every tower kernel takes: the field's
    {!Zkdet_field.Field_intf.S.kernel_params}, [xi]'s real part as a
    little-endian int64, then [gamma1], [gamma1^2] and [gamma_w] as Fp2
    values of two cells each (272 bytes). *)
