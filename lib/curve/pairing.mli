(** The optimal ate pairing e : G1 x G2 -> GT on BN254.

    One multi-Miller loop over the signed digits of 6x+2 serves every pair
    of a check, with the G2 point in projective coordinates (no step
    inverts) and sparse line products; the final exponentiation's hard
    part uses three exponentiations by x in the cyclotomic subgroup. The
    result is the m-th power of the standard reduced pairing,
    m = {!hard_power}, coprime to r: bilinear, non-degenerate, with the
    standard pairing's [pairing_check] verdicts. The reduced Tate pairing
    in the tests is the oracle for those properties.

    Precondition: every G2 argument lies in the order-r subgroup G2; the
    ate pairing is bilinear only there. Points from
    {!G2.of_bytes_fixed_result}, {!G2.of_bytes_compressed_result},
    {!G2.codec} and {!G2.codec_uncompressed} are checked; points built
    with [of_affine] or [of_affine_unchecked] are the caller's
    responsibility. *)

module Fr = Zkdet_field.Bn254.Fr

(** The target group (the r-th roots of unity in Fp12). *)
module Gt : sig
  type t

  val one : t
  val equal : t -> t -> bool
  val is_one : t -> bool
  val mul : t -> t -> t
  val inv : t -> t
  val pow_nat : t -> Zkdet_num.Nat.t -> t
  val pow : t -> Fr.t -> t
  val to_bytes : t -> string
  val pp : Format.formatter -> t -> unit
end

val final_exponentiation : Fp12.t -> Gt.t
(** [f^(m (p^12 - 1) / r)]: the standard final exponentiation raised to
    {!hard_power}. *)

val pairing : G1.t -> G2.t -> Gt.t

val pairing_product : (G1.t * G2.t) list -> Gt.t
(** The product of the pairings, with one shared Miller loop and one final
    exponentiation. Pairs with a point at infinity contribute 1. *)

val pairing_check : (G1.t * G2.t) list -> bool
(** [true] iff {!pairing_product} is the identity — the form used by
    KZG/Plonk verifiers. *)

(** {2 Parameters, derived and checked at init} *)

val x : Zkdet_num.Nat.t
(** The BN parameter: p = 36x^4 + 36x^3 + 24x^2 + 6x + 1. *)

val loop_naf : int array
(** The non-adjacent form of 6x+2, least significant digit first. *)

val hard_power : Zkdet_num.Nat.t
(** m = 2x(6x^2 + 3x + 1), the power of the standard pairing computed. *)
