(** Circuit preprocessing: selector polynomials, copy-constraint
    permutation polynomials sigma_{1,2,3} and their commitments. The
    circuit-specific (but transparent) part of Plonk's setup; the
    universal part is the SRS. *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module Poly = Zkdet_poly.Poly
module Domain = Zkdet_poly.Domain
module Srs = Zkdet_kzg.Srs

type proving_key = {
  domain : Domain.t;
  domain4 : Domain.t;  (** 4n coset domain for the quotient *)
  srs : Srs.t;
  n : int;
  n_public : int;
  gates : Cs.gate array;  (** padded to n *)
  ql : Poly.t;
  qr : Poly.t;
  qo : Poly.t;
  qm : Poly.t;
  qc : Poly.t;
  k1 : Fr.t;
  k2 : Fr.t;
  sigma1 : Poly.t;
  sigma2 : Poly.t;
  sigma3 : Poly.t;
  sigma1_evals : Fr.buf;
  sigma2_evals : Fr.buf;
  sigma3_evals : Fr.buf;
  coset_fixed : Fr.buf array;
      (** precomputed 4n-coset evaluations: ql qr qo qm qc s1 s2 s3 l1 *)
  coset_x : Fr.buf;  (** the 4n coset points [g w4^i] *)
  coset_zh_inv : Fr.buf;
      (** [1 / Z_H(g w4^i)] for [i < 4]; Z_H has period 4 on the coset *)
  vk : verification_key;
}

and verification_key = {
  vk_n : int;
  vk_n_public : int;
  vk_domain : Domain.t;
  vk_k1 : Fr.t;
  vk_k2 : Fr.t;
  cm_ql : G1.t;
  cm_qr : G1.t;
  cm_qo : G1.t;
  cm_qm : G1.t;
  cm_qc : G1.t;
  cm_sigma1 : G1.t;
  cm_sigma2 : G1.t;
  cm_sigma3 : G1.t;
  vk_g2 : Zkdet_curve.G2.t;
  vk_g2_tau : Zkdet_curve.G2.t;
}

val vk_codec : verification_key Zkdet_codec.Codec.t
(** Canonical wire format: ["ZKVK"] envelope (version 1).  The FFT domain
    is stored as its log2 size and rebuilt on decode. *)

val vk_to_bytes : verification_key -> string
val vk_of_bytes : string -> (verification_key, Zkdet_codec.Codec.error) result

val padded_size : Cs.compiled -> int
(** The row count [n] that {!setup} pads a circuit to: the next power of
    two, at least 8. *)

val fits : Srs.t -> Cs.compiled -> bool
(** Whether {!setup} accepts the circuit over the SRS: it needs [n + 6]
    G1 powers for the padded size [n] (blinding headroom). *)

val setup : Srs.t -> Cs.compiled -> proving_key
(** Build the proving key (and embedded verification key) for a compiled
    circuit. Raises [Invalid_argument] unless the circuit {!fits}. *)
