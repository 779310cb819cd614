(** KZG polynomial commitments over the SRS: constant-size commitments and
    opening proofs with pairing verification — the commitment scheme under
    Plonk. *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Poly = Zkdet_poly.Poly

type commitment = G1.t
type opening_proof = G1.t

val commit : Srs.t -> Poly.t -> commitment
(** [commit srs p] = [p(tau)]G1. Raises [Invalid_argument] if [p] exceeds
    the SRS size. *)

val commit_batch : Srs.t -> Poly.t array -> commitment array
(** Commit to several polynomials, one parallel-pool task each. *)

val open_at : Srs.t -> Poly.t -> Fr.t -> Fr.t * opening_proof
(** [open_at srs p z] is [(p(z), [q(tau)]G1)] with [q = (p - p(z))/(X - z)]. *)

val verify : Srs.t -> commitment -> z:Fr.t -> y:Fr.t -> opening_proof -> bool
(** Check [e(C - [y]G1, G2) = e(W, [tau - z]G2)]. *)

val open_batch :
  Srs.t -> Poly.t list -> Fr.t -> Fr.t -> Fr.t list * opening_proof
(** Open several polynomials at one point with a single proof, combining
    them with powers of a verifier challenge gamma. *)

val verify_batch :
  Srs.t -> commitment list -> z:Fr.t -> ys:Fr.t list -> Fr.t -> opening_proof -> bool
