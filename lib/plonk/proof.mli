(** Plonk proofs: exactly 9 G1 points and 6 scalars, matching the sizes
    the paper reports (§VI-B.3), independent of the circuit. *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1

type t = {
  cm_a : G1.t;
  cm_b : G1.t;
  cm_c : G1.t;
  cm_z : G1.t;
  cm_t_lo : G1.t;
  cm_t_mid : G1.t;
  cm_t_hi : G1.t;
  cm_w_zeta : G1.t;
  cm_w_zeta_omega : G1.t;
  eval_a : Fr.t;
  eval_b : Fr.t;
  eval_c : Fr.t;
  eval_s1 : Fr.t;
  eval_s2 : Fr.t;
  eval_z_omega : Fr.t;
}

val g1_points : t -> G1.t list
val evaluations : t -> Fr.t list

val to_bytes : t -> string
(** Fixed-width uncompressed serialization (9 x 65 + 6 x 32 = 777
    bytes): what escrow calldata is charged for and what proof-size
    reports count. Proofs travel and are stored in the {!codec} form. *)

val size_bytes : t -> int

val codec : t Zkdet_codec.Codec.t
(** Canonical wire format: ["ZKPF"] envelope (version 1) around 9
    compressed G1 points and 6 scalars — 495 bytes.  Decoding is total on
    untrusted bytes and validates every element. *)

val wire_encode : t -> string
(** [Codec.encode codec] *)

val wire_decode : string -> (t, Zkdet_codec.Codec.error) result
(** [Codec.decode codec] *)
