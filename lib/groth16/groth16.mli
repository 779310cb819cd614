(** Groth16 (EUROCRYPT 2016) — the proving system behind ZKCP revisited
    [10], the baseline of the paper's Figure 7 and §VII.

    Shares the circuit builder with Plonk through a gate-to-R1CS
    conversion, so the same ZKCP circuits prove under both systems. The
    trade-offs the paper discusses are visible in the types: a
    circuit-specific trusted {!setup} (vs. Plonk's universal SRS) and a
    {!verify} whose cost carries one G1 exponentiation per public input
    (vs. Plonk's input-count-independent verifier). *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Domain = Zkdet_poly.Domain
module Cs = Zkdet_plonk.Cs

(** Rank-1 constraint system over wires
    [0 = constant one; v+1 = builder variable v]. *)
type r1cs = {
  num_wires : int;
  num_public : int;
  public_wires : int array;
  rows_a : (int * Fr.t) list array;
  rows_b : (int * Fr.t) list array;
  rows_c : (int * Fr.t) list array;
}

val of_compiled : Cs.compiled -> r1cs
(** Convert Plonk gates: [(qM a) * b = -(qL a + qR b + qO c + qC)];
    public-input rows become statement wires. *)

val full_witness : Cs.compiled -> Fr.t array
(** [1 :: witness] in wire order. *)

val satisfied : r1cs -> Fr.t array -> bool
(** Direct satisfaction check (test oracle). *)

type proving_key = {
  pk_r1cs : r1cs;
  domain : Domain.t;
  alpha_g1 : G1.t;
  beta_g1 : G1.t;
  beta_g2 : G2.t;
  delta_g1 : G1.t;
  delta_g2 : G2.t;
  a_query : G1.t array;
  b_query_g1 : G1.t array;
  b_query_g2 : G2.t array;
  k_query : G1.t array;
  h_query : G1.t array;
  vk : verification_key;
}

and verification_key = {
  vk_alpha_g1 : G1.t;
  vk_beta_g2 : G2.t;
  vk_gamma_g2 : G2.t;
  vk_delta_g2 : G2.t;
  vk_ic : G1.t array;
}

val setup : ?st:Random.State.t -> Cs.compiled -> proving_key
(** Circuit-specific trusted setup; the toxic waste is sampled and
    dropped. *)

type proof = { pi_a : G1.t; pi_b : G2.t; pi_c : G1.t }

val proof_codec : proof Zkdet_codec.Codec.t
(** Canonical wire format: ["ZGPF"] envelope (version 1), compressed
    points — 137 bytes.  Decoding validates every element, including the
    G2 subgroup check on pi_b. *)

val proof_to_bytes : proof -> string
val proof_of_bytes : string -> (proof, Zkdet_codec.Codec.error) result

val proof_size_bytes : proof -> int
(** [String.length (proof_to_bytes p)]. *)

val vk_codec : verification_key Zkdet_codec.Codec.t
(** ["ZGVK"] envelope: alpha, beta, gamma, delta plus the count-prefixed
    IC table. *)

val vk_to_bytes : verification_key -> string
val vk_of_bytes : string -> (verification_key, Zkdet_codec.Codec.error) result

val prove : ?st:Random.State.t -> proving_key -> Cs.compiled -> proof
(** Raises [Invalid_argument] on an unsatisfied witness. *)

val verify : verification_key -> Fr.t array -> proof -> bool
(** [e(A, B) = e(alpha, beta) e(IC(x), gamma) e(C, delta)] — one G1
    exponentiation per public input plus a 4-factor pairing product. *)

val batch_scalars : (verification_key * Fr.t array * proof) list -> Fr.t list
(** The deterministic Fiat-Shamir RLC scalars {!verify_batch} folds with:
    one per item, from a transcript over every (vk, publics, proof) in
    the batch — identical at any [ZKDET_DOMAINS]. *)

val verify_batch : (verification_key * Fr.t array * proof) list -> bool
(** Random-linear-combination batch verification: one multi-pairing of
    [N + 3 * #distinct-vks] pairs instead of [4N], folded under
    {!batch_scalars}, with one MSM per key for the public-input terms and
    one for the C terms.  Accepts exactly when every proof verifies
    individually; soundness error 1/|Fr| per batch.  Empty batches
    accept; singletons delegate to {!verify}. *)
