(** Plonk verifier: O(1) work — two fixed-size MSMs and one two-pair
    pairing check, independent of circuit size (§VI-B.3). *)

module Fr = Zkdet_field.Bn254.Fr

val verify : Preprocess.verification_key -> Fr.t array -> Proof.t -> bool
(** {!verify_batch} of one proof, which folds with rho = 1. *)

val batch_scalars :
  (Preprocess.verification_key * Fr.t array * Proof.t) list -> Fr.t list
(** The deterministic Fiat-Shamir RLC scalars {!verify_batch} folds with:
    one per item, from a transcript over every (vk, publics, proof) in
    the batch — identical at any [ZKDET_DOMAINS]. *)

val verify_batch :
  (Preprocess.verification_key * Fr.t array * Proof.t) list -> bool
(** Verify many proofs (possibly for different circuits) with one folded
    check per distinct SRS under {!batch_scalars}: one MSM per side of
    the verification equation and one two-pair pairing check.  Accepts
    exactly when every proof verifies individually; soundness error
    1/|Fr| per batch.  Empty batches accept.  Every non-empty check, a
    single {!verify} included, runs under one [plonk.verify] span, counts
    its proofs in [plonk.verifies] and emits one [Proof_verified]. *)
