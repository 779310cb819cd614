(** On-chain Plonk verifier (paper §VI-C.2): the verification key is
    baked into the deployed bytecode (a one-time ~1.64M gas deployment);
    each verification costs a constant amount — 2 pairings plus a fixed
    number of group operations — regardless of circuit or data size. *)

module Fr = Zkdet_field.Bn254.Fr
module Chain = Zkdet_chain.Chain
module Gas = Zkdet_chain.Gas
module Preprocess = Zkdet_plonk.Preprocess
module Proof = Zkdet_plonk.Proof

type t = {
  address : Chain.Address.t;
  vk : Preprocess.verification_key;
  code_size : int;
}

val deploy :
  Chain.t -> deployer:Chain.Address.t -> Preprocess.verification_key ->
  t * Chain.receipt

val charge_verification : Gas.meter -> n_public:int -> unit
(** The fixed gas cost of one verification through the EVM precompiles
    (18 ecmul + 16 ecadd + transcript keccaks + 2 pairings). *)

val verify :
  t -> Chain.t -> sender:Chain.Address.t -> Fr.t array -> Proof.t ->
  bool * Chain.receipt

val charge_batch_item : Gas.meter -> n_public:int -> unit
(** Per-proof marginal gas of the batched check: the linearization still
    runs per proof; only the pairing is shared. *)

val charge_batch_finalize : Gas.meter -> unit
(** The one folded pairing check charged per block. *)

val verify_batch :
  t -> Chain.t -> sender:Chain.Address.t -> (Fr.t array * Proof.t) list ->
  bool * Chain.receipt
(** Verify a block of proofs in one metered call: per-proof gas is
    attributed via ["BatchProofGas"] events, the folded pairing is
    charged once, and the verdict (deterministic RLC fold) covers the
    whole block.  Empty blocks revert. *)
