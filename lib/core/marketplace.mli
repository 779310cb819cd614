(** End-to-end ZKDET marketplace (paper Fig. 1): glues the proving
    environment, the storage network, the chain and the contracts.

    Publishing uploads ciphertext, pi_e and a metadata manifest to
    storage and mints a data NFT whose URI is the manifest CID. Deriving
    mints tokens whose prevIds[] record provenance and whose manifests
    reference pi_t. Auditing walks the provenance graph on-chain, fetches
    everything from public storage and re-verifies the whole proof chain.
    Trading runs the key-secure exchange through the escrow and the
    on-chain verifier. *)

module Fr = Zkdet_field.Bn254.Fr
module Storage = Zkdet_storage.Storage
module Chain = Zkdet_chain.Chain
module Erc721 = Zkdet_contracts.Erc721
module Escrow = Zkdet_contracts.Escrow
module Verifier_contract = Zkdet_contracts.Verifier_contract

type t = {
  env : Env.t;
  chain : Chain.t;
  net : Storage.t;
  nft : Erc721.t;
  verifier : Verifier_contract.t;
  escrow : Escrow.t;
}

val bootstrap : Env.t -> operator:Chain.Address.t -> t
(** Deploy the whole stack: verifier (for pi_k), NFT registry, escrow. *)

val node : t -> id:string -> Storage.node
(** The storage node of a participant (created on first use). *)

(** Token metadata manifest, stored in the network; the token URI is its
    CID. Its text format, [zkdet-meta-v1], is specified in FORMATS.md. *)
type meta = {
  n : int;
  nonce : Fr.t;
  ct_cid : string;
  c_d : Fr.t;
  c_k : Fr.t;
  enc_proof_cid : string;  (** pi_e of this dataset *)
  origin : (Transform.kind * string) option;
      (** the derivation that made the dataset and the CID of its pi_t;
          [None] for a source *)
}

val meta_to_string : meta -> string

val meta_of_string : string -> meta option
(** The only reader of manifest lines: [None] unless the lines are
    exactly what {!meta_to_string} writes for some [meta]. An unknown
    kind, a kind without its sizes, a pi_t without a kind and a kind
    without a pi_t are all [None]. *)

val publish :
  t -> owner:Chain.Address.t -> Fr.t array ->
  (int * Transform.sealed, string) result
(** Seal, upload, prove pi_e, mint. Returns the token id and the owner's
    sealed handle. *)

val derive :
  t ->
  owner:Chain.Address.t ->
  parents:(int * Transform.sealed) list ->
  [ `Duplicate
  | `Aggregate
  | `Partition of int list
  | `Process of Circuits.processing_spec ] ->
  ((int * Transform.sealed) list, string) result
(** Transform owned tokens into derived ones: proves pi_t, uploads
    ciphertexts/proofs/manifests, mints with prevIds[]. *)

type audit_failure =
  [ `No_token
  | `No_meta
  | `Storage of string
  | `Commitment_mismatch
  | `Bad_encryption_proof of int
  | `Bad_transform_proof of int ]

val token_meta : t -> Storage.node -> int -> (meta, audit_failure) result
(** A token's decoded manifest, whose commitments match the chain's. *)

val audit_provenance :
  t -> auditor_id:string -> int -> (int, audit_failure) result
(** Full lineage audit (Fig. 3): for every token in [Erc721.provenance]
    order, decode its manifest once, verify pi_e, require the manifest's
    origin to be the chain's [transform] (a source exactly when the chain
    records none, else the same kind), check its sizes against the
    parents' ciphertext lengths and verify its pi_t. Returns the number
    of tokens verified, or the first failure in that order. Every pi_e
    and pi_t is checked in one {!Env.verify_all} after the walk, and one
    by one only when that rejects. *)

type trade_failure =
  [ `Offer_rejected
  | `Lock_failed of string
  | `Settle_failed of string
  | `Recovered_garbage ]

val trade :
  t ->
  seller:Chain.Address.t ->
  buyer:Chain.Address.t ->
  token_id:int ->
  sealed:Transform.sealed ->
  predicate:Circuits.predicate ->
  price:int ->
  (Fr.t array, trade_failure) result
(** Run a complete key-secure exchange of a token, ending with the NFT
    transfer; returns the buyer's recovered plaintext. *)
