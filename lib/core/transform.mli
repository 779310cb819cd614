(** The generic data transformation protocol (paper §IV-B): sealed
    datasets (encrypted + committed), decoupled reusable proofs of
    encryption pi_e, and proofs of transformation pi_t for the four
    fundamental formulae of §IV-D. The lineage audit that chains them
    (Fig. 3) is [Marketplace.audit_provenance]. *)

module Fr = Zkdet_field.Bn254.Fr
module Proof = Zkdet_plonk.Proof

(** A dataset as its owner holds it: plaintext and secrets alongside the
    public ciphertext and commitments. Only [ciphertext], [c_d], [c_k]
    and [nonce] are ever published. *)
type sealed = {
  data : Fr.t array;
  key : Fr.t;
  nonce : Fr.t;
  o_d : Fr.t;  (** opening of the dataset commitment *)
  o_k : Fr.t;  (** opening of the key commitment *)
  ciphertext : Fr.t array;
  c_d : Fr.t;
  c_k : Fr.t;
}

val size : sealed -> int

val seal : ?st:Random.State.t -> Fr.t array -> sealed
(** Encrypt (MiMC-CTR) and commit (Poseidon) under fresh secrets. *)

val decrypt : key:Fr.t -> nonce:Fr.t -> Fr.t array -> Fr.t array

(** {2 Proof of encryption (pi_e)} *)

val prove_encryption : Env.t -> sealed -> Proof.t

val verify_encryption :
  Env.t -> nonce:Fr.t -> c_d:Fr.t -> c_k:Fr.t -> ciphertext:Fr.t array ->
  Proof.t -> bool
(** Verification from public data only, through {!Env.verify}. False,
    with no circuit built, for a ciphertext longer than
    {!Env.max_dataset}. *)

(** {2 Transformations (pi_t)} *)

(** A derivation: which formula made a dataset, over which sizes. The
    sizes key the pi_t circuit: [Circuits.Transform kind] is its
    statement. *)
type kind = Circuits.transform =
  | Duplication of int  (** source size *)
  | Aggregation of int list  (** source sizes, in order *)
  | Partition of int * int list  (** source size, part sizes *)
  | Processing of string * int  (** registered spec name, source size *)

val chain_kind : kind -> Zkdet_contracts.Erc721.transform_kind
(** What the NFT registry records of a derivation: the kind without its
    sizes. *)

val kind_name : kind -> string
(** [Erc721.transform_name (chain_kind k)]. *)

(** One link of a proof chain: a transformation relating source
    commitments to destination commitments through pi_t. *)
type link = {
  kind : kind;
  src_commitments : Fr.t list;
  dst_commitments : Fr.t list;
  proof : Proof.t;
}

val duplicate : Env.t -> sealed -> sealed * link
(** Reseal the same content under fresh secrets; prove equality
    (§IV-D.1). *)

val aggregate : Env.t -> sealed list -> sealed * link
(** Ordered concatenation of several datasets (§IV-D.2). *)

val partition : Env.t -> sealed -> sizes:int list -> sealed list * link
(** Split into consecutive non-empty slices — exhaustive and mutually
    exclusive (§IV-D.3). Raises [Invalid_argument] unless the sizes are
    positive and sum to the source size. *)

val process : Env.t -> sealed -> spec:Circuits.processing_spec -> sealed * link
(** Apply a registered processing function and prove D = f(S) or the
    spec's relational predicate (§IV-D.4, §IV-E). *)

(** {2 Verification} *)

val link_publics : link -> Fr.t array option
(** The link's commitments as its pi_t's public inputs, sources first;
    [None] when their counts do not fit its kind (one source and one
    destination for a duplication or a processing, one destination for
    an aggregation, one source for a partition). *)

val verify_link : Env.t -> link -> bool
(** Verify one pi_t against its public commitments through
    {!Env.verify}: false, and nothing cached, for a malformed kind, a
    dataset longer than {!Env.max_dataset} or a circuit over the SRS. *)
