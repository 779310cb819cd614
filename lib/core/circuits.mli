(** The protocol circuits of ZKDET (paper §IV): proofs of encryption
    pi_e, proofs of transformation pi_t for the four fundamental
    formulae, the data-validation proof pi_p, the key-negotiation proof
    pi_k, and the ZKCP baseline's proof (§III-C).

    Public-input layouts are fixed per circuit family and mirrored by the
    [*_publics] helpers so prover and verifier agree byte-for-byte. A
    {!statement} names the circuit a proof is about: its {!cache_key}
    keys the proving-key cache ({!Env}) and {!setup_circuit} builds the
    circuit that sets the key up. *)

module Fr = Zkdet_field.Bn254.Fr
module Cs = Zkdet_plonk.Cs

(** {2 Dataset and key commitments} *)

val commit_dataset : Fr.t array -> Fr.t -> Fr.t
val commit_key : Fr.t -> Fr.t -> Fr.t

val assert_dataset_opens :
  Cs.t -> commitment:Cs.wire -> Cs.wire array -> opening:Cs.wire -> unit

(** {2 Public predicates phi (§III-C / §IV-F)} *)

type predicate =
  | Trivial  (** no condition beyond well-formedness *)
  | Entries_bounded of int  (** every entry fits in [n] bits *)
  | Sum_equals of Fr.t  (** the entries sum to a public value *)

val predicate_publics : predicate -> Fr.t list
val assert_predicate : Cs.t -> predicate -> Cs.wire list -> Cs.wire array -> unit

(** {2 pi_e: proof of encryption}
    publics: [nonce :: c_d :: c_k :: ct_0 .. ct_(n-1)] *)

val encryption_publics :
  nonce:Fr.t -> c_d:Fr.t -> c_k:Fr.t -> ciphertext:Fr.t array -> Fr.t array

val encryption_circuit :
  data:Fr.t array -> key:Fr.t -> nonce:Fr.t -> o_d:Fr.t -> o_k:Fr.t -> Cs.t

(** {2 pi_t: proofs of transformation (§IV-D)} *)

val duplication_publics : c_s:Fr.t -> c_d:Fr.t -> Fr.t array
val duplication_circuit : src:Fr.t array * Fr.t -> dst:Fr.t array * Fr.t -> Cs.t

val aggregation_publics : c_sources:Fr.t list -> c_d:Fr.t -> Fr.t array

val aggregation_circuit :
  sources:(Fr.t array * Fr.t) list -> dst:Fr.t array * Fr.t -> Cs.t

val partition_publics : c_s:Fr.t -> c_parts:Fr.t list -> Fr.t array

val partition_circuit :
  src:Fr.t array * Fr.t -> parts:(Fr.t array * Fr.t) list -> Cs.t

(** {2 Processing (§IV-D.4, §IV-E)} *)

(** A registered, named data-processing relation. *)
type processing_spec = {
  proc_name : string;
  out_size : int -> int;
  check : Cs.t -> Cs.wire array -> Cs.wire array -> unit;
      (** constrains the relation between source and derived wires *)
  reference : Fr.t array -> Fr.t array;
      (** out-of-circuit semantics used by the data owner *)
}

val pure_spec :
  name:string ->
  out_size:(int -> int) ->
  apply:(Cs.t -> Cs.wire array -> Cs.wire array) ->
  reference:(Fr.t array -> Fr.t array) ->
  processing_spec
(** Spec for a pure function: the circuit recomputes D from S and
    equates. *)

val register_processing : processing_spec -> unit
(** Register globally so auditors can rebuild the circuit by name. *)

val find_processing : string -> processing_spec option

val processing_publics : c_s:Fr.t -> c_d:Fr.t -> Fr.t array

val processing_circuit :
  spec:processing_spec -> src:Fr.t array * Fr.t -> dst:Fr.t array * Fr.t -> Cs.t

val scale_spec : factor:int -> processing_spec
val sum_spec : processing_spec

(** {2 pi_p: data validation (§IV-F phase 1)}
    publics: [nonce :: c_d :: predicate params :: ct_0 .. ct_(n-1)] *)

val validation_publics :
  nonce:Fr.t -> c_d:Fr.t -> predicate:predicate -> ciphertext:Fr.t array ->
  Fr.t array

val validation_circuit :
  data:Fr.t array -> key:Fr.t -> nonce:Fr.t -> o_d:Fr.t ->
  predicate:predicate -> Cs.t

(** {2 pi_k: key negotiation (§IV-F phase 2)}
    publics: [k_c; c_k; h_v] *)

val key_publics : k_c:Fr.t -> c_k:Fr.t -> h_v:Fr.t -> Fr.t array
val key_circuit : key:Fr.t -> o_k:Fr.t -> k_v:Fr.t -> Cs.t

(** {2 ZKCP's pi_p (§III-C), the baseline}
    publics: [nonce :: h :: predicate params :: ct_0 .. ct_(n-1)], where
    [h = H(k)] binds the key the seller later discloses. *)

val zkcp_publics :
  nonce:Fr.t -> h:Fr.t -> predicate:predicate -> ciphertext:Fr.t array ->
  Fr.t array

val zkcp_circuit :
  data:Fr.t array -> key:Fr.t -> nonce:Fr.t -> predicate:predicate -> Cs.t

(** {2 Statements} *)

(** A derivation: which formula made a dataset, over which sizes. The
    sizes key the pi_t circuit. *)
type transform =
  | Duplication of int  (** source size *)
  | Aggregation of int list  (** source sizes, in order *)
  | Partition of int * int list  (** source size, part sizes *)
  | Processing of string * int  (** registered spec name, source size *)

(** Which circuit a proof is about: everything that fixes its structure,
    and nothing else. A [Sum_equals] value is a public input, so every
    sum over [n] entries is one statement's circuit. *)
type statement =
  | Encryption of int  (** pi_e over [n] entries *)
  | Transform of transform  (** pi_t *)
  | Validation of int * predicate  (** pi_p over [n] entries *)
  | Zkcp of int * predicate  (** ZKCP's pi_p over [n] entries *)
  | Key  (** pi_k *)

val cache_key : statement -> string
(** The statement's key in the proving-key cache. Two statements share
    it exactly when they differ only in a [Sum_equals] value. *)

val well_formed : statement -> bool
(** The statement's rule, in integer arithmetic: dataset sizes are
    non-negative and lineage sizes positive, a partition's parts are at
    most its source each and sum to it, and an [Entries_bounded] bit
    width lies in [0 .. Fr.num_bits - 1]. *)

val lineage_sizes : statement -> int list
(** The dataset sizes a proof of the lineage names. Each of those
    datasets carries a pi_e, so none is longer than {!Env.max_dataset}. *)

val setup_circuit : statement -> Cs.t option
(** The statement's circuit over a satisfying witness, for key setup.
    [None] when the statement is not {!well_formed}, names an
    unregistered processing function, or names one whose circuit raises
    [Invalid_argument] at that size. *)
