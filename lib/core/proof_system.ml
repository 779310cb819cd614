(* The shared proof-system API (§VI of the paper compares Plonk against
   Groth16 along exactly these operations).  Both backends in the repo
   implement it, so protocols and harnesses can be functorized over the
   backend instead of hard-coding Plonk; the ascriptions below are
   checked at compile time. *)

module Fr = Zkdet_field.Bn254.Fr
module Cs = Zkdet_plonk.Cs

module type S = sig
  val name : string

  type proving_key
  type verification_key
  type proof

  val setup : ?st:Random.State.t -> Cs.compiled -> proving_key
  (** Produce a proving key for the circuit.  Plonk serves a universal
      per-size SRS from a cache (so [st] is consumed only by the first
      setup of a given size); Groth16 runs its circuit-specific trusted
      setup every time. *)

  val vk : proving_key -> verification_key

  val prove : ?st:Random.State.t -> proving_key -> Cs.compiled -> proof
  (** Raises [Invalid_argument] if the compiled witness does not satisfy
      the circuit. *)

  val verify : verification_key -> Fr.t array -> proof -> bool

  val verify_batch : (verification_key * Fr.t array * proof) list -> bool
  (** Verify a batch with a random linear combination of the per-proof
      pairing checks — one multi-pairing instead of one per proof.  The
      RLC scalars are derived deterministically from a Fiat–Shamir
      transcript over every (vk, publics, proof) in the batch, so the
      verdict is reproducible at any [ZKDET_DOMAINS]; per-proof scalars
      keep a forged proof from cancelling against another batch member
      (soundness error 1/|Fr| per batch).  Accepts exactly when every
      proof verifies individually: empty batches accept, singletons
      delegate to {!verify}, and mixed-circuit batches are supported by
      both backends. *)

  val batch_scalars : (verification_key * Fr.t array * proof) list -> Fr.t list
  (** The transcript-derived RLC scalars {!verify_batch} folds with,
      exposed so tests can assert batch determinism across domain
      counts. *)

  val proof_to_bytes : proof -> string
  (** Canonical wire encoding (magic + version envelope, compressed
      points); see FORMATS.md. *)

  val proof_of_bytes : string -> (proof, Zkdet_codec.Codec.error) result
  (** Total on untrusted bytes: validates framing, canonicity, curve and
      (G2) subgroup membership of every element. *)

  val proof_size_bytes : proof -> int
  (** [String.length (proof_to_bytes p)]. *)

  val vk_to_bytes : verification_key -> string
  val vk_of_bytes : string -> (verification_key, Zkdet_codec.Codec.error) result
  (** Verification keys persist the same way, so a verifier can run from
      bytes alone in a different process from the prover. *)
end

module Plonk : S with type proof = Zkdet_plonk.Proof.t
                  and type proving_key = Zkdet_plonk.Preprocess.proving_key
                  and type verification_key = Zkdet_plonk.Preprocess.verification_key =
  Zkdet_plonk.Backend

module Groth16 : S with type proof = Zkdet_groth16.Groth16.proof
                    and type proving_key = Zkdet_groth16.Groth16.proving_key
                    and type verification_key = Zkdet_groth16.Groth16.verification_key =
  Zkdet_groth16.Backend

let backends : (module S) list = [ (module Plonk); (module Groth16) ]

let by_name (name : string) : (module S) option =
  List.find_opt (fun (module B : S) -> String.equal B.name name) backends
