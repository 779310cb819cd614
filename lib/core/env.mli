(** Shared proving environment: one universal SRS plus a cache of
    circuit-specific proving keys, keyed by {!Circuits.cache_key} of the
    statement each proves. Plonk's setup is universal (§VI-B.1): the SRS
    is generated once and every circuit below its size bound reuses it. *)

module Fr = Zkdet_field.Bn254.Fr
module Srs = Zkdet_kzg.Srs
module Preprocess = Zkdet_plonk.Preprocess
module Proof = Zkdet_plonk.Proof

type t = {
  srs : Srs.t;
  pk_cache : (string, Preprocess.proving_key) Hashtbl.t;
  rng : Random.State.t;
  max_dataset : int Lazy.t;  (** see {!max_dataset} *)
  max_validation : int Lazy.t;  (** see {!max_validation} *)
  max_zkcp : int Lazy.t;  (** see {!max_zkcp} *)
}

val create : ?log2_max_gates:int -> ?seed:int array -> unit -> t
(** Run the (simulated) universal setup for circuits of up to
    [2^log2_max_gates] constraints (default 2^12). *)

val max_dataset : t -> int
(** The largest dataset whose proof of encryption fits the SRS. Every
    dataset of a lineage carries one, so no verifiable dataset is
    longer. Computed from the pi_e circuit on first use, once per env. *)

val max_validation : t -> int
(** The largest offer whose pi_p circuit fits the SRS, under [Trivial]:
    every other predicate only adds rows. Computed on first use, once
    per env, as {!max_dataset} is. *)

val max_zkcp : t -> int
(** As {!max_validation}, for the ZKCP baseline's proof. *)

val proving_key : t -> Circuits.statement -> Preprocess.proving_key
(** The cached proving key of the statement's circuit, set up from
    {!Circuits.setup_circuit} on a miss. Raises [Invalid_argument] if the
    statement is malformed or its circuit does not fit the SRS. *)

val verification_key : t -> Circuits.statement -> Preprocess.verification_key option
(** As {!proving_key}, for a verifier, and total: [None], with nothing
    built or cached, for a malformed statement, for one naming a lineage
    dataset longer than {!max_dataset}, and for an offer longer than
    {!max_validation} or {!max_zkcp} (integer checks on the statement);
    [None], with nothing cached, when the circuit does not fit the SRS.
    A cache hit builds nothing. *)

val verify_all : t -> (Circuits.statement * Fr.t array * Proof.t) list -> bool
(** Whether every proof verifies against its statement and public
    inputs. False, before any curve work, as soon as one statement has
    no {!verification_key}; otherwise one [Verifier.verify_batch] call,
    which is one two-pair pairing check since an env has one SRS. A
    false verdict names no proof: a caller that must name one checks
    the items one by one with {!verify}. *)

val verify : t -> Circuits.statement -> Fr.t array -> Proof.t -> bool
(** {!verify_all} of one proof. Every verifier of the protocols goes
    through here or through {!verify_all}. *)
