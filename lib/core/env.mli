(** Shared proving environment: one universal SRS plus a cache of
    circuit-specific proving keys keyed by structural descriptors.
    Plonk's setup is universal (§VI-B.1): the SRS is generated once and
    every circuit below its size bound reuses it. *)

module Srs = Zkdet_kzg.Srs
module Preprocess = Zkdet_plonk.Preprocess
module Cs = Zkdet_plonk.Cs

type t = {
  srs : Srs.t;
  pk_cache : (string, Preprocess.proving_key) Hashtbl.t;
  rng : Random.State.t;
  max_dataset : int Lazy.t;  (** see {!max_dataset} *)
}

val create : ?log2_max_gates:int -> ?seed:int array -> unit -> t
(** Run the (simulated) universal setup for circuits of up to
    [2^log2_max_gates] constraints (default 2^12). *)

val max_dataset : t -> int
(** The largest dataset whose proof of encryption fits the SRS. Every
    dataset of a lineage carries one, so no verifiable dataset is
    longer. Computed from the pi_e circuit on first use, once per env. *)

val proving_key :
  t -> descriptor:string -> build:(unit -> Cs.t) -> Preprocess.proving_key
(** Cached proving key for the circuit family named by [descriptor];
    [build] synthesizes the circuit with representative dummy inputs on a
    cache miss. Raises [Invalid_argument] if the circuit does not fit the
    SRS. *)

val verification_key :
  t -> descriptor:string -> build:(unit -> Cs.t) ->
  Preprocess.verification_key option
(** As {!proving_key}, for a verifier: [None], and nothing cached, when
    the circuit does not fit the SRS. *)
