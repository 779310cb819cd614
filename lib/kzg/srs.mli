(** Structured reference string for KZG commitments: powers of a secret
    tau in G1 plus [tau]G2 (paper §VI-B.1's "updatable universal SRS"). *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Codec = Zkdet_codec.Codec

type t = {
  g1_powers : G1.t array;  (** [tau^0]G1 .. [tau^(n-1)]G1 *)
  g2 : G2.t;  (** [1]G2 *)
  g2_tau : G2.t;  (** [tau]G2 *)
  mutable fb : G1.Fixed_base.msm_table option;
      (** lazily built fixed-base MSM tables; use {!fixed_base_table} *)
  fb_lock : Mutex.t;
}

val make : g1_powers:G1.t array -> g2:G2.t -> g2_tau:G2.t -> t
(** Assemble an SRS record (no tables yet). Use this instead of a record
    literal so stale fixed-base tables can never survive a change to the
    powers. *)

val size : t -> int

val fixed_base_table : t -> G1.Fixed_base.msm_table option
(** The fixed-base MSM tables over the G1 powers, built on first use
    (["srs.fb_tables"] span) when [size <= 8192], loaded from the cache
    file when persisted, [None] beyond that cap (the tables take ~24x the
    memory of the powers). Thread-safe. *)

val unsafe_generate : ?st:Random.State.t -> size:int -> unit -> t
(** Locally simulated trusted setup: samples tau, computes the powers,
    discards the secret. Production SRS comes from {!Ceremony}.  Runs
    under the ["srs.generate"] telemetry span. *)

val verify : ?exhaustive:bool -> t -> bool
(** Pairing consistency check e(g1[i+1], G2) = e(g1[i], [tau]G2); spot
    checks a few indices unless [exhaustive]. *)

val truncate : t -> int -> t
(** Prefix of the G1 powers (smaller circuits under the same setup). *)

(** {1 Persistence} *)

val curve_id : string
(** 32-byte digest of the curve parameters, baked into every SRS file. *)

val header_codec : (string * int) Codec.t
(** The (curve_id, size) header; its encoding is a prefix of {!to_bytes}
    output. *)

val header_bytes : size:int -> string

val codec : t Codec.t
(** Canonical wire format: ["ZSRS"] envelope (version 2) around the curve
    digest, the uncompressed G1 power table, the two G2 points and an
    optional fixed-base table section (see FORMATS.md). Uncompressed G1
    keeps cache loads cheap (no per-point square root). Table sections
    are validated against the powers on decode: bad rows are a decode
    error, so a tampered cache file regenerates instead of loading. *)

val to_bytes : t -> string
val of_bytes : string -> (t, Codec.error) result

val cache_dir : unit -> string option
(** Value of [ZKDET_SRS_CACHE], if set. *)

val load_or_generate : ?st:Random.State.t -> size:int -> unit -> t
(** {!unsafe_generate} behind the [ZKDET_SRS_CACHE] disk cache: a valid
    cached file for this size + curve is loaded (skipping the ceremony and
    its ["srs.generate"] span) and fresh generations are written back.
    Without the environment variable, identical to {!unsafe_generate}. *)
