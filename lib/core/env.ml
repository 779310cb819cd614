(* Shared proving environment: one universal SRS (from the simulated
   ceremony or a local trusted setup) plus a cache of circuit-specific
   proving keys, keyed by a structural descriptor. Because Plonk's setup is
   universal (§VI-B.1), the SRS is generated once and every circuit below
   its size bound reuses it. *)

module Srs = Zkdet_kzg.Srs
module Preprocess = Zkdet_plonk.Preprocess
module Cs = Zkdet_plonk.Cs

type t = {
  srs : Srs.t;
  pk_cache : (string, Preprocess.proving_key) Hashtbl.t;
  rng : Random.State.t;
  max_dataset : int Lazy.t;
}

(* The largest n whose pi_e circuit fits [srs]. Its gate count grows with
   n, so double until a circuit does not fit, then bisect. *)
let largest_encryption (srs : Srs.t) : int =
  let fits n =
    Preprocess.fits srs (Cs.compile (Circuits.encryption_dummy ~n ()))
  in
  (* [fits lo] and not [fits hi] *)
  let rec bisect lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fits mid then bisect mid hi else bisect lo mid
  in
  let rec grow lo = if fits (2 * lo) then grow (2 * lo) else bisect lo (2 * lo) in
  if fits 1 then grow 1 else 0

(** [create ~log2_max_gates ()] runs the (simulated) universal setup for
    circuits of up to [2^log2_max_gates] constraints. *)
let create ?(log2_max_gates = 12) ?(seed = [| 0xd47a |]) () =
  let rng = Random.State.make seed in
  let srs = Srs.unsafe_generate ~st:rng ~size:((1 lsl log2_max_gates) + 8) () in
  {
    srs;
    pk_cache = Hashtbl.create 16;
    rng;
    max_dataset = lazy (largest_encryption srs);
  }

let max_dataset (env : t) = Lazy.force env.max_dataset

let cache (env : t) descriptor compiled =
  let pk = Preprocess.setup env.srs compiled in
  Hashtbl.add env.pk_cache descriptor pk;
  pk

(** [proving_key env ~descriptor ~build] returns the cached proving key
    for the circuit family identified by [descriptor], running [build]
    (with representative dummy inputs) and preprocessing on a miss. *)
let proving_key (env : t) ~(descriptor : string) ~(build : unit -> Cs.t) :
    Preprocess.proving_key =
  match Hashtbl.find_opt env.pk_cache descriptor with
  | Some pk -> pk
  | None -> cache env descriptor (Cs.compile (build ()))

let verification_key (env : t) ~descriptor ~build =
  match Hashtbl.find_opt env.pk_cache descriptor with
  | Some pk -> Some pk.Preprocess.vk
  | None ->
    let compiled = Cs.compile (build ()) in
    if Preprocess.fits env.srs compiled then
      Some (cache env descriptor compiled).Preprocess.vk
    else None
