(* Shared proving environment: one universal SRS (from the simulated
   ceremony or a local trusted setup) plus a cache of circuit-specific
   proving keys, keyed by the statement each proves. Because Plonk's setup
   is universal (§VI-B.1), the SRS is generated once and every circuit
   below its size bound reuses it. *)

module Fr = Zkdet_field.Bn254.Fr
module Srs = Zkdet_kzg.Srs
module Preprocess = Zkdet_plonk.Preprocess
module Verifier = Zkdet_plonk.Verifier
module Proof = Zkdet_plonk.Proof
module Cs = Zkdet_plonk.Cs

type t = {
  srs : Srs.t;
  pk_cache : (string, Preprocess.proving_key) Hashtbl.t;
  rng : Random.State.t;
  max_dataset : int Lazy.t;
  max_validation : int Lazy.t;
  max_zkcp : int Lazy.t;
}

(* [statement]'s setup circuit, compiled, if it fits [srs]. *)
let fitting_circuit (srs : Srs.t) statement =
  match Circuits.setup_circuit statement with
  | Some cs ->
    let compiled = Cs.compile cs in
    if Preprocess.fits srs compiled then Some compiled else None
  | None -> None

(* The largest n whose [family n] circuit fits [srs]. Its gate count
   grows with n, so double until a circuit does not fit, then bisect. *)
let largest_fitting (srs : Srs.t) family : int =
  let fits n = Option.is_some (fitting_circuit srs (family n)) in
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
  (* A predicate only adds rows to its offer's circuit, so the trivial
     one bounds every predicate's. *)
  let largest family = lazy (largest_fitting srs family) in
  {
    srs;
    pk_cache = Hashtbl.create 16;
    rng;
    max_dataset = largest (fun n -> Circuits.Encryption n);
    max_validation = largest (fun n -> Circuits.Validation (n, Circuits.Trivial));
    max_zkcp = largest (fun n -> Circuits.Zkcp (n, Circuits.Trivial));
  }

let max_dataset (env : t) = Lazy.force env.max_dataset
let max_validation (env : t) = Lazy.force env.max_validation
let max_zkcp (env : t) = Lazy.force env.max_zkcp

(* The cached key of [statement]; on a miss, its key set up and cached if
   the statement is well formed and its circuit fits the SRS. *)
let lookup (env : t) statement =
  let key = Circuits.cache_key statement in
  match Hashtbl.find_opt env.pk_cache key with
  | Some pk -> Some pk
  | None ->
    Option.map
      (fun compiled ->
        let pk = Preprocess.setup env.srs compiled in
        Hashtbl.add env.pk_cache key pk;
        pk)
      (fitting_circuit env.srs statement)

let proving_key (env : t) statement : Preprocess.proving_key =
  match lookup env statement with
  | Some pk -> pk
  | None ->
    invalid_arg
      ("Env.proving_key: malformed or over the SRS: " ^ Circuits.cache_key statement)

(* Whether [statement] names a size over its family's bound. *)
let oversize (env : t) = function
  | Circuits.Validation (n, _) -> n > max_validation env
  | Circuits.Zkcp (n, _) -> n > max_zkcp env
  | statement ->
    List.exists (fun n -> n > max_dataset env) (Circuits.lineage_sizes statement)

let verification_key (env : t) statement =
  if (not (Circuits.well_formed statement)) || oversize env statement then None
  else Option.map (fun pk -> pk.Preprocess.vk) (lookup env statement)

let verify_all (env : t) items =
  let rec keyed acc = function
    | [] -> Verifier.verify_batch (List.rev acc)
    | (statement, publics, proof) :: rest -> (
      match verification_key env statement with
      | Some vk -> keyed ((vk, publics, proof) :: acc) rest
      | None -> false)
  in
  keyed [] items

let verify (env : t) statement (publics : Fr.t array) (proof : Proof.t) : bool =
  verify_all env [ (statement, publics, proof) ]
