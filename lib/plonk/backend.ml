(* Plonk as an implementation of the shared proof-system API
   (Zkdet_core.Proof_system.S).

   Plonk's SRS is universal: one setup per size serves every circuit, so
   [setup] keeps a per-size SRS cache.  The first call for a given padded
   domain size generates (and consumes randomness from [st] for) the
   simulated trusted setup; later calls for the same size reuse it and
   ignore [st].  Callers that need explicit SRS control (a real ceremony,
   Env-managed setups) keep using [Preprocess.setup] directly. *)

module Fr = Zkdet_field.Bn254.Fr
module Srs = Zkdet_kzg.Srs

let name = "plonk"

type proving_key = Preprocess.proving_key
type verification_key = Preprocess.verification_key
type proof = Proof.t

let srs_cache : (int, Srs.t) Hashtbl.t = Hashtbl.create 4
let srs_mutex = Mutex.create ()

let srs_for ?st (size : int) : Srs.t =
  Mutex.lock srs_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock srs_mutex)
    (fun () ->
      match Hashtbl.find_opt srs_cache size with
      | Some srs -> srs
      | None ->
        (* Behind the in-process cache sits the ZKDET_SRS_CACHE disk
           cache, so separate processes also share one ceremony. *)
        let srs = Srs.load_or_generate ?st ~size () in
        Hashtbl.add srs_cache size srs;
        srs)

let setup ?st (compiled : Cs.compiled) : proving_key =
  (* n + 6 powers are required; a little slack matches Env's sizing. *)
  let srs = srs_for ?st (Preprocess.padded_size compiled + 8) in
  Preprocess.setup srs compiled

let vk (pk : proving_key) : verification_key = pk.Preprocess.vk

let prove ?st (pk : proving_key) (compiled : Cs.compiled) : proof =
  Prover.prove ?st pk compiled

let verify (vk : verification_key) (publics : Fr.t array) (proof : proof) : bool =
  Verifier.verify vk publics proof

let verify_batch = Verifier.verify_batch
let batch_scalars = Verifier.batch_scalars

let proof_to_bytes = Proof.wire_encode
let proof_of_bytes = Proof.wire_decode
let proof_size_bytes p = String.length (Proof.wire_encode p)
let vk_to_bytes = Preprocess.vk_to_bytes
let vk_of_bytes = Preprocess.vk_of_bytes
