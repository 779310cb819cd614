(* Groth16 as an implementation of the shared proof-system API
   (Zkdet_core.Proof_system.S).  Unlike Plonk's universal SRS, the
   trusted setup here is circuit-specific, so [setup] is a straight call
   into [Groth16.setup]. *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2

let name = "groth16"

type proving_key = Groth16.proving_key
type verification_key = Groth16.verification_key
type proof = Groth16.proof

let setup ?st compiled = Groth16.setup ?st compiled
let vk (pk : proving_key) = pk.Groth16.vk
let prove ?st pk compiled = Groth16.prove ?st pk compiled
let verify = Groth16.verify

let verify_batch = Groth16.verify_batch
let batch_scalars = Groth16.batch_scalars

let proof_to_bytes = Groth16.proof_to_bytes
let proof_of_bytes = Groth16.proof_of_bytes
let proof_size_bytes = Groth16.proof_size_bytes
let vk_to_bytes = Groth16.vk_to_bytes
let vk_of_bytes = Groth16.vk_of_bytes
