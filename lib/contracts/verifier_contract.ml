(* On-chain Plonk verifier (paper §VI-C.2): the verification key is baked
   into the deployed bytecode, deployment is a one-time ~1.64M gas cost,
   and each verification costs a constant amount — 2 pairings plus a fixed
   number of group operations — regardless of the circuit or data size. *)

module Fr = Zkdet_field.Bn254.Fr
module Chain = Zkdet_chain.Chain
module Gas = Zkdet_chain.Gas
module Preprocess = Zkdet_plonk.Preprocess
module Verifier = Zkdet_plonk.Verifier
module Proof = Zkdet_plonk.Proof

type t = {
  address : Chain.Address.t;
  vk : Preprocess.verification_key;
  code_size : int;
}

(* Runtime stub standing in for the compiled Solidity verifier body; the
   vk constants are appended to it as deployed code. *)
let stub_bytes = 7_170

let vk_bytes (_vk : Preprocess.verification_key) =
  (* 8 G1 commitments (uncompressed, 65 B) + 2 G2 points (129 B) + domain
     parameters *)
  (8 * 65) + (2 * 129) + 32

(** Deploy a verifier for a fixed verification key. *)
let deploy (chain : Chain.t) ~(deployer : Chain.Address.t)
    (vk : Preprocess.verification_key) : t * Chain.receipt =
  let code_size = stub_bytes + vk_bytes vk in
  let contract =
    { address = Chain.Address.of_seed ("zkdet-verifier/" ^ deployer); vk; code_size }
  in
  let receipt =
    Chain.execute chain ~sender:deployer ~label:"deploy:verifier" ~contract:"verifier" (fun env ->
        Gas.create_contract (Chain.env_meter env) ~code_bytes:code_size)
  in
  (contract, receipt)

(* Fixed operation counts of the Plonk verification equation as executed
   through the EVM precompiles: ~18 scalar multiplications, ~16 additions,
   2 pairings, plus the Fiat-Shamir keccaks. *)
let charge_verification (m : Gas.meter) ~(n_public : int) =
  for _ = 1 to 18 do
    Gas.ecmul m
  done;
  for _ = 1 to 16 do
    Gas.ecadd m
  done;
  (* transcript hashing: one keccak per absorbed element *)
  for _ = 1 to 20 + n_public do
    Gas.keccak m ~bytes:64
  done;
  Gas.pairing m ~pairs:2

(* Per-proof marginal cost of the batched (RLC-folded) check: the full
   linearization still runs per proof (the 18 ecmul / 16 ecadd of
   [charge_verification]) plus the fold itself — one keccak for the RLC
   scalar and 2 ecmul + 2 ecadd folding (L, R) into the accumulators.
   What batching REMOVES per proof is the pairing, charged once for the
   whole block by [charge_batch_finalize]. *)
let charge_batch_item (m : Gas.meter) ~(n_public : int) =
  for _ = 1 to 20 do
    Gas.ecmul m
  done;
  for _ = 1 to 18 do
    Gas.ecadd m
  done;
  for _ = 1 to 21 + n_public do
    Gas.keccak m ~bytes:64
  done

let charge_batch_finalize (m : Gas.meter) = Gas.pairing m ~pairs:2

(** On-chain verification call. Returns the verifier's verdict; the gas
    spent is in the receipt. *)
let verify (c : t) (chain : Chain.t) ~(sender : Chain.Address.t)
    (publics : Fr.t array) (proof : Proof.t) : bool * Chain.receipt =
  let verdict = ref false in
  let calldata =
    Proof.to_bytes proof
    ^ String.concat "" (Array.to_list (Array.map Fr.to_bytes_be publics))
  in
  let receipt =
    Chain.execute chain ~sender ~label:"verify-proof" ~contract:"verifier" ~calldata (fun env ->
        charge_verification (Chain.env_meter env) ~n_public:(Array.length publics);
        verdict := Verifier.verify c.vk publics proof;
        Chain.emit env ~contract:"verifier" ~name:"ProofVerified"
          ~data:[ string_of_bool !verdict ])
  in
  (!verdict, receipt)

(** Verify a block of proofs against the baked-in vk in ONE metered call
    (the settlement-at-scale entry point): the per-proof marginal cost is
    attributed via one ["BatchProofGas"] event per proof, the folded
    pairing check is charged once for the whole block, and the verdict —
    computed by the deterministic RLC fold of [Verifier.verify_batch] —
    covers the block as a whole.  An empty block reverts. *)
let verify_batch (c : t) (chain : Chain.t) ~(sender : Chain.Address.t)
    (items : (Fr.t array * Proof.t) list) : bool * Chain.receipt =
  let verdict = ref false in
  let calldata =
    String.concat ""
      (List.map
         (fun (publics, proof) ->
           Proof.to_bytes proof
           ^ String.concat ""
               (Array.to_list (Array.map Fr.to_bytes_be publics)))
         items)
  in
  let receipt =
    Chain.execute chain ~sender ~label:"verify-batch" ~contract:"verifier"
      ~calldata (fun env ->
        if items = [] then raise (Chain.Revert "verify-batch: empty block");
        let m = Chain.env_meter env in
        List.iteri
          (fun i (publics, _) ->
            let before = Gas.used m in
            charge_batch_item m ~n_public:(Array.length publics);
            Chain.emit env ~contract:"verifier" ~name:"BatchProofGas"
              ~data:[ string_of_int i; string_of_int (Gas.used m - before) ])
          items;
        charge_batch_finalize m;
        verdict :=
          Zkdet_plonk.Verifier.verify_batch
            (List.map (fun (publics, proof) -> (c.vk, publics, proof)) items);
        Chain.emit env ~contract:"verifier" ~name:"BatchVerified"
          ~data:
            [ string_of_int (List.length items); string_of_bool !verdict ])
  in
  (!verdict, receipt)
