(* The key-secure two-phase data exchange protocol (paper §IV-F, Fig. 4).

   Phase 1 (data validation): the seller sends (c_d, pi_p) proving that the
   publicly stored ciphertext encrypts a dataset satisfying phi under a
   committed key. The buyer verifies, samples a blinding key k_v, sends it
   to the seller off-chain, and locks payment at the arbiter with
   h_v = H(k_v).

   Phase 2 (key negotiation): the seller publishes k_c = k + k_v with pi_k;
   the arbiter verifies and releases payment; the buyer recovers
   k = k_c - k_v and decrypts. k itself never appears on-chain. *)

module Fr = Zkdet_field.Bn254.Fr
module Cs = Zkdet_plonk.Cs
module Prover = Zkdet_plonk.Prover
module Proof = Zkdet_plonk.Proof
module Preprocess = Zkdet_plonk.Preprocess
module Poseidon = Zkdet_poseidon.Poseidon
module Obs = Zkdet_obs.Obs

(** What the seller advertises: everything here is public. *)
type offer = {
  nonce : Fr.t;
  ciphertext : Fr.t array;
  c_d : Fr.t;
  c_k : Fr.t;
  predicate : Circuits.predicate;
  price : int;
}

let make_offer (s : Transform.sealed) ~(predicate : Circuits.predicate)
    ~(price : int) : offer =
  {
    nonce = s.Transform.nonce;
    ciphertext = s.Transform.ciphertext;
    c_d = s.Transform.c_d;
    c_k = s.Transform.c_k;
    predicate;
    price;
  }

(* ---- phase 1: data validation ---- *)

(** Seller: produce pi_p for an offer. Raises if the dataset does not
    actually satisfy the predicate (an honest seller checks first). *)
let prove_validation (env : Env.t) (s : Transform.sealed)
    (predicate : Circuits.predicate) : Proof.t =
  Obs.with_span "exchange.prove_validation" @@ fun () ->
  let pk = Env.proving_key env (Circuits.Validation (Transform.size s, predicate)) in
  let cs =
    Circuits.validation_circuit ~data:s.Transform.data ~key:s.Transform.key
      ~nonce:s.Transform.nonce ~o_d:s.Transform.o_d ~predicate
  in
  Prover.prove ~st:env.Env.rng pk (Cs.compile cs)

(** Buyer: verify pi_p against the public offer. *)
let verify_validation (env : Env.t) (o : offer) (proof : Proof.t) : bool =
  Obs.with_span "exchange.verify_validation" @@ fun () ->
  Env.verify env
    (Circuits.Validation (Array.length o.ciphertext, o.predicate))
    (Circuits.validation_publics ~nonce:o.nonce ~c_d:o.c_d
       ~predicate:o.predicate ~ciphertext:o.ciphertext)
    proof

(** Buyer: sample the blinding key. Returns (k_v kept secret, h_v sent to
    the arbiter with the locked payment). *)
let buyer_blinding ?(st = Random.State.make_self_init ()) () : Fr.t * Fr.t =
  let k_v = Fr.random st in
  (k_v, Poseidon.hash [ k_v ])

(* ---- phase 2: key negotiation ---- *)

(** The verification key of the pi_k circuit — what the on-chain verifier
    contract is deployed with. *)
let key_vk env = (Env.proving_key env Circuits.Key).Preprocess.vk

(** Seller: given the buyer's k_v, derive k_c and prove pi_k. *)
let prove_key (env : Env.t) (s : Transform.sealed) ~(k_v : Fr.t) :
    Fr.t * Proof.t =
  Obs.with_span "exchange.prove_key" @@ fun () ->
  let k_c = Fr.add s.Transform.key k_v in
  let pk = Env.proving_key env Circuits.Key in
  let cs = Circuits.key_circuit ~key:s.Transform.key ~o_k:s.Transform.o_k ~k_v in
  (k_c, Prover.prove ~st:env.Env.rng pk (Cs.compile cs))

(** Arbiter-side check (also run inside the escrow contract). *)
let verify_key (env : Env.t) ~(k_c : Fr.t) ~(c_k : Fr.t) ~(h_v : Fr.t)
    (proof : Proof.t) : bool =
  Obs.with_span "exchange.verify_key" @@ fun () ->
  Env.verify env Circuits.Key (Circuits.key_publics ~k_c ~c_k ~h_v) proof

(** Buyer: recover the key and decrypt after settlement. *)
let recover (o : offer) ~(k_c : Fr.t) ~(k_v : Fr.t) : Fr.t array =
  let key = Fr.sub k_c k_v in
  Transform.decrypt ~key ~nonce:o.nonce o.ciphertext

(** Check a recovered plaintext against the offer's public commitments is
    not possible without the opening — instead the buyer checks the
    predicate directly (what phi promised) and, when buying a token, that
    re-encryption reproduces the public ciphertext. *)
let recovered_matches (o : offer) ~(k_c : Fr.t) ~(k_v : Fr.t)
    (data : Fr.t array) : bool =
  let key = Fr.sub k_c k_v in
  let ct = Zkdet_mimc.Mimc.Ctr.encrypt ~key ~nonce:o.nonce data in
  Array.length ct = Array.length o.ciphertext
  && Array.for_all2 Fr.equal ct o.ciphertext
