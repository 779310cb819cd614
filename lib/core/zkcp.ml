(* The classic ZKCP exchange protocol (paper §III-C) as the baseline ZKDET
   compares against. The seller proves
       phi(D) = 1  /\  D_hat = Enc(k, D)  /\  h = H(k)
   and later discloses k to the arbiter. Correct and fair — but once k is
   on-chain, ANY observer can decrypt the public ciphertext (§III-D
   Challenge 3). [third_party_decrypt] demonstrates the leak. *)

module Fr = Zkdet_field.Bn254.Fr
module Cs = Zkdet_plonk.Cs
module Prover = Zkdet_plonk.Prover
module Proof = Zkdet_plonk.Proof
module Poseidon = Zkdet_poseidon.Poseidon
module Obs = Zkdet_obs.Obs

type offer = {
  nonce : Fr.t;
  ciphertext : Fr.t array;
  h : Fr.t; (* H(k): the hash lock *)
  predicate : Circuits.predicate;
  price : int;
}

let make_offer (s : Transform.sealed) ~(predicate : Circuits.predicate)
    ~(price : int) : offer =
  {
    nonce = s.Transform.nonce;
    ciphertext = s.Transform.ciphertext;
    h = Poseidon.hash [ s.Transform.key ];
    predicate;
    price;
  }

(** Seller: the Deliver step. *)
let prove (env : Env.t) (s : Transform.sealed)
    (predicate : Circuits.predicate) : Proof.t =
  Obs.with_span "zkcp.prove" @@ fun () ->
  let pk = Env.proving_key env (Circuits.Zkcp (Transform.size s, predicate)) in
  let cs =
    Circuits.zkcp_circuit ~data:s.Transform.data ~key:s.Transform.key
      ~nonce:s.Transform.nonce ~predicate
  in
  Prover.prove ~st:env.Env.rng pk (Cs.compile cs)

(** Buyer: the Verify step. *)
let verify (env : Env.t) (o : offer) (proof : Proof.t) : bool =
  Obs.with_span "zkcp.verify" @@ fun () ->
  Env.verify env
    (Circuits.Zkcp (Array.length o.ciphertext, o.predicate))
    (Circuits.zkcp_publics ~nonce:o.nonce ~h:o.h ~predicate:o.predicate
       ~ciphertext:o.ciphertext)
    proof

(** After the Open step, k sits on-chain in plaintext. Anyone — not just
    the buyer — runs this. *)
let third_party_decrypt (o : offer) ~(disclosed_key : Fr.t) : Fr.t array =
  Transform.decrypt ~key:disclosed_key ~nonce:o.nonce o.ciphertext
