(* The classic ZKCP exchange protocol (paper §III-C) as the baseline ZKDET
   compares against. The seller proves
       phi(D) = 1  /\  D_hat = Enc(k, D)  /\  h = H(k)
   and later discloses k to the arbiter. Correct and fair — but once k is
   on-chain, ANY observer can decrypt the public ciphertext (§III-D
   Challenge 3). [third_party_decrypt] demonstrates the leak. *)

module Fr = Zkdet_field.Bn254.Fr
module Cs = Zkdet_plonk.Cs
module Prover = Zkdet_plonk.Prover
module Verifier = Zkdet_plonk.Verifier
module Proof = Zkdet_plonk.Proof
module Preprocess = Zkdet_plonk.Preprocess
module Poseidon = Zkdet_poseidon.Poseidon
module Gadgets = Zkdet_circuit.Gadgets
module Mimc_gadget = Zkdet_circuit.Mimc_gadget
module Poseidon_gadget = Zkdet_circuit.Poseidon_gadget
module Mimc = Zkdet_mimc.Mimc
module Obs = Zkdet_obs.Obs

(* ZKCP's pi_p: publics: nonce :: h :: predicate params :: ct...
   witness: data, key. (No commitment: ZKCP binds the key via its hash,
   which is what forces disclosure later.) *)

let descriptor ~n ~predicate =
  Printf.sprintf "zkcp:%s:%d" (Circuits.predicate_descriptor predicate) n

let publics ~(nonce : Fr.t) ~(h : Fr.t) ~(predicate : Circuits.predicate)
    ~(ciphertext : Fr.t array) : Fr.t array =
  Array.concat
    [ [| nonce; h |];
      Array.of_list (Circuits.predicate_publics predicate);
      ciphertext ]

let circuit ~(data : Fr.t array) ~(key : Fr.t) ~(nonce : Fr.t)
    ~(predicate : Circuits.predicate) : Cs.t =
  let ciphertext = Mimc.Ctr.encrypt ~key ~nonce data in
  let h = Poseidon.hash [ key ] in
  let cs = Cs.create () in
  let nonce_w = Cs.public_input cs nonce in
  let h_w = Cs.public_input cs h in
  let pred_ws =
    List.map (Cs.public_input cs) (Circuits.predicate_publics predicate)
  in
  let ct_ws = Array.map (Cs.public_input cs) ciphertext in
  let data_ws = Array.map (Cs.fresh cs) data in
  let key_w = Cs.fresh cs key in
  Circuits.assert_predicate cs predicate pred_ws data_ws;
  Mimc_gadget.assert_ctr_encryption cs ~key:key_w ~nonce:nonce_w data_ws ct_ws;
  let h_computed = Poseidon_gadget.hash cs [ key_w ] in
  Cs.assert_equal cs h_computed h_w;
  cs

let dummy ~n ~predicate () =
  let data =
    match predicate with
    | Circuits.Sum_equals s ->
      let d = Array.make n Fr.zero in
      if n > 0 then d.(0) <- s;
      d
    | Circuits.Trivial | Circuits.Entries_bounded _ -> Array.make n Fr.one
  in
  circuit ~data ~key:Fr.one ~nonce:Fr.one ~predicate

let pk env ~n ~predicate =
  Env.proving_key env ~descriptor:(descriptor ~n ~predicate)
    ~build:(dummy ~n ~predicate)


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
  let pk = pk env ~n:(Transform.size s) ~predicate in
  let cs =
    circuit ~data:s.Transform.data ~key:s.Transform.key ~nonce:s.Transform.nonce
      ~predicate
  in
  Prover.prove ~st:env.Env.rng pk (Cs.compile cs)

(** Buyer: the Verify step. *)
let verify (env : Env.t) (o : offer) (proof : Proof.t) : bool =
  Obs.with_span "zkcp.verify" @@ fun () ->
  let pk = pk env ~n:(Array.length o.ciphertext) ~predicate:o.predicate in
  Verifier.verify pk.Preprocess.vk
    (publics ~nonce:o.nonce ~h:o.h ~predicate:o.predicate
       ~ciphertext:o.ciphertext)
    proof

(** After the Open step, k sits on-chain in plaintext. Anyone — not just
    the buyer — runs this. *)
let third_party_decrypt (o : offer) ~(disclosed_key : Fr.t) : Fr.t array =
  Transform.decrypt ~key:disclosed_key ~nonce:o.nonce o.ciphertext
