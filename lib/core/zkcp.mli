(** The classic ZKCP exchange protocol (paper §III-C) — the baseline
    ZKDET improves on. The seller proves
    [phi(D) = 1 /\ D_hat = Enc(k, D) /\ h = H(k)] and later discloses k
    to the arbiter. Fair, but once k is on-chain ANY observer can decrypt
    the publicly stored ciphertext (§III-D Challenge 3);
    {!third_party_decrypt} demonstrates the leak. *)

module Fr = Zkdet_field.Bn254.Fr
module Proof = Zkdet_plonk.Proof

type offer = {
  nonce : Fr.t;
  ciphertext : Fr.t array;
  h : Fr.t;  (** H(k): the hash lock *)
  predicate : Circuits.predicate;
  price : int;
}

val make_offer :
  Transform.sealed -> predicate:Circuits.predicate -> price:int -> offer

val prove : Env.t -> Transform.sealed -> Circuits.predicate -> Proof.t
(** The Deliver step: a proof of [Circuits.Zkcp (n, predicate)]. *)

val verify : Env.t -> offer -> Proof.t -> bool
(** The buyer's Verify step, through {!Env.verify}. *)

val third_party_decrypt : offer -> disclosed_key:Fr.t -> Fr.t array
(** What anyone can do after the Open step put k on-chain. *)
