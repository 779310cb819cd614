(* G2: y^2 = x^3 + 3/xi over Fp2 (the sextic D-twist), with the standard
   alt_bn128 generator used by the Ethereum precompiles and Snarkjs. *)

module Fp = Zkdet_field.Bn254.Fp

let b2 = Fp2.mul (Fp2.of_int 3) (Fp2.inv Fp2.xi)

module Fp2_curve = struct
  include Fp2

  let sqrt_opt = Fp2.sqrt

  (* Fp2 has no native kernel: G2 MSMs run the OCaml chunk. *)
  let kernel = None
end

include Weierstrass.Make (struct
  module F = Fp2_curve

  let b = b2

  (* The D-twist has cofactor 2p - r != 1, so decoded points must be
     checked against the order-r subgroup explicitly. *)
  let subgroup_check = true

  let generator =
    ( Fp2.make
        (Fp.of_string
           "10857046999023057135944570762232829481370756359578518086990519993285655852781")
        (Fp.of_string
           "11559732032986387107991004021392285783925812861821192530917403151452391805634"),
      Fp2.make
        (Fp.of_string
           "8495653923123431417604973247489272438418190587263600148770280649306958101930")
        (Fp.of_string
           "4082367875863433681332203403145435568316851327593401208105741076214120093531") )
end)
