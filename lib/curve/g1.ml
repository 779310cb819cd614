(* G1: y^2 = x^3 + 3 over Fp, generator (1, 2), prime order r (cofactor 1). *)

module Fp = Zkdet_field.Bn254.Fp

module Fp_curve = struct
  include Fp

  let to_bytes = Fp.to_bytes_be
  let of_bytes = Fp.of_bytes_be
  let of_bytes_canonical = Fp.of_bytes_be_canonical
  let sqrt_opt = Fp.sqrt
  let parity y =
    let limbs = Bytes.create 32 in
    Fp.to_limbs_le y limbs;
    Weierstrass.limb_bit limbs 0

  (* Fp runs on the shared Montgomery kernel: G1's MSMs run in C. *)
  let kernel =
    Some
      { Weierstrass.params = Fp.kernel_params;
        storage = (fun (b : Fp.buf) -> (b :> Bytes.t)) }
end

include Weierstrass.Make (struct
  module F = Fp_curve

  let b = Fp.of_int 3
  let generator = (Fp.one, Fp.of_int 2)

  (* Cofactor 1: every on-curve point is in the prime-order subgroup. *)
  let subgroup_check = false
end)

(* Try-and-increment hash-to-curve: deterministic map from a label to a
   curve point of unknown discrete log (used for commitment bases). *)
let hash_to_curve (label : string) : t =
  let rec try_x counter =
    let h = Zkdet_hash.Sha256.digest (Printf.sprintf "%s/%d" label counter) in
    let x = Fp.of_bytes_be h in
    let y2 = Fp.add (Fp.mul (Fp.sqr x) x) (Fp.of_int 3) in
    match Fp.sqrt y2 with
    | Some y -> of_affine (x, y)
    | None -> try_x (counter + 1)
  in
  try_x 0
