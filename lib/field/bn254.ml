(* The BN254 (alt_bn128) curve parameters used by Circom/Snarkjs and by the
   Ethereum pairing precompiles — the setting the ZKDET paper evaluates in.

   Both fields are Fp64 instantiations (flat 4x64-bit Montgomery limbs).
   Wire encodings are canonical big-endian integers, independent of the
   in-memory representation. *)

module Nat = Zkdet_num.Nat

let fp_modulus_decimal =
  "21888242871839275222246405745257275088696311157297823662689037894645226208583"

let fr_modulus_decimal =
  "21888242871839275222246405745257275088548364400416034343698204186575808495617"

(** Base field of the curve (coordinates live here). *)
module Fp : Field_intf.S = Fp64.Make (struct
  let modulus_decimal = fp_modulus_decimal
end)

(** Scalar field (circuit values, polynomial coefficients live here). *)
module Fr = struct
  include Fp64.Make (struct
    let modulus_decimal = fr_modulus_decimal
  end)

  let modulus_nat = Nat.of_decimal fr_modulus_decimal

  (* r - 1 = 2^two_adicity * odd. BN254's scalar field has two_adicity 28,
     which bounds FFT domains at 2^28 — the same bound the paper quotes for
     the Perpetual Powers of Tau ("circuits with up to 2^28 constraints"). *)
  let two_adicity, odd_part =
    let rec go s q =
      if Nat.testbit q 0 then (s, q) else go (s + 1) (Nat.shift_right q 1)
    in
    go 0 (Nat.sub modulus_nat Nat.one)

  (* Generator of the order-2^two_adicity subgroup: c^odd_part for a c that
     is a non-square (so the order is exactly 2^two_adicity). Found by
     search, verified by squaring down. *)
  let two_adic_root =
    let rec find c =
      let w = pow_nat (of_int c) odd_part in
      let rec check_order acc k =
        if k = two_adicity - 1 then not (is_one acc)
        else check_order (sqr acc) (k + 1)
      in
      (* acc after two_adicity-1 squarings must be -1 (not 1). *)
      let rec square_down acc k =
        if k = 0 then acc else square_down (sqr acc) (k - 1)
      in
      let minus_one_candidate = square_down w (two_adicity - 1) in
      ignore check_order;
      if (not (is_one minus_one_candidate)) && is_one (sqr minus_one_candidate)
      then w
      else find (c + 1)
    in
    find 2

  (** [root_of_unity ~log2size] is a primitive [2^log2size]-th root of
      unity. Raises [Invalid_argument] beyond the field's 2-adicity. *)
  let root_of_unity ~log2size =
    if log2size < 0 || log2size > two_adicity then
      invalid_arg "Bn254.Fr.root_of_unity: log2size out of range";
    let w = ref two_adic_root in
    for _ = 1 to two_adicity - log2size do
      w := sqr !w
    done;
    !w

  (** A small multiplicative element used as a coset shift; callers must
      check [shift^n <> 1] for their domain size [n] (we assert it in
      {!Zkdet_poly.Domain}). *)
  let coset_shift = of_int 7
end
