(* The optimal ate pairing e : G1 x G2 -> GT on BN254.

   The Miller loop runs over the signed digits of 6x+2 (x the BN
   parameter). It keeps the G2 point T in homogeneous projective Fp2
   coordinates, so no step inverts, and evaluates each line at the affine
   G1 point with the Costello-Lange-Naehrig formulas for the D-type twist
   E' : y^2 = x^3 + 3/xi. A line is the sparse Fp12 value
   c0 + (c3 + c4 v) w, multiplied in with the sparse product. Two
   Frobenius lines, through pi(Q) and -pi^2(Q), close the loop. Every
   pair of a check shares one accumulator, squared once per digit.

   The tower runs in C (tower_stubs.c) on flat buffers: each Miller-loop
   step (the double or add of T, its line at P and the sparse product
   into the accumulator) is one call, as is each Fp12 operation of the
   final exponentiation and each of its exponentiations by x.  A check
   allocates its state buffer, the accumulator and a few dozen 384-byte
   Fp12 values, and the kernels keep no state of their own, so checks on
   different domains do not interact.

   The final exponentiation keeps the easy part f^((p^6 - 1)(p^2 + 1)).
   Its hard part follows Fuentes-Castaneda et al.: three exponentiations
   by x with Granger-Scott cyclotomic squaring, plus Frobenius maps. It
   computes the m-th power of the standard reduced pairing, with
   m = 2x(6x^2 + 3x + 1). As gcd(m, r) = 1 (checked at init), z -> z^m
   permutes the r-th roots of unity: the result is bilinear and
   non-degenerate, and [pairing_check] verdicts are the standard
   pairing's.

   Precondition: every G2 argument lies in the order-r subgroup. The ate
   pairing is bilinear only there; the G2 decoders enforce it. *)

module Nat = Zkdet_num.Nat
module Fp = Zkdet_field.Bn254.Fp
module Fr = Zkdet_field.Bn254.Fr

module Gt = struct
  type t = Fp12.t

  let one = Fp12.one
  let equal = Fp12.equal
  let is_one = Fp12.is_one
  let mul = Fp12.mul
  let inv = Fp12.inv
  let pow_nat = Fp12.pow_nat

  (* Square-and-multiply over the scalar's limb bits, top bit first. *)
  let pow t (s : Fr.t) =
    let limbs = Bytes.create 32 in
    Fr.to_limbs_le s limbs;
    let acc = Fp12.copy Fp12.one in
    for i = Fr.num_bits - 1 downto 0 do
      Fp12.sqr_into acc acc;
      if Weierstrass.limb_bit limbs i then Fp12.mul_into acc acc t
    done;
    acc

  let to_bytes = Fp12.to_bytes
  let pp = Fp12.pp
end

(* ---------------- parameters, derived and checked at init ---------------- *)

let x = Nat.of_decimal "4965661367192848881"

let () =
  (* p = 36x^4 + 36x^3 + 24x^2 + 6x + 1 and r = 36x^4 + 36x^3 + 18x^2 + 6x + 1 *)
  let poly c2 =
    let x2 = Nat.mul x x in
    let x3 = Nat.mul x2 x in
    let x4 = Nat.mul x3 x in
    let k c v = Nat.mul (Nat.of_int c) v in
    List.fold_left Nat.add Nat.one [ k 36 x4; k 36 x3; k c2 x2; k 6 x ]
  in
  assert (Nat.equal (poly 24) Fp.modulus);
  assert (Nat.equal (poly 18) Fr.modulus)

(* Non-adjacent form, least significant digit first; digits in {-1, 0, 1}. *)
let naf (n : Nat.t) : int array =
  let rec go n acc =
    if Nat.is_zero n then Array.of_list (List.rev acc)
    else if Nat.testbit n 0 then
      if Nat.testbit n 1 then
        go (Nat.shift_right (Nat.add n Nat.one) 1) (-1 :: acc)
      else go (Nat.shift_right (Nat.sub n Nat.one) 1) (1 :: acc)
    else go (Nat.shift_right n 1) (0 :: acc)
  in
  go n []

let recombine (digits : int array) : Nat.t =
  Array.fold_right
    (fun d acc ->
      let acc = Nat.shift_left acc 1 in
      if d > 0 then Nat.add acc Nat.one
      else if d < 0 then Nat.sub acc Nat.one
      else acc)
    digits Nat.zero

let loop_count = Nat.add (Nat.mul (Nat.of_int 6) x) Nat.two
let loop_naf = naf loop_count
let x_naf = naf x
let () = assert (Nat.equal (recombine loop_naf) loop_count)
let () = assert (Nat.equal (recombine x_naf) x)

let hard_power =
  let k c v = Nat.mul (Nat.of_int c) v in
  Nat.mul (k 2 x) (List.fold_left Nat.add Nat.one [ k 6 (Nat.mul x x); k 3 x ])

let () =
  let rec gcd a b = if Nat.is_zero b then a else gcd b (Nat.rem a b) in
  assert (Nat.equal (gcd hard_power Fr.modulus) Nat.one)

(* ---------------- Miller loop ---------------- *)

(* The step kernels' block: the tower's, then 3b' for the twist
   y^2 = x^3 + b'. *)
let step_params =
  let b3 = Fp.buf_create 2 in
  let three_b = Fp2.mul (Fp2.of_int 3) G2.b2 in
  Fp.buf_set b3 0 three_b.c0;
  Fp.buf_set b3 1 three_b.c1;
  Fp12.params ^ Bytes.to_string (b3 :> Bytes.t)

(* A pair's state is [pair_cells] cells of one Fp buffer: T on the twist
   in homogeneous projective coordinates (X, Y, Z, two cells each), the
   affine Q the add step adds (x, y) and the affine P the lines are
   evaluated at (x, y).  Each step updates T in place and multiplies its
   line into f:

   [miller_double prm f st c]: T <- 2T with the tangent line
   (c0, c3, c4) = (-h, 3j, e - b) in the Costello-Lange-Naehrig notation,
   evaluated as c0 yP + c3 xP w + c4 v w, up to a factor in Fp2 that the
   final exponentiation kills.

   [miller_add prm f st c neg]: T <- T + Q, or T - Q when [neg], with
   the chord (lambda, -theta, theta xQ - lambda yQ). *)
let pair_cells = 12

external miller_double : string -> Fp12.t -> Fp.buf -> int -> unit
  = "zkdet_miller_double"
[@@noalloc]

external miller_add : string -> Fp12.t -> Fp.buf -> int -> bool -> unit
  = "zkdet_miller_add"
[@@noalloc]

let set_fp2 st i (a : Fp2.t) =
  Fp.buf_set st i a.c0;
  Fp.buf_set st (i + 1) a.c1

(* The p-power Frobenius on the twist: pi(x, y) = (x^p g_x, y^p g_y) with
   g_x = xi^((p-1)/3) and g_y = xi^((p-1)/2). *)
let frob_x = Fp12.gamma1
let frob_y = Fp2.mul Fp12.gamma_w (Fp2.sqr Fp12.gamma_w)

let frobenius_twist (xq, yq) =
  (Fp2.mul (Fp2.frobenius xq) frob_x, Fp2.mul (Fp2.frobenius yq) frob_y)

(* One accumulator over every (P, Q) pair, both affine and finite. *)
let miller_loop (pairs : ((Fp.t * Fp.t) * (Fp2.t * Fp2.t)) array) : Fp12.t =
  let n = Array.length pairs in
  let st = Fp.buf_create (pair_cells * n) in
  Array.iteri
    (fun i ((xp, yp), (xq, yq)) ->
      let c = pair_cells * i in
      set_fp2 st c xq;
      set_fp2 st (c + 2) yq;
      set_fp2 st (c + 4) Fp2.one;
      set_fp2 st (c + 6) xq;
      set_fp2 st (c + 8) yq;
      Fp.buf_set st (c + 10) xp;
      Fp.buf_set st (c + 11) yp)
    pairs;
  let f = Fp12.copy Fp12.one in
  for k = Array.length loop_naf - 2 downto 0 do
    Fp12.sqr_into f f;
    for i = 0 to n - 1 do
      miller_double step_params f st (pair_cells * i)
    done;
    if loop_naf.(k) <> 0 then
      for i = 0 to n - 1 do
        miller_add step_params f st (pair_cells * i) (loop_naf.(k) < 0)
      done
  done;
  (* The Frobenius lines: T + pi(Q), then that plus -pi^2(Q). *)
  for i = 0 to n - 1 do
    let c = pair_cells * i in
    let q1 = frobenius_twist (snd pairs.(i)) in
    let x2, y2 = frobenius_twist q1 in
    set_fp2 st (c + 6) (fst q1);
    set_fp2 st (c + 8) (snd q1);
    miller_add step_params f st c false;
    set_fp2 st (c + 6) x2;
    set_fp2 st (c + 8) y2;
    miller_add step_params f st c true
  done;
  f

(* ---------------- final exponentiation ---------------- *)

(* a^(-x) for a in the cyclotomic subgroup: a^x over the NAF of x in one
   call, then conj, the inverse there. *)
let exp_by_neg_x a = Fp12.conj (Fp12.cyclotomic_exp a x_naf)

let final_exponentiation (f : Fp12.t) : Gt.t =
  if Fp12.is_zero f then Fp12.zero
  else begin
    (* Easy part: f^((p^6 - 1)(p^2 + 1)). *)
    let t = Fp12.mul (Fp12.conj f) (Fp12.inv f) in
    let r = Fp12.mul (Fp12.frobenius 2 t) t in
    (* Hard part: r^(m (p^4 - p^2 + 1) / r) as
       r^(p^3 (12x^3 + 6x^2 + 4x - 1) + p^2 (12x^3 + 6x^2 + 6x)
          + p (12x^3 + 6x^2 + 4x) + (12x^3 + 12x^2 + 6x + 1)). *)
    let y0 = exp_by_neg_x r in
    let y1 = Fp12.cyclotomic_sqr y0 in
    let y2 = Fp12.cyclotomic_sqr y1 in
    let y3 = Fp12.mul y2 y1 in
    let y4 = exp_by_neg_x y3 in
    let y5 = Fp12.cyclotomic_sqr y4 in
    let y6 = Fp12.conj (exp_by_neg_x y5) in
    let y7 = Fp12.mul y6 y4 in
    let y8 = Fp12.mul y7 (Fp12.conj y3) in
    let y9 = Fp12.mul y8 y1 in
    let y11 = Fp12.mul (Fp12.mul y8 y4) r in
    let y13 = Fp12.mul (Fp12.frobenius 1 y9) y11 in
    let y14 = Fp12.mul (Fp12.frobenius 2 y8) y13 in
    Fp12.mul (Fp12.frobenius 3 (Fp12.mul (Fp12.conj r) y9)) y14
  end

(* ---------------- entry points ---------------- *)

(* The pairs with both points finite, in affine form: one inversion per
   group for the whole list. *)
let affine_pairs (pairs : (G1.t * G2.t) list) =
  let ps = G1.batch_to_affine (Array.of_list (List.map fst pairs)) in
  let qs = G2.batch_to_affine (Array.of_list (List.map snd pairs)) in
  let out = ref [] in
  for i = Array.length ps - 1 downto 0 do
    match (ps.(i), qs.(i)) with
    | Some p, Some q -> out := (p, q) :: !out
    | _ -> ()
  done;
  Array.of_list !out

let pairing_product (pairs : (G1.t * G2.t) list) : Gt.t =
  final_exponentiation (miller_loop (affine_pairs pairs))

let pairing (p : G1.t) (q : G2.t) : Gt.t = pairing_product [ (p, q) ]

let pairing_check (pairs : (G1.t * G2.t) list) : bool =
  Gt.is_one (pairing_product pairs)
