(* Fp12 = Fp6[w] / (w^2 - v). Target group of the pairing. *)

module Nat = Zkdet_num.Nat

type t = { c0 : Fp6.t; c1 : Fp6.t }

let make c0 c1 = { c0; c1 }
let zero = { c0 = Fp6.zero; c1 = Fp6.zero }
let one = { c0 = Fp6.one; c1 = Fp6.zero }
let of_fp6 c0 = { c0; c1 = Fp6.zero }
let of_fp c = of_fp6 (Fp6.of_fp2 (Fp2.of_fp c))

let equal a b = Fp6.equal a.c0 b.c0 && Fp6.equal a.c1 b.c1
let is_zero a = equal a zero
let is_one a = equal a one

let add a b = { c0 = Fp6.add a.c0 b.c0; c1 = Fp6.add a.c1 b.c1 }
let sub a b = { c0 = Fp6.sub a.c0 b.c0; c1 = Fp6.sub a.c1 b.c1 }
let neg a = { c0 = Fp6.neg a.c0; c1 = Fp6.neg a.c1 }

let mul a b =
  (* Karatsuba with w^2 = v. *)
  let v0 = Fp6.mul a.c0 b.c0 in
  let v1 = Fp6.mul a.c1 b.c1 in
  let s = Fp6.mul (Fp6.add a.c0 a.c1) (Fp6.add b.c0 b.c1) in
  { c0 = Fp6.add v0 (Fp6.mul_by_v v1); c1 = Fp6.sub (Fp6.sub s v0) v1 }

(* Complex squaring: 2 Fp6 multiplications instead of 3.
   (a0 + a1 w)^2 = (a0 - a1)(a0 - v a1) + (1 + v) a0 a1 + 2 a0 a1 w. *)
let sqr a =
  let ab = Fp6.mul a.c0 a.c1 in
  let t = Fp6.mul (Fp6.sub a.c0 a.c1) (Fp6.sub a.c0 (Fp6.mul_by_v a.c1)) in
  { c0 = Fp6.add (Fp6.add t ab) (Fp6.mul_by_v ab); c1 = Fp6.double ab }

(* Sparse product by d0 + (d3 + d4 v) w, the shape of a Miller-loop line
   on the D-type twist: 13 Fp2 multiplications instead of 18. *)
let mul_by_034 a (d0 : Fp2.t) (d3 : Fp2.t) (d4 : Fp2.t) =
  let t0 = Fp6.scale_fp2 a.c0 d0 in
  let t1 = Fp6.mul_by_01 a.c1 d3 d4 in
  let s = Fp6.mul_by_01 (Fp6.add a.c0 a.c1) (Fp2.add d0 d3) d4 in
  { c0 = Fp6.add t0 (Fp6.mul_by_v t1); c1 = Fp6.sub (Fp6.sub s t0) t1 }

let scale_fp a k = { c0 = Fp6.scale_fp a.c0 k; c1 = Fp6.scale_fp a.c1 k }

let inv a =
  (* (a0 + a1 w)^-1 = (a0 - a1 w) / (a0^2 - v a1^2) *)
  let norm = Fp6.sub (Fp6.sqr a.c0) (Fp6.mul_by_v (Fp6.sqr a.c1)) in
  let ninv = Fp6.inv norm in
  { c0 = Fp6.mul a.c0 ninv; c1 = Fp6.neg (Fp6.mul a.c1 ninv) }

(* Conjugation over Fp6 = the p^6 Frobenius (cheap); the inverse on the
   cyclotomic subgroup. *)
let conj a = { a with c1 = Fp6.neg a.c1 }

(* Granger-Scott squaring, valid only in the cyclotomic subgroup
   (a^(p^4 - p^2 + 1) = 1, e.g. after the final exponentiation's easy
   part). Viewing Fp12 as Fp4^3 with Fp4 = Fp2[y] / (y^2 - xi), y = w^3,
   it costs three Fp4 squarings. *)
let cyclotomic_sqr a =
  let r0 = a.c0.Fp6.c0 and r4 = a.c0.Fp6.c1 and r3 = a.c0.Fp6.c2 in
  let r2 = a.c1.Fp6.c0 and r1 = a.c1.Fp6.c1 and r5 = a.c1.Fp6.c2 in
  (* (x + y w^3)^2 = (x^2 + xi y^2) + 2 x y w^3 *)
  let fp4_sqr x y =
    let t = Fp2.mul x y in
    ( Fp2.sub
        (Fp2.sub (Fp2.mul (Fp2.add x y) (Fp2.add (Fp2.mul_by_xi y) x)) t)
        (Fp2.mul_by_xi t),
      Fp2.double t )
  in
  let t0, t1 = fp4_sqr r0 r1 in
  let t2, t3 = fp4_sqr r2 r3 in
  let t4, t5 = fp4_sqr r4 r5 in
  let minus t r = Fp2.add (Fp2.double (Fp2.sub t r)) t in (* 3t - 2r *)
  let plus t r = Fp2.add (Fp2.double (Fp2.add t r)) t in (* 3t + 2r *)
  {
    c0 = Fp6.make (minus t0 r0) (minus t2 r4) (minus t4 r3);
    c1 = Fp6.make (plus (Fp2.mul_by_xi t5) r2) (plus t1 r1) (plus t3 r5);
  }

(* Frobenius: w^p = gamma_w w with gamma_w = xi^((p-1)/6) in Fp2. *)
let gamma_w =
  Fp2.pow_nat Fp2.xi (Nat.div (Nat.sub Fp2.Fp.modulus Nat.one) (Nat.of_int 6))

let frobenius a =
  { c0 = Fp6.frobenius a.c0; c1 = Fp6.scale_fp2 (Fp6.frobenius a.c1) gamma_w }

let pow_nat x e =
  let nbits = Nat.num_bits e in
  if nbits = 0 then one
  else begin
    let acc = ref one in
    for i = nbits - 1 downto 0 do
      acc := sqr !acc;
      if Nat.testbit e i then acc := mul !acc x
    done;
    !acc
  end

let random st = { c0 = Fp6.random st; c1 = Fp6.random st }

let to_bytes a = Fp6.to_bytes a.c0 ^ Fp6.to_bytes a.c1

let pp fmt a = Format.fprintf fmt "{%a; %a}" Fp6.pp a.c0 Fp6.pp a.c1
