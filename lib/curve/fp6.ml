(* Fp6 = Fp2[v] / (v^3 - xi), xi = 9 + u. *)

type t = { c0 : Fp2.t; c1 : Fp2.t; c2 : Fp2.t }

let make c0 c1 c2 = { c0; c1; c2 }
let zero = { c0 = Fp2.zero; c1 = Fp2.zero; c2 = Fp2.zero }
let one = { c0 = Fp2.one; c1 = Fp2.zero; c2 = Fp2.zero }
let of_fp2 c0 = { c0; c1 = Fp2.zero; c2 = Fp2.zero }

let equal a b = Fp2.equal a.c0 b.c0 && Fp2.equal a.c1 b.c1 && Fp2.equal a.c2 b.c2
let is_zero a = equal a zero
let is_one a = equal a one

let add a b =
  { c0 = Fp2.add a.c0 b.c0; c1 = Fp2.add a.c1 b.c1; c2 = Fp2.add a.c2 b.c2 }

let sub a b =
  { c0 = Fp2.sub a.c0 b.c0; c1 = Fp2.sub a.c1 b.c1; c2 = Fp2.sub a.c2 b.c2 }

let neg a = { c0 = Fp2.neg a.c0; c1 = Fp2.neg a.c1; c2 = Fp2.neg a.c2 }
let double a = add a a

let mul a b =
  let v0 = Fp2.mul a.c0 b.c0 in
  let v1 = Fp2.mul a.c1 b.c1 in
  let v2 = Fp2.mul a.c2 b.c2 in
  (* c0 = v0 + xi((a1+a2)(b1+b2) - v1 - v2) *)
  let t0 =
    Fp2.mul (Fp2.add a.c1 a.c2) (Fp2.add b.c1 b.c2)
  in
  let c0 = Fp2.add v0 (Fp2.mul_by_xi (Fp2.sub (Fp2.sub t0 v1) v2)) in
  (* c1 = (a0+a1)(b0+b1) - v0 - v1 + xi v2 *)
  let t1 = Fp2.mul (Fp2.add a.c0 a.c1) (Fp2.add b.c0 b.c1) in
  let c1 = Fp2.add (Fp2.sub (Fp2.sub t1 v0) v1) (Fp2.mul_by_xi v2) in
  (* c2 = (a0+a2)(b0+b2) - v0 - v2 + v1 *)
  let t2 = Fp2.mul (Fp2.add a.c0 a.c2) (Fp2.add b.c0 b.c2) in
  let c2 = Fp2.add (Fp2.sub (Fp2.sub t2 v0) v2) v1 in
  { c0; c1; c2 }

let sqr a = mul a a

(* Sparse product by b0 + b1 v (5 Fp2 multiplications instead of 6):
   c0 = a0 b0 + xi a2 b1, c1 = a0 b1 + a1 b0, c2 = a1 b1 + a2 b0. *)
let mul_by_01 a (b0 : Fp2.t) (b1 : Fp2.t) =
  let v0 = Fp2.mul a.c0 b0 in
  let v1 = Fp2.mul a.c1 b1 in
  let c0 =
    Fp2.add v0 (Fp2.mul_by_xi (Fp2.sub (Fp2.mul b1 (Fp2.add a.c1 a.c2)) v1))
  in
  let c1 = Fp2.sub (Fp2.sub (Fp2.mul (Fp2.add b0 b1) (Fp2.add a.c0 a.c1)) v0) v1 in
  let c2 = Fp2.add (Fp2.mul a.c2 b0) v1 in
  { c0; c1; c2 }

(* Multiplication by v: (c0 + c1 v + c2 v^2) v = xi c2 + c0 v + c1 v^2. *)
let mul_by_v a = { c0 = Fp2.mul_by_xi a.c2; c1 = a.c0; c2 = a.c1 }

let scale_fp2 a (k : Fp2.t) =
  { c0 = Fp2.mul a.c0 k; c1 = Fp2.mul a.c1 k; c2 = Fp2.mul a.c2 k }

let scale_fp a (k : Fp2.Fp.t) =
  { c0 = Fp2.scale_fp a.c0 k; c1 = Fp2.scale_fp a.c1 k; c2 = Fp2.scale_fp a.c2 k }

let inv a =
  (* Standard cubic-extension inversion. *)
  let t0 = Fp2.sub (Fp2.sqr a.c0) (Fp2.mul_by_xi (Fp2.mul a.c1 a.c2)) in
  let t1 = Fp2.sub (Fp2.mul_by_xi (Fp2.sqr a.c2)) (Fp2.mul a.c0 a.c1) in
  let t2 = Fp2.sub (Fp2.sqr a.c1) (Fp2.mul a.c0 a.c2) in
  let norm =
    Fp2.add (Fp2.mul a.c0 t0)
      (Fp2.mul_by_xi (Fp2.add (Fp2.mul a.c2 t1) (Fp2.mul a.c1 t2)))
  in
  let ninv = Fp2.inv norm in
  { c0 = Fp2.mul t0 ninv; c1 = Fp2.mul t1 ninv; c2 = Fp2.mul t2 ninv }

(* Frobenius: v^p = gamma1 v with gamma1 = xi^((p-1)/3);
   (v^2)^p = gamma2 v^2 with gamma2 = gamma1^2. *)
module Nat = Zkdet_num.Nat

let p_nat = Fp2.Fp.modulus

let gamma1 = Fp2.pow_nat Fp2.xi (Nat.div (Nat.sub p_nat Nat.one) (Nat.of_int 3))
let gamma2 = Fp2.sqr gamma1

let frobenius a =
  {
    c0 = Fp2.frobenius a.c0;
    c1 = Fp2.mul (Fp2.frobenius a.c1) gamma1;
    c2 = Fp2.mul (Fp2.frobenius a.c2) gamma2;
  }

let random st = { c0 = Fp2.random st; c1 = Fp2.random st; c2 = Fp2.random st }

let to_bytes a = Fp2.to_bytes a.c0 ^ Fp2.to_bytes a.c1 ^ Fp2.to_bytes a.c2

let pp fmt a =
  Format.fprintf fmt "[%a, %a, %a]" Fp2.pp a.c0 Fp2.pp a.c1 Fp2.pp a.c2
