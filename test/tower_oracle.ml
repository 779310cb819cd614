(* The boxed Fp6/Fp12 tower the pairing ran on before its tower moved to
   C (lib/curve/tower_stubs.c), kept verbatim as the oracle the C kernels
   are checked against, as sha256_oracle.ml keeps the replaced SHA-256.
   Every operation allocates a record per coefficient; it is slow and
   simple enough to check by eye.  The Tate oracle and the reference
   Miller loop in test_curve.ml run on it, so they share no tower code
   with what they check. *)

module Fp2 = Zkdet_curve.Fp2

module Fp6 = struct
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
end

module Fp12 = struct
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
end
