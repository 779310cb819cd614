(* The reduced Tate pairing on BN254: the test oracle for the optimal ate
   pairing in lib/curve/pairing.ml.

   The Miller loop f_(r,P)(Q) runs over all bits of r with P in G1, so
   its point arithmetic stays affine in Fp, and evaluates lines at Q
   embedded into E(Fp12) through Psi(x', y') = (x' w^2, y' w^3). The
   final exponentiation is the standard one: the easy part, then the
   762-bit hard exponent (p^4 - p^2 + 1) / r by square-and-multiply.
   Slow (tens of ms per pairing) and simple enough to check by eye.  It
   runs on the boxed oracle tower (tower_oracle.ml), so it shares no
   tower code with the C kernels the pairing runs on. *)

module Nat = Zkdet_num.Nat
module Fp = Zkdet_field.Bn254.Fp
module Fr = Zkdet_field.Bn254.Fr
module Fp2 = Zkdet_curve.Fp2
module Fp6 = Tower_oracle.Fp6
module Fp12 = Tower_oracle.Fp12
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2

(* Psi: twist E'(Fp2) -> E(Fp12). *)
let embed_g2 (q : G2.t) : (Fp12.t * Fp12.t) option =
  match G2.to_affine q with
  | None -> None
  | Some (x', y') ->
    let x = Fp12.make (Fp6.make Fp2.zero x' Fp2.zero) Fp6.zero in
    let y = Fp12.make Fp6.zero (Fp6.make Fp2.zero y' Fp2.zero) in
    Some (x, y)

(* Chord/tangent line through T with slope lam, evaluated at Q:
   l(Q) = lam * xQ - yQ + (yT - lam * xT). *)
let line_eval (xq : Fp12.t) (yq : Fp12.t) (lam : Fp.t) (xt : Fp.t) (yt : Fp.t) =
  Fp12.add
    (Fp12.sub (Fp12.scale_fp xq lam) yq)
    (Fp12.of_fp (Fp.sub yt (Fp.mul lam xt)))

let vertical_eval (xq : Fp12.t) (xt : Fp.t) = Fp12.sub xq (Fp12.of_fp xt)

let miller_loop (p : G1.t) (q : G2.t) : Fp12.t =
  match (G1.to_affine p, embed_g2 q) with
  | None, _ | _, None -> Fp12.one
  | Some (xp, yp), Some (xq, yq) ->
    let r = Fr.modulus in
    let f = ref Fp12.one in
    let xt = ref xp and yt = ref yp in
    let t_at_infinity = ref false in
    for i = Nat.num_bits r - 2 downto 0 do
      f := Fp12.mul !f !f;
      if not !t_at_infinity then begin
        if Fp.is_zero !yt then begin
          f := Fp12.mul !f (vertical_eval xq !xt);
          t_at_infinity := true
        end
        else begin
          let lam = Fp.div (Fp.mul (Fp.of_int 3) (Fp.sqr !xt)) (Fp.double !yt) in
          f := Fp12.mul !f (line_eval xq yq lam !xt !yt);
          let x' = Fp.sub (Fp.sqr lam) (Fp.double !xt) in
          let y' = Fp.sub (Fp.mul lam (Fp.sub !xt x')) !yt in
          xt := x';
          yt := y'
        end
      end;
      if Nat.testbit r i && not !t_at_infinity then begin
        if Fp.equal !xt xp then begin
          (* T = -P: the chord is the vertical through P; T + P = O.
             This is exactly the last addition of the loop ([r]P = O). *)
          f := Fp12.mul !f (vertical_eval xq xp);
          t_at_infinity := true
        end
        else begin
          let lam = Fp.div (Fp.sub yp !yt) (Fp.sub xp !xt) in
          f := Fp12.mul !f (line_eval xq yq lam !xt !yt);
          let x' = Fp.sub (Fp.sub (Fp.sqr lam) !xt) xp in
          let y' = Fp.sub (Fp.mul lam (Fp.sub !xt x')) !yt in
          xt := x';
          yt := y'
        end
      end
    done;
    !f

(* (p^4 - p^2 + 1) / r *)
let hard_exponent =
  let p = Fp.modulus in
  let p2 = Nat.mul p p in
  let q, rem = Nat.divmod (Nat.add (Nat.sub (Nat.mul p2 p2) p2) Nat.one) Fr.modulus in
  assert (Nat.is_zero rem);
  q

(* Square-and-multiply with dense products only, so the oracle shares no
   squaring code with the pairing under test. *)
let pow (a : Fp12.t) (e : Nat.t) : Fp12.t =
  let acc = ref Fp12.one in
  for i = Nat.num_bits e - 1 downto 0 do
    acc := Fp12.mul !acc !acc;
    if Nat.testbit e i then acc := Fp12.mul !acc a
  done;
  !acc

(* f^((p^12 - 1) / r) = f^((p^6 - 1)(p^2 + 1)(p^4 - p^2 + 1) / r) *)
let final_exponentiation (f : Fp12.t) : Fp12.t =
  let t0 = Fp12.mul (Fp12.conj f) (Fp12.inv f) in
  let t1 = Fp12.mul (Fp12.frobenius (Fp12.frobenius t0)) t0 in
  pow t1 hard_exponent

let pairing (p : G1.t) (q : G2.t) : Fp12.t = final_exponentiation (miller_loop p q)

let pairing_check (pairs : (G1.t * G2.t) list) : bool =
  Fp12.is_one
    (final_exponentiation
       (List.fold_left (fun f (p, q) -> Fp12.mul f (miller_loop p q)) Fp12.one pairs))
