(* The (reduced) Tate pairing e : G1 x G2 -> GT on BN254.

   We run the Miller loop f_{r,P}(Q) with P in G1 — so the loop's point
   arithmetic stays in Fp — and evaluate lines at Q embedded into E(Fp12)
   through the sextic-twist isomorphism Psi(x', y') = (x' w^2, y' w^3).
   The final exponentiation maps to the r-th roots of unity, making the
   result bilinear and well-defined. This trades the shorter loop of the
   optimal ate pairing for formulas with no twist-type case analysis; the
   cost difference is a small constant factor, irrelevant to the scaling
   shapes we reproduce. *)

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
    let acc = ref Fp12.one in
    for i = Fr.num_bits - 1 downto 0 do
      acc := Fp12.sqr !acc;
      if Weierstrass.limb_bit limbs i then acc := Fp12.mul !acc t
    done;
    !acc

  let to_bytes = Fp12.to_bytes
  let pp = Fp12.pp
end

(* Psi: twist E'(Fp2) -> E(Fp12). x = x' v (= x' w^2), y = y' (v w) (= x' w^3). *)
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
      f := Fp12.sqr !f;
      if not !t_at_infinity then begin
        if Fp.is_zero !yt then begin
          (* Tangent is vertical: T has order 2 (cannot happen for prime r,
             kept for totality). *)
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
          if Fp.equal !yt yp then
            (* T = P mid-loop is impossible: the running multiple is >= 2. *)
            assert false
          else begin
            (* T = -P: the chord is the vertical through P; T + P = O.
               This is exactly the last addition of the loop ([r]P = O). *)
            f := Fp12.mul !f (vertical_eval xq xp);
            t_at_infinity := true
          end
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

(* Hard-part exponent (p^4 - p^2 + 1) / r, derived (and checked) at init. *)
let hard_exponent =
  let p = Fp.modulus in
  let p2 = Nat.mul p p in
  let p4 = Nat.mul p2 p2 in
  let num = Nat.add (Nat.sub p4 p2) Nat.one in
  let q, rem = Nat.divmod num Fr.modulus in
  assert (Nat.is_zero rem);
  q

let final_exponentiation (f : Fp12.t) : Gt.t =
  if Fp12.is_zero f then Fp12.zero
  else begin
    (* Easy part: f^((p^6 - 1)(p^2 + 1)). *)
    let t0 = Fp12.mul (Fp12.conj f) (Fp12.inv f) in
    let t1 = Fp12.mul (Fp12.frobenius (Fp12.frobenius t0)) t0 in
    (* Hard part. *)
    Fp12.pow_nat t1 hard_exponent
  end

let pairing (p : G1.t) (q : G2.t) : Gt.t =
  final_exponentiation (miller_loop p q)

(** [pairing_check pairs] is [true] iff the product of pairings over
    [pairs] is the identity in GT — the form used by on-chain verifiers
    (one shared final exponentiation). The Miller loops are independent
    and run on the parallel pool; the Fp12 product folds left-to-right,
    so batched verification is deterministic at any pool size. *)
let pairing_check (pairs : (G1.t * G2.t) list) : bool =
  let fs =
    Zkdet_parallel.Pool.parallel_map_array
      (fun (p, q) -> miller_loop p q)
      (Array.of_list pairs)
  in
  let f = Array.fold_left Fp12.mul Fp12.one fs in
  Gt.is_one (final_exponentiation f)
