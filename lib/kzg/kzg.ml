(* KZG polynomial commitments over the SRS. *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Pairing = Zkdet_curve.Pairing
module Poly = Zkdet_poly.Poly
module Telemetry = Zkdet_telemetry.Telemetry

type commitment = G1.t
type opening_proof = G1.t

(** [commit srs p] = [p(tau)] G1. Raises [Invalid_argument] if the
    polynomial exceeds the SRS. Routed through the SRS's fixed-base MSM
    tables when available (built once per SRS, persisted in the disk
    cache); otherwise the generic Pippenger over the power prefix. Both
    paths yield the same group element, so commitment bytes never depend
    on table availability. *)
let commit (srs : Srs.t) (p : Poly.t) : commitment =
  let d = Poly.degree p in
  Telemetry.count "kzg.commits" 1;
  if d < 0 then G1.zero
  else begin
    if d >= Srs.size srs then invalid_arg "Kzg.commit: polynomial exceeds SRS";
    (* The MSM only reads the scalars, so a polynomial with no trailing
       zeros can lend its coefficient array directly instead of copying. *)
    let coeffs =
      let raw = Poly.coeffs p in
      if Array.length raw = d + 1 then raw
      else Array.init (d + 1) (Poly.coeff p)
    in
    match Srs.fixed_base_table srs with
    | Some tb -> G1.Fixed_base.msm tb coeffs
    | None -> G1.msm (Array.sub srs.Srs.g1_powers 0 (d + 1)) coeffs
  end

(** [commit_batch srs ps] commits to each polynomial, one pool task per
    commitment (inside a worker the MSM's own window-level parallelism
    degrades to sequential, so the two levels compose without deadlock). *)
let commit_batch (srs : Srs.t) (ps : Poly.t array) : commitment array =
  Telemetry.with_span "kzg.commit_batch" (fun () ->
      Zkdet_parallel.Pool.parallel_map_array (commit srs) ps)

(** [open_at srs p z] returns [(y, pi)] with [y = p(z)] and [pi] the witness
    commitment [( (p - y)/(X - z) ) (tau)] G1. *)
let open_at (srs : Srs.t) (p : Poly.t) (z : Fr.t) : Fr.t * opening_proof =
  Telemetry.with_span "kzg.open" (fun () ->
      Telemetry.count "kzg.opens" 1;
      let y = Poly.eval p z in
      let quotient = Poly.div_by_linear (Poly.sub p (Poly.constant y)) z in
      (y, commit srs quotient))

(** Check that [c] opens to [y] at [z]:
    e(C - [y]G1, G2) = e(W, [tau]G2 - [z]G2). *)
let verify (srs : Srs.t) (c : commitment) ~(z : Fr.t) ~(y : Fr.t)
    (proof : opening_proof) : bool =
  let lhs_g1 = G1.sub_point c (G1.mul G1.generator y) in
  let rhs_g2 = G2.sub_point srs.Srs.g2_tau (G2.mul G2.generator z) in
  Pairing.pairing_check [ (lhs_g1, srs.Srs.g2); (G1.neg proof, rhs_g2) ]

(** Batched opening at a single point: combine polynomials with powers of a
    verifier challenge [gamma] and open the combination once. *)
let open_batch (srs : Srs.t) (ps : Poly.t list) (z : Fr.t) (gamma : Fr.t) :
    Fr.t list * opening_proof =
  Telemetry.with_span "kzg.open_batch" (fun () ->
      Telemetry.count "kzg.opens" (List.length ps);
      let ys = List.map (fun p -> Poly.eval p z) ps in
      let combined, _ =
        List.fold_left
          (fun (acc, g) p -> (Poly.add acc (Poly.scale g p), Fr.mul g gamma))
          (Poly.zero, Fr.one) ps
      in
      let y_comb = Poly.eval combined z in
      let quotient =
        Poly.div_by_linear (Poly.sub combined (Poly.constant y_comb)) z
      in
      (ys, commit srs quotient))

let verify_batch (srs : Srs.t) (cs : commitment list) ~(z : Fr.t)
    ~(ys : Fr.t list) (gamma : Fr.t) (proof : opening_proof) : bool =
  let combined_c, _ =
    List.fold_left
      (fun (acc, g) c -> (G1.add acc (G1.mul c g), Fr.mul g gamma))
      (G1.zero, Fr.one) cs
  in
  let combined_y, _ =
    List.fold_left
      (fun (acc, g) y -> (Fr.add acc (Fr.mul g y), Fr.mul g gamma))
      (Fr.zero, Fr.one) ys
  in
  verify srs combined_c ~z ~y:combined_y proof
