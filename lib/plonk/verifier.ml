(* Plonk verifier: O(1) work — two MSMs of fixed size (2 and 18 terms) and
   one two-pair pairing check, independent of circuit size (§VI-B.3 of
   the paper). *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Pairing = Zkdet_curve.Pairing
module Domain = Zkdet_poly.Domain
module Telemetry = Zkdet_telemetry.Telemetry
module Obs = Zkdet_obs.Obs

(* The points every check under [vk] shares: its 8 selector and
   permutation commitments, then the generator. *)
let fixed_points (vk : Preprocess.verification_key) =
  [| vk.Preprocess.cm_qm; vk.Preprocess.cm_ql; vk.Preprocess.cm_qr;
     vk.Preprocess.cm_qo; vk.Preprocess.cm_qc; vk.Preprocess.cm_sigma1;
     vk.Preprocess.cm_sigma2; vk.Preprocess.cm_sigma3; G1.generator |]

(* One proof's check as two sums of (point, scalar) terms: the proof is
   valid iff e(L, [tau]G2) = e(R, G2).  L = W_zeta + u W_zeta_omega.  R
   has 18 terms: the 9 [fixed_points] of the key, with scalars [fixed],
   and 9 proof commitments. *)
type equation = {
  lhs : (G1.t * Fr.t) list;
  fixed : Fr.t array;
  proof_terms : (G1.t * Fr.t) list;
}

(* [None] signals a structural rejection. *)
let equation (vk : Preprocess.verification_key) (publics : Fr.t array)
    (proof : Proof.t) : equation option =
  if Array.length publics <> vk.Preprocess.vk_n_public then None
  else begin
    let n = vk.Preprocess.vk_n in
    let domain = vk.Preprocess.vk_domain in
    let k1 = vk.Preprocess.vk_k1 and k2 = vk.Preprocess.vk_k2 in
    (* Recompute the challenges from the transcript. *)
    let tr = Transcript.create ~label:"plonk" in
    Prover.absorb_vk_and_publics tr vk publics;
    Transcript.absorb_g1 tr ~label:"a" proof.Proof.cm_a;
    Transcript.absorb_g1 tr ~label:"b" proof.Proof.cm_b;
    Transcript.absorb_g1 tr ~label:"c" proof.Proof.cm_c;
    let beta = Transcript.challenge_fr tr ~label:"beta" in
    let gamma = Transcript.challenge_fr tr ~label:"gamma" in
    Transcript.absorb_g1 tr ~label:"z" proof.Proof.cm_z;
    let alpha = Transcript.challenge_fr tr ~label:"alpha" in
    Transcript.absorb_g1 tr ~label:"t_lo" proof.Proof.cm_t_lo;
    Transcript.absorb_g1 tr ~label:"t_mid" proof.Proof.cm_t_mid;
    Transcript.absorb_g1 tr ~label:"t_hi" proof.Proof.cm_t_hi;
    let zeta = Transcript.challenge_fr tr ~label:"zeta" in
    Transcript.absorb_fr tr ~label:"ea" proof.Proof.eval_a;
    Transcript.absorb_fr tr ~label:"eb" proof.Proof.eval_b;
    Transcript.absorb_fr tr ~label:"ec" proof.Proof.eval_c;
    Transcript.absorb_fr tr ~label:"es1" proof.Proof.eval_s1;
    Transcript.absorb_fr tr ~label:"es2" proof.Proof.eval_s2;
    Transcript.absorb_fr tr ~label:"ezw" proof.Proof.eval_z_omega;
    let v = Transcript.challenge_fr tr ~label:"v" in
    Transcript.absorb_g1 tr ~label:"w_zeta" proof.Proof.cm_w_zeta;
    Transcript.absorb_g1 tr ~label:"w_zeta_omega" proof.Proof.cm_w_zeta_omega;
    let u = Transcript.challenge_fr tr ~label:"u" in

    let eval_a = proof.Proof.eval_a
    and eval_b = proof.Proof.eval_b
    and eval_c = proof.Proof.eval_c
    and eval_s1 = proof.Proof.eval_s1
    and eval_s2 = proof.Proof.eval_s2
    and eval_z_omega = proof.Proof.eval_z_omega in
    let alpha2 = Fr.sqr alpha in
    (* n is the domain's size, so zeta^n - 1 is Z_H(zeta). *)
    let zeta_n = Fr.pow zeta n in
    let zh_zeta = Fr.sub zeta_n Fr.one in
    (* zeta inside the domain would make L_i evaluation divide by zero;
       negligible probability, reject outright. *)
    if Fr.is_zero zh_zeta then None
    else begin
      (* L_0(zeta), and L_i(zeta) for every public input, from one
         inversion. *)
      let lagrange =
        Domain.lagrange_evals domain ~zh:zh_zeta
          (max 1 (Array.length publics)) zeta
      in
      let l1_zeta = lagrange.(0) in
      let pi_zeta =
        let acc = ref Fr.zero in
        Array.iteri
          (fun i x -> acc := Fr.sub !acc (Fr.mul x lagrange.(i)))
          publics;
        !acc
      in
      let r_const =
        Fr.sub
          (Fr.sub pi_zeta (Fr.mul alpha2 l1_zeta))
          (Fr.mul alpha
             (Fr.mul
                (Fr.mul
                   (Fr.add (Fr.add eval_a (Fr.mul beta eval_s1)) gamma)
                   (Fr.add (Fr.add eval_b (Fr.mul beta eval_s2)) gamma))
                (Fr.mul (Fr.add eval_c gamma) eval_z_omega)))
      in
      let perm_z_coeff =
        Fr.add
          (Fr.mul alpha
             (Fr.mul
                (Fr.mul
                   (Fr.add (Fr.add eval_a (Fr.mul beta zeta)) gamma)
                   (Fr.add (Fr.add eval_b (Fr.mul beta (Fr.mul k1 zeta))) gamma))
                (Fr.add (Fr.add eval_c (Fr.mul beta (Fr.mul k2 zeta))) gamma)))
          (Fr.mul alpha2 l1_zeta)
      in
      let perm_s3_coeff =
        Fr.neg
          (Fr.mul alpha
             (Fr.mul
                (Fr.mul
                   (Fr.add (Fr.add eval_a (Fr.mul beta eval_s1)) gamma)
                   (Fr.add (Fr.add eval_b (Fr.mul beta eval_s2)) gamma))
                (Fr.mul beta eval_z_omega)))
      in
      let zeta_2n = Fr.sqr zeta_n in
      let v2 = Fr.mul v v in
      let v3 = Fr.mul v2 v in
      let v4 = Fr.mul v3 v in
      let v5 = Fr.mul v4 v in
      (* [E] = (-r_const + v a + v^2 b + v^3 c + v^4 s1 + v^5 s2 + u z_w) [1] *)
      let e_scalar =
        List.fold_left Fr.add (Fr.neg r_const)
          [ Fr.mul v eval_a; Fr.mul v2 eval_b; Fr.mul v3 eval_c;
            Fr.mul v4 eval_s1; Fr.mul v5 eval_s2; Fr.mul u eval_z_omega ]
      in
      let lhs =
        [ (proof.Proof.cm_w_zeta, Fr.one); (proof.Proof.cm_w_zeta_omega, u) ]
      in
      (* R = zeta W_z + u zeta omega W_zw + [F] - [E], where
         [F] = [D] + v[a] + v^2[b] + v^3[c] + v^4[s1] + v^5[s2] + u[z] and
         [D] is the linearization commitment. *)
      let fixed =
        [| Fr.mul eval_a eval_b; eval_a; eval_b; eval_c; Fr.one; v4; v5;
           perm_s3_coeff; Fr.neg e_scalar |]
      in
      let neg_zh = Fr.neg zh_zeta in
      let proof_terms =
        [ (proof.Proof.cm_a, v);
          (proof.Proof.cm_b, v2);
          (proof.Proof.cm_c, v3);
          (proof.Proof.cm_z, Fr.add perm_z_coeff u);
          (proof.Proof.cm_t_lo, neg_zh);
          (proof.Proof.cm_t_mid, Fr.mul neg_zh zeta_n);
          (proof.Proof.cm_t_hi, Fr.mul neg_zh zeta_2n);
          (proof.Proof.cm_w_zeta, zeta);
          ( proof.Proof.cm_w_zeta_omega,
            Fr.mul u (Fr.mul zeta (Domain.omega domain)) ) ]
      in
      Some { lhs; fixed; proof_terms }
    end
  end

(* The folded check of equations over one SRS:
   e(sum_i rho_i L_i, [tau]G2) = e(sum_i rho_i R_i, G2), with one MSM per
   side and one two-pair check.  The scalars of each key's fixed points
   are summed first, so a batch under one key adds 9 points to the R
   side, not 9 per proof. *)
let check_fold ~(g2_tau : G2.t) ~(g2 : G2.t)
    (items : (Preprocess.verification_key * equation * Fr.t) list) : bool =
  let keys = ref [] in
  List.iter
    (fun (vk, eq, rho) ->
      let sums =
        match List.assq_opt vk !keys with
        | Some sums -> sums
        | None ->
          let sums = Array.make (Array.length eq.fixed) Fr.zero in
          keys := (vk, sums) :: !keys;
          sums
      in
      Array.iteri (fun j s -> sums.(j) <- Fr.add sums.(j) (Fr.mul rho s)) eq.fixed)
    items;
  let scaled pick =
    List.concat_map
      (fun (_, eq, rho) -> List.map (fun (p, s) -> (p, Fr.mul rho s)) (pick eq))
      items
  in
  let msm terms =
    let terms = Array.of_list terms in
    G1.msm (Array.map fst terms) (Array.map snd terms)
  in
  let l = msm (scaled (fun eq -> eq.lhs)) in
  let r =
    msm
      (List.concat_map
         (fun (vk, sums) -> Array.to_list (Array.combine (fixed_points vk) sums))
         !keys
      @ scaled (fun eq -> eq.proof_terms))
  in
  Pairing.pairing_check [ (l, g2_tau); (G1.neg r, g2) ]

(** The Fiat–Shamir RLC scalars {!verify_batch} folds with: one per item,
    derived from a transcript over every (vk, publics, proof) in the
    batch.  A pure hash chain over canonical bytes, so the scalars — and
    therefore the batch verdict — are identical at any [ZKDET_DOMAINS].
    Exposed for the determinism tests and for audit tooling. *)
let batch_scalars
    (items : (Preprocess.verification_key * Fr.t array * Proof.t) list) :
    Fr.t list =
  (* Serialize each distinct vk once (physical equality): a settlement
     batch repeats the same key N times. *)
  let vk_bytes_cache = ref [] in
  let vk_bytes vk =
    match List.assq_opt vk !vk_bytes_cache with
    | Some b -> b
    | None ->
      let b = Preprocess.vk_to_bytes vk in
      vk_bytes_cache := (vk, b) :: !vk_bytes_cache;
      b
  in
  Transcript.batch_challenges ~label:"plonk"
    (List.map
       (fun (vk, publics, proof) ->
         (vk_bytes vk, publics, Proof.wire_encode proof))
       items)

(* The one body of {!verify} and {!verify_batch}: each item's
   {!equation} scaled by its rho, folded per SRS (vk_g2_tau, vk_g2), in
   first-use order, into one two-pair check.  Circuits preprocessed over
   one SRS fold together; a batch spanning several ceremonies costs one
   check per SRS. *)
let verify_folded
    (items : (Preprocess.verification_key * Fr.t array * Proof.t) list)
    (rhos : Fr.t list) : bool =
  Telemetry.count "plonk.verifies" (List.length items);
  let groups : ((G2.t * G2.t) * (_ * equation * Fr.t) list ref) list ref =
    ref []
  in
  let structural_ok =
    List.for_all2
      (fun (vk, publics, proof) rho ->
        match equation vk publics proof with
        | None -> false
        | Some eq ->
          let tau = vk.Preprocess.vk_g2_tau and g2 = vk.Preprocess.vk_g2 in
          (match
             List.find_opt
               (fun ((t, g), _) -> G2.equal t tau && G2.equal g g2)
               !groups
           with
          | Some (_, cell) -> cell := (vk, eq, rho) :: !cell
          | None -> groups := ((tau, g2), ref [ (vk, eq, rho) ]) :: !groups);
          true)
      items rhos
  in
  let ok =
    structural_ok
    && List.for_all
         (fun ((g2_tau, g2), cell) -> check_fold ~g2_tau ~g2 (List.rev !cell))
         (List.rev !groups)
  in
  if Obs.is_enabled () then
    Obs.emit (Zkdet_obs.Event.Proof_verified { system = "plonk"; ok });
  ok

(** Verify many proofs — possibly for different circuits — with one folded
    check per distinct SRS: each item's {!equation} is scaled by its
    {!batch_scalars} rho_i, and per SRS one MSM sums rho_i L_i, one sums
    rho_i R_i, and one two-pair check compares them.  Soundness error
    1/|Fr| per batch; accepts exactly when every proof verifies
    individually (grouping by SRS keeps mixed-SRS batches equivalent to
    per-proof verification). *)
let verify_batch
    (items : (Preprocess.verification_key * Fr.t array * Proof.t) list) : bool =
  match items with
  | [] -> true
  | _ ->
    (* The span covers the batch's transcript too, so an audit's time
       outside it is its walk alone. *)
    Telemetry.with_span "plonk.verify" @@ fun () ->
    let n = List.length items in
    Telemetry.count "verify.batch_size" n;
    Telemetry.observe "verify.batch_size" (float_of_int n);
    verify_folded items (if n = 1 then [ Fr.one ] else batch_scalars items)

let verify (vk : Preprocess.verification_key) (publics : Fr.t array)
    (proof : Proof.t) : bool =
  verify_batch [ (vk, publics, proof) ]
