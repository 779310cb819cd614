(* The Plonk prover (Gabizon–Williamson–Ciobotaru 2019), 5 rounds, with the
   quotient computed on a coset of the 4n domain. *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module Poly = Zkdet_poly.Poly
module Domain = Zkdet_poly.Domain
module Kzg = Zkdet_kzg.Kzg
module Pool = Zkdet_parallel.Pool
module Telemetry = Zkdet_telemetry.Telemetry
module Obs = Zkdet_obs.Obs

let absorb_vk_and_publics (t : Transcript.t) (vk : Preprocess.verification_key)
    (publics : Fr.t array) =
  Transcript.absorb_g1 t ~label:"qm" vk.Preprocess.cm_qm;
  Transcript.absorb_g1 t ~label:"ql" vk.Preprocess.cm_ql;
  Transcript.absorb_g1 t ~label:"qr" vk.Preprocess.cm_qr;
  Transcript.absorb_g1 t ~label:"qo" vk.Preprocess.cm_qo;
  Transcript.absorb_g1 t ~label:"qc" vk.Preprocess.cm_qc;
  Transcript.absorb_g1 t ~label:"s1" vk.Preprocess.cm_sigma1;
  Transcript.absorb_g1 t ~label:"s2" vk.Preprocess.cm_sigma2;
  Transcript.absorb_g1 t ~label:"s3" vk.Preprocess.cm_sigma3;
  Array.iter (Transcript.absorb_fr t ~label:"pub") publics

(* [blind domain n4 evals blinds] interpolates a column given on H and
   adds (blinds.(k) X^k + ... + blinds.(0)) Z_H to it.  The coefficients
   land in a fresh n4-cell buffer, ready for round 3's coset FFT; the
   [Poly.t] for commitments and rounds 4-5 is its first n + k cells. *)
let blind domain n4 (evals : Fr.buf) (blinds : Fr.t array) =
  let n = Domain.size domain in
  let c = Fr.buf_create n in
  Fr.buf_blit evals 0 c 0 n;
  Domain.ifft_buf domain c;
  let out = Fr.buf_create n4 in
  Fr.buf_blit c 0 out 0 n;
  let bs = Fr.buf_of_array blinds in
  Array.iteri
    (fun k _ ->
      Fr.buf_add out (n + k) out (n + k) bs k;
      Fr.buf_sub out k out k bs k)
    blinds;
  (out, Array.init (n + Array.length blinds) (Fr.buf_get out))

(* dst.(d) <- w.(i) + beta f.(i) + gamma, with beta and gamma in cells 0
   and 1 of [k]: one factor of a permutation product. *)
let factor k dst d w f i =
  Fr.buf_mul dst d k 0 f i;
  Fr.buf_add dst d dst d w i;
  Fr.buf_add dst d dst d k 1

(* Round 2's grand product over H: z_0 = 1 and z_(i+1) = z_i num_i /
   den_i, where num_i = (a + beta w^i + gamma)(b + beta k1 w^i +
   gamma)(c + beta k2 w^i + gamma) and den_i puts sigma_1..3 in place of
   w^i, k1 w^i, k2 w^i.  All on buffers: nothing is allocated per row. *)
let grand_product (pk : Preprocess.proving_key) ~wa ~wb ~wc ~beta ~gamma =
  let n = pk.Preprocess.n in
  (* constants: 0 beta, 1 gamma, 2 k1, 3 k2, 4 omega *)
  let k =
    Fr.buf_of_array
      [| beta; gamma; pk.Preprocess.k1; pk.Preprocess.k2;
         Domain.omega pk.Preprocess.domain |]
  in
  let nums = Fr.buf_create n and dens = Fr.buf_create n in
  (* cell 0: beta w^i; 1: scratch *)
  let t = Fr.buf_create 2 in
  Fr.buf_set t 0 beta;
  for i = 0 to n - 2 do
    (* den_i *)
    factor k dens i wa pk.Preprocess.sigma1_evals i;
    factor k t 1 wb pk.Preprocess.sigma2_evals i;
    Fr.buf_mul dens i dens i t 1;
    factor k t 1 wc pk.Preprocess.sigma3_evals i;
    Fr.buf_mul dens i dens i t 1;
    if Fr.buf_is_zero dens i then raise Division_by_zero;
    (* num_i, with t.(0) = beta w^i *)
    Fr.buf_add nums i wa i t 0;
    Fr.buf_add nums i nums i k 1;
    Fr.buf_mul t 1 t 0 k 2;
    Fr.buf_add t 1 t 1 wb i;
    Fr.buf_add t 1 t 1 k 1;
    Fr.buf_mul nums i nums i t 1;
    Fr.buf_mul t 1 t 0 k 3;
    Fr.buf_add t 1 t 1 wc i;
    Fr.buf_add t 1 t 1 k 1;
    Fr.buf_mul nums i nums i t 1;
    Fr.buf_mul t 0 t 0 k 4
  done;
  Fr.buf_batch_inv0 ~scratch:(Fr.buf_create (n + 1)) dens (n - 1);
  let z = Fr.buf_create n in
  Fr.buf_set z 0 Fr.one;
  for i = 0 to n - 2 do
    Fr.buf_mul nums i nums i dens i;
    Fr.buf_mul z (i + 1) z i nums i
  done;
  z

(* Round 3's quotient numerator over the 4n coset, divided by Z_H, into
   [t]: gate + alpha (perm_num - perm_den) + alpha^2 (z - 1) L1.  Rows
   are independent, so chunks run on the pool, each with its own
   scratch cells. *)
let quotient_evals (pk : Preprocess.proving_key) ~a4 ~b4 ~c4 ~z4 ~pi4 ~beta
    ~gamma ~alpha (t : Fr.buf) =
  let n4 = Fr.buf_length t in
  let fx = pk.Preprocess.coset_fixed in
  let ql = fx.(0) and qr = fx.(1) and qo = fx.(2) and qm = fx.(3)
  and qc = fx.(4) and s1 = fx.(5) and s2 = fx.(6) and s3 = fx.(7)
  and l1 = fx.(8) in
  let x = pk.Preprocess.coset_x and zh_inv = pk.Preprocess.coset_zh_inv in
  (* constants: 0 beta, 1 gamma, 2 k1, 3 k2, 4 alpha, 5 alpha^2, 6 one *)
  let k =
    Fr.buf_of_array
      [| beta; gamma; pk.Preprocess.k1; pk.Preprocess.k2; alpha; Fr.sqr alpha;
         Fr.one |]
  in
  let chunk ~lo ~hi =
    (* cells: 0 gate/result, 1 perm_num, 2 perm_den, 3 beta x, 4 scratch *)
    let s = Fr.buf_create 5 in
    for i = lo to hi - 1 do
      let iw = (i + 4) mod n4 in
      (* gate = a b qm + a ql + b qr + c qo + pi + qc *)
      Fr.buf_mul s 0 a4 i b4 i;
      Fr.buf_mul s 0 s 0 qm i;
      Fr.buf_mul s 4 a4 i ql i;
      Fr.buf_add s 0 s 0 s 4;
      Fr.buf_mul s 4 b4 i qr i;
      Fr.buf_add s 0 s 0 s 4;
      Fr.buf_mul s 4 c4 i qo i;
      Fr.buf_add s 0 s 0 s 4;
      Fr.buf_add s 0 s 0 pi4 i;
      Fr.buf_add s 0 s 0 qc i;
      (* perm_num = (a + beta x + gamma)(b + beta k1 x + gamma)
                    (c + beta k2 x + gamma) z(x) *)
      Fr.buf_mul s 3 k 0 x i;
      Fr.buf_add s 1 a4 i s 3;
      Fr.buf_add s 1 s 1 k 1;
      Fr.buf_mul s 4 s 3 k 2;
      Fr.buf_add s 4 s 4 b4 i;
      Fr.buf_add s 4 s 4 k 1;
      Fr.buf_mul s 1 s 1 s 4;
      Fr.buf_mul s 4 s 3 k 3;
      Fr.buf_add s 4 s 4 c4 i;
      Fr.buf_add s 4 s 4 k 1;
      Fr.buf_mul s 1 s 1 s 4;
      Fr.buf_mul s 1 s 1 z4 i;
      (* perm_den = (a + beta s1 + gamma)(b + beta s2 + gamma)
                    (c + beta s3 + gamma) z(w x) *)
      factor k s 2 a4 s1 i;
      factor k s 4 b4 s2 i;
      Fr.buf_mul s 2 s 2 s 4;
      factor k s 4 c4 s3 i;
      Fr.buf_mul s 2 s 2 s 4;
      Fr.buf_mul s 2 s 2 z4 iw;
      (* + alpha (perm_num - perm_den) + alpha^2 (z - 1) L1, / Z_H *)
      Fr.buf_sub s 1 s 1 s 2;
      Fr.buf_mul s 1 s 1 k 4;
      Fr.buf_add s 0 s 0 s 1;
      Fr.buf_sub s 4 z4 i k 6;
      Fr.buf_mul s 4 s 4 l1 i;
      Fr.buf_mul s 4 s 4 k 5;
      Fr.buf_add s 0 s 0 s 4;
      Fr.buf_mul t i s 0 zh_inv (i land 3)
    done
  in
  Pool.parallel_for_chunks 0 n4 chunk

let prove ?(st = Random.State.make_self_init ()) (pk : Preprocess.proving_key)
    (circuit : Cs.compiled) : Proof.t =
  Telemetry.with_span "plonk.prove" @@ fun () ->
  Telemetry.count "plonk.proofs" 1;
  Telemetry.observe "plonk.gates" (float_of_int (Cs.num_gates circuit));
  if not (Cs.satisfied circuit) then
    invalid_arg "Prover.prove: witness does not satisfy the circuit";
  let n = pk.Preprocess.n in
  let domain = pk.Preprocess.domain in
  let domain4 = pk.Preprocess.domain4 in
  let n4 = Domain.size domain4 in
  let gates = pk.Preprocess.gates in
  let witness = circuit.Cs.witness in
  let publics = circuit.Cs.public_values in
  let tr = Transcript.create ~label:"plonk" in
  absorb_vk_and_publics tr pk.Preprocess.vk publics;

  (* Wire value columns over the padded trace. *)
  let column wire =
    let b = Fr.buf_create n in
    Array.iteri (fun i g -> Fr.buf_set b i witness.(wire g)) gates;
    b
  in
  let wa = column (fun g -> g.Cs.a) in
  let wb = column (fun g -> g.Cs.b) in
  let wc = column (fun g -> g.Cs.c) in

  (* ---- Round 1: blinded wire polynomials ---- *)
  let r () = Fr.random st in
  (* Blinding draws run lowest coefficient first. *)
  let blinds k = Array.init k (fun _ -> r ()) in
  let (a4, a_poly), (b4, b_poly), (c4, c_poly), cm_a, cm_b, cm_c =
    Telemetry.with_span "round1.wires" (fun () ->
        let a = blind domain n4 wa (blinds 2) in
        let b = blind domain n4 wb (blinds 2) in
        let c = blind domain n4 wc (blinds 2) in
        let cms =
          Kzg.commit_batch pk.Preprocess.srs [| snd a; snd b; snd c |]
        in
        (a, b, c, cms.(0), cms.(1), cms.(2)))
  in
  Transcript.absorb_g1 tr ~label:"a" cm_a;
  Transcript.absorb_g1 tr ~label:"b" cm_b;
  Transcript.absorb_g1 tr ~label:"c" cm_c;

  (* ---- Round 2: permutation accumulator ---- *)
  let beta = Transcript.challenge_fr tr ~label:"beta" in
  let gamma = Transcript.challenge_fr tr ~label:"gamma" in
  let z4, z_poly, cm_z =
    Telemetry.with_span "round2.permutation" @@ fun () ->
    let z = grand_product pk ~wa ~wb ~wc ~beta ~gamma in
    let z4, z_poly = blind domain n4 z (blinds 3) in
    (z4, z_poly, (Kzg.commit_batch pk.Preprocess.srs [| z_poly |]).(0))
  in
  Transcript.absorb_g1 tr ~label:"z" cm_z;

  (* ---- Round 3: quotient polynomial on the 4n coset ---- *)
  let alpha = Transcript.challenge_fr tr ~label:"alpha" in
  let alpha2 = Fr.sqr alpha in
  let pi_poly, t_lo, t_mid, t_hi, cm_t_lo, cm_t_mid, cm_t_hi =
    Telemetry.with_span "round3.quotient" @@ fun () ->
  List.iter (Domain.coset_fft_buf domain4) [ a4; b4; c4; z4 ];
  let pi_c = Fr.buf_create n in
  Array.iteri (fun i p -> Fr.buf_set pi_c i (Fr.neg p)) publics;
  Domain.ifft_buf domain pi_c;
  let pi_poly = Fr.buf_to_array pi_c in
  let pi4 = Fr.buf_create n4 in
  Fr.buf_blit pi_c 0 pi4 0 n;
  Domain.coset_fft_buf domain4 pi4;
  let t4 = Fr.buf_create n4 in
  quotient_evals pk ~a4 ~b4 ~c4 ~z4 ~pi4 ~beta ~gamma ~alpha t4;
  Domain.coset_ifft_buf domain4 t4;
  (* Degree sanity: t has degree <= 3n + 5. *)
  for i = (3 * n) + 6 to n4 - 1 do
    assert (Fr.buf_is_zero t4 i)
  done;
  let slice lo len = Array.init len (fun i -> Fr.buf_get t4 (lo + i)) in
  let b10 = r () and b11 = r () in
  let t_lo = slice 0 (n + 1) and t_mid = slice n (n + 1)
  and t_hi = slice (2 * n) (n4 - (2 * n)) in
  t_lo.(n) <- b10;
  t_mid.(0) <- Fr.sub t_mid.(0) b10;
  t_mid.(n) <- b11;
  t_hi.(0) <- Fr.sub t_hi.(0) b11;
  let cm_ts = Kzg.commit_batch pk.Preprocess.srs [| t_lo; t_mid; t_hi |] in
  (pi_poly, t_lo, t_mid, t_hi, cm_ts.(0), cm_ts.(1), cm_ts.(2))
  in
  Transcript.absorb_g1 tr ~label:"t_lo" cm_t_lo;
  Transcript.absorb_g1 tr ~label:"t_mid" cm_t_mid;
  Transcript.absorb_g1 tr ~label:"t_hi" cm_t_hi;

  (* ---- Round 4: evaluations at zeta ---- *)
  let k1 = pk.Preprocess.k1 and k2 = pk.Preprocess.k2 in
  let zeta = Transcript.challenge_fr tr ~label:"zeta" in
  let eval_a, eval_b, eval_c, eval_s1, eval_s2, zeta_omega, eval_z_omega =
    Telemetry.with_span "round4.evaluations" (fun () ->
        let ev p = Poly.eval p zeta in
        let eval_a = ev a_poly
        and eval_b = ev b_poly
        and eval_c = ev c_poly
        and eval_s1 = ev pk.Preprocess.sigma1
        and eval_s2 = ev pk.Preprocess.sigma2 in
        let zeta_omega = Fr.mul zeta (Domain.omega domain) in
        let eval_z_omega = Poly.eval z_poly zeta_omega in
        (eval_a, eval_b, eval_c, eval_s1, eval_s2, zeta_omega, eval_z_omega))
  in
  Transcript.absorb_fr tr ~label:"ea" eval_a;
  Transcript.absorb_fr tr ~label:"eb" eval_b;
  Transcript.absorb_fr tr ~label:"ec" eval_c;
  Transcript.absorb_fr tr ~label:"es1" eval_s1;
  Transcript.absorb_fr tr ~label:"es2" eval_s2;
  Transcript.absorb_fr tr ~label:"ezw" eval_z_omega;

  (* ---- Round 5: linearization and opening proofs ---- *)
  let v = Transcript.challenge_fr tr ~label:"v" in
  let cm_w_zeta, cm_w_zeta_omega =
    Telemetry.with_span "round5.openings" @@ fun () ->
  let pi_zeta = Poly.eval pi_poly zeta in
  let zh_zeta = Domain.vanishing_eval domain zeta in
  let l1_zeta = Domain.lagrange_eval domain 0 zeta in
  let zeta_n = Fr.pow zeta n in
  let zeta_2n = Fr.sqr zeta_n in
  let scale = Poly.scale in
  let perm_z_coeff =
    (* alpha (a+bz+g)(b+b k1 z+g)(c+b k2 z+g) + alpha^2 L1(zeta) *)
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
    (* -alpha (a+b s1+g)(b+b s2+g) beta z_omega *)
    Fr.neg
      (Fr.mul alpha
         (Fr.mul
            (Fr.mul
               (Fr.add (Fr.add eval_a (Fr.mul beta eval_s1)) gamma)
               (Fr.add (Fr.add eval_b (Fr.mul beta eval_s2)) gamma))
            (Fr.mul beta eval_z_omega)))
  in
  let r_const =
    (* PI(z) - alpha^2 L1(z) - alpha (a+b s1+g)(b+b s2+g)(c+g) z_omega *)
    Fr.sub
      (Fr.sub pi_zeta (Fr.mul alpha2 l1_zeta))
      (Fr.mul alpha
         (Fr.mul
            (Fr.mul
               (Fr.add (Fr.add eval_a (Fr.mul beta eval_s1)) gamma)
               (Fr.add (Fr.add eval_b (Fr.mul beta eval_s2)) gamma))
            (Fr.mul (Fr.add eval_c gamma) eval_z_omega)))
  in
  let r_poly =
    List.fold_left Poly.add Poly.zero
      [ scale (Fr.mul eval_a eval_b) pk.Preprocess.qm;
        scale eval_a pk.Preprocess.ql;
        scale eval_b pk.Preprocess.qr;
        scale eval_c pk.Preprocess.qo;
        pk.Preprocess.qc;
        scale perm_z_coeff z_poly;
        scale perm_s3_coeff pk.Preprocess.sigma3;
        Poly.neg
          (scale zh_zeta
             (List.fold_left Poly.add Poly.zero
                [ t_lo; scale zeta_n t_mid; scale zeta_2n t_hi ]));
        Poly.constant r_const ]
  in
  (* Sanity: the linearization must vanish at zeta. *)
  assert (Fr.is_zero (Poly.eval r_poly zeta));
  let w_zeta_num =
    List.fold_left
      (fun (acc, vp) (p, y) ->
        (Poly.add acc (scale vp (Poly.sub p (Poly.constant y))), Fr.mul vp v))
      (r_poly, v)
      [ (a_poly, eval_a); (b_poly, eval_b); (c_poly, eval_c);
        (pk.Preprocess.sigma1, eval_s1); (pk.Preprocess.sigma2, eval_s2) ]
    |> fst
  in
  let w_zeta = Poly.div_by_linear w_zeta_num zeta in
  let w_zeta_omega =
    Poly.div_by_linear (Poly.sub z_poly (Poly.constant eval_z_omega)) zeta_omega
  in
  let cm_ws = Kzg.commit_batch pk.Preprocess.srs [| w_zeta; w_zeta_omega |] in
  (cm_ws.(0), cm_ws.(1))
  in
  let proof =
    {
      Proof.cm_a;
      cm_b;
      cm_c;
      cm_z;
      cm_t_lo;
      cm_t_mid;
      cm_t_hi;
      cm_w_zeta;
      cm_w_zeta_omega;
      eval_a;
      eval_b;
      eval_c;
      eval_s1;
      eval_s2;
      eval_z_omega;
    }
  in
  if Obs.is_enabled () then
    Obs.emit
      (Zkdet_obs.Event.Proof_generated
         {
           system = "plonk";
           constraints = Cs.num_gates circuit;
           proof_bytes = Proof.size_bytes proof;
         });
  proof
