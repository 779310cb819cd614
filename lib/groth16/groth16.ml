(* Groth16 (EUROCRYPT 2016) — the proving system behind the ZKCP revisited
   protocol the paper benchmarks against ([10], §VII). Implemented over the
   same BN254 arithmetic as Plonk so Figure 7's comparison runs the real
   comparator: 3 G1 + 1 G2 proof elements, but a verifier that pays one G1
   exponentiation per public input, and a circuit-specific trusted setup.

   Circuits come from the same {!Zkdet_plonk.Cs} builder through a
   gate-to-R1CS conversion: a Plonk row
       qM a b + qL a + qR b + qO c + qC = 0
   becomes the rank-1 row  (qM a) * (b) = -(qL a + qR b + qO c + qC).
   Public-input rows are dropped — in R1CS the public wires are part of
   the statement directly. *)

module Nat = Zkdet_num.Nat
module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Pairing = Zkdet_curve.Pairing
module Domain = Zkdet_poly.Domain
module Poly = Zkdet_poly.Poly
module Cs = Zkdet_plonk.Cs
module Transcript = Zkdet_plonk.Transcript
module Telemetry = Zkdet_telemetry.Telemetry

(* ---- R1CS: sparse rows over wires [0 = const one; v+1 = variable v] ---- *)

type r1cs = {
  num_wires : int; (* including the constant-one wire *)
  num_public : int; (* statement wires, constant-one excluded *)
  public_wires : int array; (* wire index per public input *)
  rows_a : (int * Fr.t) list array;
  rows_b : (int * Fr.t) list array;
  rows_c : (int * Fr.t) list array;
}

let of_compiled (c : Cs.compiled) : r1cs =
  let gates = c.Cs.gates_arr in
  let l = c.Cs.n_public in
  let m = Array.length gates - l in
  let rows_a = Array.make m [] in
  let rows_b = Array.make m [] in
  let rows_c = Array.make m [] in
  let add_term row wire coeff acc =
    if Fr.is_zero coeff then acc.(row)
    else begin
      (* accumulate on repeated wires *)
      let rec insert = function
        | [] -> [ (wire, coeff) ]
        | (w, k) :: rest when w = wire -> (w, Fr.add k coeff) :: rest
        | t :: rest -> t :: insert rest
      in
      insert acc.(row)
    end
  in
  for i = 0 to m - 1 do
    let g = gates.(i + l) in
    let wa = g.Cs.a + 1 and wb = g.Cs.b + 1 and wc = g.Cs.c + 1 in
    if not (Fr.is_zero g.Cs.qm) then begin
      rows_a.(i) <- [ (wa, g.Cs.qm) ];
      rows_b.(i) <- [ (wb, Fr.one) ]
    end;
    rows_c.(i) <- add_term i wa (Fr.neg g.Cs.ql) rows_c;
    rows_c.(i) <- add_term i wb (Fr.neg g.Cs.qr) rows_c;
    rows_c.(i) <- add_term i wc (Fr.neg g.Cs.qo) rows_c;
    rows_c.(i) <- add_term i 0 (Fr.neg g.Cs.qc) rows_c
  done;
  {
    num_wires = c.Cs.n_vars + 1;
    num_public = l;
    public_wires = Array.init l (fun i -> gates.(i).Cs.a + 1);
    rows_a;
    rows_b;
    rows_c;
  }

let full_witness (c : Cs.compiled) : Fr.t array =
  Array.append [| Fr.one |] c.Cs.witness

let row_eval (terms : (int * Fr.t) list) (w : Fr.t array) : Fr.t =
  List.fold_left (fun acc (i, k) -> Fr.add acc (Fr.mul k w.(i))) Fr.zero terms

(** Direct R1CS satisfaction check (test oracle). *)
let satisfied (r : r1cs) (w : Fr.t array) : bool =
  let ok = ref true in
  for i = 0 to Array.length r.rows_a - 1 do
    let a = row_eval r.rows_a.(i) w in
    let b = row_eval r.rows_b.(i) w in
    let c = row_eval r.rows_c.(i) w in
    if not (Fr.equal (Fr.mul a b) c) then ok := false
  done;
  !ok

(* ---- trusted setup (circuit-specific: the Groth16 drawback §VII notes) ---- *)

type proving_key = {
  pk_r1cs : r1cs;
  domain : Domain.t;
  alpha_g1 : G1.t;
  beta_g1 : G1.t;
  beta_g2 : G2.t;
  delta_g1 : G1.t;
  delta_g2 : G2.t;
  a_query : G1.t array; (* [u_i(x)]1 per wire *)
  b_query_g1 : G1.t array; (* [v_i(x)]1 *)
  b_query_g2 : G2.t array; (* [v_i(x)]2 *)
  k_query : G1.t array; (* [(beta u_i + alpha v_i + w_i)/delta]1, private wires;
                           zero entries at public positions *)
  h_query : G1.t array; (* [x^i Z(x)/delta]1 *)
  vk : verification_key;
}

and verification_key = {
  vk_alpha_g1 : G1.t;
  vk_beta_g2 : G2.t;
  vk_gamma_g2 : G2.t;
  vk_delta_g2 : G2.t;
  vk_ic : G1.t array; (* [(beta u_i + alpha v_i + w_i)/gamma]1:
                         index 0 = constant wire, then public wires *)
}

let next_pow2_log x =
  let rec go k = if 1 lsl k >= x then k else go (k + 1) in
  go 0

(* Evaluate the QAP polynomials u_i, v_i, w_i at the secret point x:
   u_i(X) = sum_rows A[row][i] L_row(X), so u_i(x) accumulates
   A[row][i] * L_row(x) — computed wire-indexed from the sparse rows. *)
let qap_at_x (r : r1cs) (domain : Domain.t) (x : Fr.t) :
    Fr.t array * Fr.t array * Fr.t array =
  let m = Domain.size domain in
  (* all Lagrange evaluations at once: L_row(x) = w^row (x^m - 1) /
     (m (x - w^row)), with one batched inversion *)
  let omegas = Domain.elements domain in
  let zh = Domain.vanishing_eval domain x in
  let m_fr = Fr.of_int m in
  let dens = Array.map (fun w -> Fr.mul m_fr (Fr.sub x w)) omegas in
  let den_invs = Fr.batch_inv dens in
  let lag =
    Array.init m (fun row -> Fr.mul (Fr.mul omegas.(row) zh) den_invs.(row))
  in
  let u = Array.make r.num_wires Fr.zero in
  let v = Array.make r.num_wires Fr.zero in
  let w = Array.make r.num_wires Fr.zero in
  let accumulate target rows =
    Array.iteri
      (fun row terms ->
        List.iter
          (fun (wire, k) ->
            target.(wire) <- Fr.add target.(wire) (Fr.mul k lag.(row)))
          terms)
      rows
  in
  accumulate u r.rows_a;
  accumulate v r.rows_b;
  accumulate w r.rows_c;
  (u, v, w)

(** Circuit-specific trusted setup. The toxic waste (x, alpha, beta,
    gamma, delta) is sampled and dropped — unlike Plonk's universal SRS,
    this must be redone for every circuit (the limitation of [10] that
    §VII calls out). *)
let setup ?(st = Random.State.make_self_init ()) (compiled : Cs.compiled) :
    proving_key =
  let r = of_compiled compiled in
  let m = Array.length r.rows_a in
  let domain = Domain.create (max 1 (next_pow2_log (max m 2))) in
  let x = Fr.random st in
  (* x inside the domain would leak Z(x) = 0; resample (negligible). *)
  let x = if Fr.is_zero (Domain.vanishing_eval domain x) then Fr.add x Fr.one else x in
  let alpha = Fr.random st in
  let beta = Fr.random st in
  let gamma = Fr.random st in
  let delta = Fr.random st in
  let u, v, w = qap_at_x r domain x in
  let gamma_inv = Fr.inv gamma and delta_inv = Fr.inv delta in
  let z_x = Domain.vanishing_eval domain x in
  let g1 = G1.Fixed_base.create G1.generator in
  let mul1 = G1.Fixed_base.mul g1 in
  let g2t = G2.Fixed_base.create G2.generator in
  let mul2 = G2.Fixed_base.mul g2t in
  let is_public =
    let tbl = Array.make r.num_wires false in
    tbl.(0) <- true;
    Array.iter (fun wdx -> tbl.(wdx) <- true) r.public_wires;
    tbl
  in
  let k_coeff i = Fr.add (Fr.add (Fr.mul beta u.(i)) (Fr.mul alpha v.(i))) w.(i) in
  let a_query = Array.map mul1 u in
  let b_query_g1 = Array.map mul1 v in
  let b_query_g2 = Array.map mul2 v in
  let k_query =
    Array.init r.num_wires (fun i ->
        if is_public.(i) then G1.zero
        else mul1 (Fr.mul (k_coeff i) delta_inv))
  in
  let h_query =
    (* explicit loop: the power accumulator must advance in index order *)
    let arr = Array.make (Domain.size domain - 1) G1.zero in
    let pow = ref Fr.one in
    for i = 0 to Array.length arr - 1 do
      arr.(i) <- mul1 (Fr.mul (Fr.mul !pow z_x) delta_inv);
      pow := Fr.mul !pow x
    done;
    arr
  in
  let vk_ic =
    Array.init (r.num_public + 1) (fun i ->
        let wire = if i = 0 then 0 else r.public_wires.(i - 1) in
        mul1 (Fr.mul (k_coeff wire) gamma_inv))
  in
  {
    pk_r1cs = r;
    domain;
    alpha_g1 = mul1 alpha;
    beta_g1 = mul1 beta;
    beta_g2 = G2.mul G2.generator beta;
    delta_g1 = mul1 delta;
    delta_g2 = G2.mul G2.generator delta;
    a_query;
    b_query_g1;
    b_query_g2;
    k_query;
    h_query;
    vk =
      {
        vk_alpha_g1 = mul1 alpha;
        vk_beta_g2 = G2.mul G2.generator beta;
        vk_gamma_g2 = G2.mul G2.generator gamma;
        vk_delta_g2 = G2.mul G2.generator delta;
        vk_ic;
      };
  }

(* ---- proof ---- *)

type proof = { pi_a : G1.t; pi_b : G2.t; pi_c : G1.t }

(* Canonical wire format: "ZGPF" envelope, compressed points.
   4 + 2 + 33 + 65 + 33 = 137 bytes. *)
let proof_codec : proof Zkdet_codec.Codec.t =
  let open Zkdet_codec.Codec in
  envelope ~magic:"ZGPF" ~version:1
    (conv
       (fun p -> (p.pi_a, p.pi_b, p.pi_c))
       (fun (pi_a, pi_b, pi_c) -> Ok { pi_a; pi_b; pi_c })
       (triple G1.codec G2.codec G1.codec))

let proof_to_bytes (p : proof) : string = Zkdet_codec.Codec.encode proof_codec p

let proof_of_bytes (s : string) : (proof, Zkdet_codec.Codec.error) result =
  Zkdet_codec.Codec.decode proof_codec s

let proof_size_bytes (p : proof) = String.length (proof_to_bytes p)

(* "ZGVK" envelope: alpha, beta, gamma, delta and the per-public-input IC
   points (count-prefixed; verification needs at least the constant-one
   entry). *)
let vk_codec : verification_key Zkdet_codec.Codec.t =
  let open Zkdet_codec.Codec in
  envelope ~magic:"ZGVK" ~version:1
    (conv
       (fun vk ->
         ( vk.vk_alpha_g1, vk.vk_beta_g2, vk.vk_gamma_g2,
           (vk.vk_delta_g2, vk.vk_ic) ))
       (fun (vk_alpha_g1, vk_beta_g2, vk_gamma_g2, (vk_delta_g2, vk_ic)) ->
         if Array.length vk_ic = 0 then Error "empty IC table"
         else Ok { vk_alpha_g1; vk_beta_g2; vk_gamma_g2; vk_delta_g2; vk_ic })
       (quad G1.codec G2.codec G2.codec (pair G2.codec (array G1.codec))))

let vk_to_bytes (vk : verification_key) : string =
  Zkdet_codec.Codec.encode vk_codec vk

let vk_of_bytes (s : string) :
    (verification_key, Zkdet_codec.Codec.error) result =
  Zkdet_codec.Codec.decode vk_codec s

(* The quotient h(X) = (U V - W)/Z in coefficient form, via a 2m coset. *)
let quotient (r : r1cs) (domain : Domain.t) (wit : Fr.t array) : Poly.t =
  let m = Domain.size domain in
  let domain2 = Domain.create (Domain.log2size domain + 1) in
  let n2 = Domain.size domain2 in
  (* One column's row evaluations on H (rows are padded with trivial
     0*0=0 constraints), interpolated and evaluated on the 2m coset. *)
  let coset_evals rows =
    let e = Fr.buf_create m in
    for i = 0 to min m (Array.length r.rows_a) - 1 do
      Fr.buf_set e i (row_eval rows.(i) wit)
    done;
    Domain.ifft_buf domain e;
    let c = Fr.buf_create n2 in
    Fr.buf_blit e 0 c 0 m;
    c
  in
  let u2 = coset_evals r.rows_a in
  let v2 = coset_evals r.rows_b in
  let w2 = coset_evals r.rows_c in
  List.iter (Domain.coset_fft_buf domain2) [ u2; v2; w2 ];
  (* Z_H(g w2^i) = g^m (w2^m)^i - 1 has period 2 on the coset. *)
  let g_m = Fr.pow (Domain.shift domain2) m in
  let w2_m = Fr.pow (Domain.omega domain2) m in
  let z_inv =
    Fr.buf_of_array
      [| Fr.inv (Fr.sub g_m Fr.one); Fr.inv (Fr.sub (Fr.mul g_m w2_m) Fr.one) |]
  in
  for i = 0 to n2 - 1 do
    Fr.buf_mul u2 i u2 i v2 i;
    Fr.buf_sub u2 i u2 i w2 i;
    Fr.buf_mul u2 i u2 i z_inv (i land 1)
  done;
  Domain.coset_ifft_buf domain2 u2;
  (* degree <= m - 2 *)
  Array.init (max 1 (m - 1)) (Fr.buf_get u2)

let prove ?(st = Random.State.make_self_init ()) (pk : proving_key)
    (compiled : Cs.compiled) : proof =
  if not (Cs.satisfied compiled) then
    invalid_arg "Groth16.prove: witness does not satisfy the circuit";
  let r = pk.pk_r1cs in
  let wit = full_witness compiled in
  assert (satisfied r wit);
  let h = quotient r pk.domain wit in
  let rr = Fr.random st and ss = Fr.random st in
  (* A = alpha + sum a_i [u_i] + r delta *)
  let sum_a = G1.msm pk.a_query wit in
  let pi_a = G1.add (G1.add pk.alpha_g1 sum_a) (G1.mul pk.delta_g1 rr) in
  (* B (G2) = beta + sum a_i [v_i] + s delta; also its G1 mirror *)
  let sum_b2 = G2.msm pk.b_query_g2 wit in
  let pi_b = G2.add (G2.add pk.beta_g2 sum_b2) (G2.mul pk.delta_g2 ss) in
  let sum_b1 = G1.msm pk.b_query_g1 wit in
  let b_g1 = G1.add (G1.add pk.beta_g1 sum_b1) (G1.mul pk.delta_g1 ss) in
  (* C = sum_priv a_i K_i + h(x)Z(x)/delta + sA + rB - rs delta *)
  let sum_k = G1.msm pk.k_query wit in
  let h_coeffs = Array.init (Array.length h) (Poly.coeff h) in
  let h_part =
    G1.msm (Array.sub pk.h_query 0 (Array.length h_coeffs)) h_coeffs
  in
  let pi_c =
    List.fold_left G1.add G1.zero
      [ sum_k; h_part; G1.mul pi_a ss; G1.mul b_g1 rr;
        G1.neg (G1.mul pk.delta_g1 (Fr.mul rr ss)) ]
  in
  let proof = { pi_a; pi_b; pi_c } in
  if Zkdet_obs.Obs.is_enabled () then
    Zkdet_obs.Obs.emit
      (Zkdet_obs.Event.Proof_generated
         {
           system = "groth16";
           constraints = Cs.num_gates compiled;
           proof_bytes = proof_size_bytes proof;
         });
  proof

(* IC(x) = IC_0 + sum_i publics_i IC_{i+1}; None on a statement-arity
   mismatch (a structural rejection). *)
let ic_of_publics (vk : verification_key) (publics : Fr.t array) : G1.t option =
  if Array.length publics + 1 <> Array.length vk.vk_ic then None
  else
    Some
      (G1.add vk.vk_ic.(0)
         (G1.msm (Array.sub vk.vk_ic 1 (Array.length publics)) publics))

(** Verification: e(A, B) = e(alpha, beta) e(IC(x), gamma) e(C, delta) —
    3 pairing factors plus ONE G1 exponentiation per public input (the
    cost §VI-B.3 contrasts with Plonk's input-independent verifier). *)
let verify (vk : verification_key) (publics : Fr.t array) (proof : proof) : bool
    =
  let ok =
    match ic_of_publics vk publics with
    | None -> false
    | Some ic ->
      Pairing.pairing_check
        [ (proof.pi_a, proof.pi_b);
          (G1.neg vk.vk_alpha_g1, vk.vk_beta_g2);
          (G1.neg ic, vk.vk_gamma_g2);
          (G1.neg proof.pi_c, vk.vk_delta_g2) ]
  in
  if Zkdet_obs.Obs.is_enabled () then
    Zkdet_obs.Obs.emit
      (Zkdet_obs.Event.Proof_verified { system = "groth16"; ok });
  ok

(* ---- batch verification: random linear combination of pairing checks ---- *)

let batch_scalars (items : (verification_key * Fr.t array * proof) list) :
    Fr.t list =
  let vk_bytes_cache = ref [] in
  let vk_bytes vk =
    match List.assq_opt vk !vk_bytes_cache with
    | Some b -> b
    | None ->
      let b = vk_to_bytes vk in
      vk_bytes_cache := (vk, b) :: !vk_bytes_cache;
      b
  in
  Transcript.batch_challenges ~label:"groth16"
    (List.map
       (fun (vk, publics, proof) ->
         (vk_bytes vk, publics, proof_to_bytes proof))
       items)

(* Per-distinct-vk fold accumulators (mixed-circuit batches). *)
type batch_acc = {
  ic_scalars : Fr.t array;
      (* sum_i rho_i IC_i(publics_i) = <ic_scalars, vk_ic>: slot 0 holds
         sum_i rho_i, slot j + 1 holds sum_i rho_i publics_i(j) *)
  mutable c_terms : (G1.t * Fr.t) list; (* (C_i, rho_i) *)
}

(** RLC batch verification: fold the per-proof equations
    [e(A_i, B_i) e(-alpha, beta) e(-IC_i, gamma) e(-C_i, delta) = 1]
    under the deterministic Fiat–Shamir scalars rho_i of
    {!batch_scalars}:

      prod_i e(rho_i A_i, B_i)
      * prod_vk e(-(sum rho_i) alpha, beta)
                e(-(sum rho_i IC_i), gamma)
                e(-(sum rho_i C_i), delta)  =  1

    — one multi-Miller loop over N + 3·#distinct-vks pairs (N+3 for a
    settlement block under one key) instead of 4N.  Per key, sum rho_i
    IC_i is one MSM over [vk_ic] with the scalars summed per key, and
    sum rho_i C_i is one MSM; only rho_i A_i costs a G1 multiplication
    per proof.  Per-proof scalars are what makes this sound: with a
    single shared scalar a forger could cancel one bad equation against
    another; with independent transcript-derived scalars a batch
    containing any invalid proof survives with probability 1/|Fr|.
    Deterministic at any ZKDET_DOMAINS.  Accepts exactly when every
    proof verifies individually (empty batches accept, singletons
    delegate to {!verify}). *)
let verify_batch (items : (verification_key * Fr.t array * proof) list) : bool =
  match items with
  | [] -> true
  | [ (vk, publics, proof) ] ->
    Telemetry.count "verify.batch_size" 1;
    Telemetry.observe "verify.batch_size" 1.0;
    verify vk publics proof
  | _ ->
    Telemetry.with_span "groth16.verify_batch" @@ fun () ->
    let n = List.length items in
    Telemetry.count "verify.batch_size" n;
    Telemetry.observe "verify.batch_size" (float_of_int n);
    let rhos = batch_scalars items in
    (* Distinct keys are grouped by physical equality: a settlement batch
       reuses one key object; structurally-equal duplicates merely cost an
       extra (still correct) group of fold terms. *)
    let groups : (verification_key * batch_acc) list ref = ref [] in
    let acc_for vk =
      match List.assq_opt vk !groups with
      | Some acc -> acc
      | None ->
        let acc =
          { ic_scalars = Array.make (Array.length vk.vk_ic) Fr.zero; c_terms = [] }
        in
        groups := (vk, acc) :: !groups;
        acc
    in
    let pairs = ref [] in
    let structural_ok =
      List.for_all2
        (fun (vk, publics, proof) rho ->
          Array.length publics + 1 = Array.length vk.vk_ic
          && begin
               let acc = acc_for vk in
               acc.ic_scalars.(0) <- Fr.add acc.ic_scalars.(0) rho;
               Array.iteri
                 (fun j x ->
                   acc.ic_scalars.(j + 1) <-
                     Fr.add acc.ic_scalars.(j + 1) (Fr.mul rho x))
                 publics;
               acc.c_terms <- (proof.pi_c, rho) :: acc.c_terms;
               pairs := (G1.mul proof.pi_a rho, proof.pi_b) :: !pairs;
               true
             end)
        items rhos
    in
    let ok =
      structural_ok
      && Pairing.pairing_check
           (List.rev_append !pairs
              (List.concat_map
                 (fun (vk, acc) ->
                   let cs = Array.of_list acc.c_terms in
                   [ ( G1.neg (G1.mul vk.vk_alpha_g1 acc.ic_scalars.(0)),
                       vk.vk_beta_g2 );
                     (G1.neg (G1.msm vk.vk_ic acc.ic_scalars), vk.vk_gamma_g2);
                     ( G1.neg (G1.msm (Array.map fst cs) (Array.map snd cs)),
                       vk.vk_delta_g2 ) ])
                 !groups))
    in
    if Zkdet_obs.Obs.is_enabled () then
      Zkdet_obs.Obs.emit
        (Zkdet_obs.Event.Proof_verified { system = "groth16"; ok });
    ok
