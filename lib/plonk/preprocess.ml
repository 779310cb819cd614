(* Circuit preprocessing: selector polynomials, the copy-constraint
   permutation polynomials sigma_{1,2,3}, and their commitments. This is the
   circuit-specific (but still transparent) part of the Plonk setup; the
   universal part is the SRS. *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module Poly = Zkdet_poly.Poly
module Domain = Zkdet_poly.Domain
module Srs = Zkdet_kzg.Srs
module Kzg = Zkdet_kzg.Kzg
module Telemetry = Zkdet_telemetry.Telemetry

type proving_key = {
  domain : Domain.t;
  domain4 : Domain.t; (* 4n coset domain for quotient computation *)
  srs : Srs.t;
  n : int;
  n_public : int;
  gates : Cs.gate array; (* padded to n *)
  (* selector polynomials (coefficient form) *)
  ql : Poly.t;
  qr : Poly.t;
  qo : Poly.t;
  qm : Poly.t;
  qc : Poly.t;
  (* permutation *)
  k1 : Fr.t;
  k2 : Fr.t;
  sigma1 : Poly.t;
  sigma2 : Poly.t;
  sigma3 : Poly.t;
  (* permutation maps in evaluation form, for building z(X) *)
  sigma1_evals : Fr.buf;
  sigma2_evals : Fr.buf;
  sigma3_evals : Fr.buf;
  (* coset (4n) evaluations of the fixed polynomials, precomputed once so
     the prover's quotient round does not redo their FFTs per proof *)
  coset_fixed : Fr.buf array; (* ql qr qo qm qc s1 s2 s3 l1 *)
  coset_x : Fr.buf; (* the 4n coset points g w4^i *)
  coset_zh_inv : Fr.buf; (* 1 / Z_H(g w4^i), i < 4: Z_H has period 4 there *)
  vk : verification_key;
}

and verification_key = {
  vk_n : int;
  vk_n_public : int;
  vk_domain : Domain.t;
  vk_k1 : Fr.t;
  vk_k2 : Fr.t;
  cm_ql : G1.t;
  cm_qr : G1.t;
  cm_qo : G1.t;
  cm_qm : G1.t;
  cm_qc : G1.t;
  cm_sigma1 : G1.t;
  cm_sigma2 : G1.t;
  cm_sigma3 : G1.t;
  vk_g2 : Zkdet_curve.G2.t;
  vk_g2_tau : Zkdet_curve.G2.t;
}

(* Canonical wire format for verification keys: "ZKVK" envelope around
   the domain's log2 size (the Domain itself is rebuilt on decode), the
   public-input count, the coset shifts and the ten commitments. *)
let vk_codec : verification_key Zkdet_codec.Codec.t =
  let open Zkdet_codec.Codec in
  let g1 = Zkdet_curve.G1.codec and g2 = Zkdet_curve.G2.codec in
  envelope ~magic:"ZKVK" ~version:1
    (conv
       (fun vk ->
         ( (Domain.log2size vk.vk_domain, vk.vk_n_public, (vk.vk_k1, vk.vk_k2)),
           [ vk.cm_ql; vk.cm_qr; vk.cm_qo; vk.cm_qm; vk.cm_qc; vk.cm_sigma1;
             vk.cm_sigma2; vk.cm_sigma3 ],
           (vk.vk_g2, vk.vk_g2_tau) ))
       (fun ((log2n, vk_n_public, (vk_k1, vk_k2)), cms, (vk_g2, vk_g2_tau)) ->
         if log2n < 2 || log2n > Fr.two_adicity then Error "domain size out of range"
         else
           let vk_n = 1 lsl log2n in
           if vk_n_public > vk_n then Error "more public inputs than gates"
           else
             match cms with
             | [ cm_ql; cm_qr; cm_qo; cm_qm; cm_qc; cm_sigma1; cm_sigma2;
                 cm_sigma3 ] ->
               Ok
                 { vk_n; vk_n_public; vk_domain = Domain.create log2n; vk_k1;
                   vk_k2; cm_ql; cm_qr; cm_qo; cm_qm; cm_qc; cm_sigma1;
                   cm_sigma2; cm_sigma3; vk_g2; vk_g2_tau }
             | _ -> Error "wrong arity")
       (triple
          (triple u8 u32 (pair Fr.codec Fr.codec))
          (exactly 8 g1)
          (pair g2 g2)))

let vk_to_bytes (vk : verification_key) : string =
  Zkdet_codec.Codec.encode vk_codec vk

let vk_of_bytes (s : string) :
    (verification_key, Zkdet_codec.Codec.error) result =
  Zkdet_codec.Codec.decode vk_codec s

let next_pow2 x =
  let rec go k = if 1 lsl k >= x then k else go (k + 1) in
  go 0

let padding_gate : Cs.gate =
  {
    Cs.ql = Fr.zero;
    qr = Fr.zero;
    qo = Fr.zero;
    qm = Fr.zero;
    qc = Fr.zero;
    a = 0;
    b = 0;
    c = 0;
  }

(* Coset identifiers k1, k2 with H, k1 H, k2 H pairwise disjoint. *)
let find_cosets (d : Domain.t) : Fr.t * Fr.t =
  let n = Domain.size d in
  let in_subgroup k = Fr.is_one (Fr.pow k n) in
  let rec find_k1 c =
    let k = Fr.of_int c in
    if in_subgroup k then find_k1 (c + 1) else k
  in
  let k1 = find_k1 2 in
  let rec find_k2 c =
    let k = Fr.of_int c in
    if in_subgroup k || Fr.is_one (Fr.pow (Fr.div k k1) n) then find_k2 (c + 1)
    else k
  in
  (k1, find_k2 3)

(* log2 of the row count [setup] pads a circuit to. *)
let padded_log2 (circuit : Cs.compiled) =
  max 2 (next_pow2 (max (Cs.num_gates circuit) 8))

let padded_size circuit = 1 lsl padded_log2 circuit

(* [n + 6] G1 powers over the padded rows: the blinding headroom. *)
let fits (srs : Srs.t) (circuit : Cs.compiled) =
  Srs.size srs >= padded_size circuit + 6

(** Build the proving key for a compiled circuit over the given SRS.
    Raises [Invalid_argument] unless the circuit {!fits}. *)
let setup (srs : Srs.t) (circuit : Cs.compiled) : proving_key =
  Telemetry.with_span "plonk.preprocess" @@ fun () ->
  if not (fits srs circuit) then invalid_arg "Preprocess.setup: SRS too small";
  let raw_n = Cs.num_gates circuit in
  let log2n = padded_log2 circuit in
  let n = 1 lsl log2n in
  let domain = Domain.create log2n in
  let domain4 = Domain.create (log2n + 2) in
  let gates =
    Array.init n (fun i ->
        if i < raw_n then circuit.Cs.gates_arr.(i) else padding_gate)
  in
  (* Fixed columns are interpolated on H into buffers, which feed the
     coset FFTs below; [poly] copies the coefficients out for the
     commitments and rounds 4-5. *)
  let interpolate evals =
    let c = Fr.buf_of_array evals in
    Domain.ifft_buf domain c;
    c
  in
  let poly = Fr.buf_to_array in
  let selector f = interpolate (Array.map f gates) in
  let ql_c = selector (fun g -> g.Cs.ql) in
  let qr_c = selector (fun g -> g.Cs.qr) in
  let qo_c = selector (fun g -> g.Cs.qo) in
  let qm_c = selector (fun g -> g.Cs.qm) in
  let qc_c = selector (fun g -> g.Cs.qc) in
  let ql = poly ql_c and qr = poly qr_c and qo = poly qo_c
  and qm = poly qm_c and qc = poly qc_c in
  let k1, k2 = find_cosets domain in
  (* Copy constraints: for every variable, the positions (col,row) holding
     it form one cycle. sigma maps each position to the next position of
     the same variable; fixed points for variables used once. *)
  let omegas = Domain.elements domain in
  let id_value col row =
    match col with
    | 0 -> omegas.(row)
    | 1 -> Fr.mul k1 omegas.(row)
    | _ -> Fr.mul k2 omegas.(row)
  in
  let positions : (int * int) list array = Array.make circuit.Cs.n_vars [] in
  for row = n - 1 downto 0 do
    let g = gates.(row) in
    positions.(g.Cs.a) <- (0, row) :: positions.(g.Cs.a);
    positions.(g.Cs.b) <- (1, row) :: positions.(g.Cs.b);
    positions.(g.Cs.c) <- (2, row) :: positions.(g.Cs.c)
  done;
  let sigma_evals = Array.init 3 (fun col ->
      Array.init n (fun row -> id_value col row))
  in
  Array.iter
    (fun poss ->
      match poss with
      | [] | [ _ ] -> () (* unused or single-use variable: identity *)
      | first :: _ ->
        (* cycle: position i maps to position i+1, last maps to first *)
        let rec link = function
          | [] -> ()
          | [ (col, row) ] ->
            let fc, fr_ = first in
            sigma_evals.(col).(row) <- id_value fc fr_
          | (col, row) :: ((ncol, nrow) :: _ as rest) ->
            sigma_evals.(col).(row) <- id_value ncol nrow;
            link rest
        in
        link poss)
    positions;
  let sigma1_evals = Fr.buf_of_array sigma_evals.(0)
  and sigma2_evals = Fr.buf_of_array sigma_evals.(1)
  and sigma3_evals = Fr.buf_of_array sigma_evals.(2) in
  let sigma1_c = interpolate sigma_evals.(0) in
  let sigma2_c = interpolate sigma_evals.(1) in
  let sigma3_c = interpolate sigma_evals.(2) in
  let sigma1 = poly sigma1_c and sigma2 = poly sigma2_c
  and sigma3 = poly sigma3_c in
  (* Stored with z = 1: every verify's transcript encodes them. *)
  let cms =
    G1.batch_normalize
      (Kzg.commit_batch srs [| ql; qr; qo; qm; qc; sigma1; sigma2; sigma3 |])
  in
  let vk =
    {
      vk_n = n;
      vk_n_public = circuit.Cs.n_public;
      vk_domain = domain;
      vk_k1 = k1;
      vk_k2 = k2;
      cm_ql = cms.(0);
      cm_qr = cms.(1);
      cm_qo = cms.(2);
      cm_qm = cms.(3);
      cm_qc = cms.(4);
      cm_sigma1 = cms.(5);
      cm_sigma2 = cms.(6);
      cm_sigma3 = cms.(7);
      vk_g2 = srs.Srs.g2;
      vk_g2_tau = srs.Srs.g2_tau;
    }
  in
  let l1_c =
    interpolate (Array.init n (fun i -> if i = 0 then Fr.one else Fr.zero))
  in
  let n4 = Domain.size domain4 in
  let coset_fixed =
    Array.map
      (fun c ->
        let b = Fr.buf_create n4 in
        Fr.buf_blit c 0 b 0 n;
        Domain.coset_fft_buf domain4 b;
        b)
      [| ql_c; qr_c; qo_c; qm_c; qc_c; sigma1_c; sigma2_c; sigma3_c; l1_c |]
  in
  (* x = g w4^i on the coset, and Z_H(x) = g^n (w4^n)^i - 1, which
     repeats with period 4 because w4^n has order 4. *)
  let g = Domain.shift domain4 and w4 = Domain.omega domain4 in
  let coset_x =
    Fr.buf_of_array (Array.map (Fr.mul g) (Domain.elements domain4))
  in
  let coset_zh_inv =
    let g_n = Fr.pow g n and w4_n = Fr.pow w4 n in
    Fr.buf_of_array
      (Array.init 4 (fun i ->
           Fr.inv (Fr.sub (Fr.mul g_n (Fr.pow w4_n i)) Fr.one)))
  in
  {
    domain;
    domain4;
    srs;
    n;
    n_public = circuit.Cs.n_public;
    gates;
    ql;
    qr;
    qo;
    qm;
    qc;
    k1;
    k2;
    sigma1;
    sigma2;
    sigma3;
    sigma1_evals;
    sigma2_evals;
    sigma3_evals;
    coset_fixed;
    coset_x;
    coset_zh_inv;
    vk;
  }
