(* A Plonk proof: exactly 9 G1 elements and 6 scalars, matching the sizes
   the paper reports (§VI-B.3: "9 elements in G1 and 6 in Fp", ~2.4 KB in
   uncompressed affine encoding). *)

module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1

type t = {
  cm_a : G1.t;
  cm_b : G1.t;
  cm_c : G1.t;
  cm_z : G1.t;
  cm_t_lo : G1.t;
  cm_t_mid : G1.t;
  cm_t_hi : G1.t;
  cm_w_zeta : G1.t;
  cm_w_zeta_omega : G1.t;
  eval_a : Fr.t;
  eval_b : Fr.t;
  eval_c : Fr.t;
  eval_s1 : Fr.t;
  eval_s2 : Fr.t;
  eval_z_omega : Fr.t;
}

let g1_points p =
  [ p.cm_a; p.cm_b; p.cm_c; p.cm_z; p.cm_t_lo; p.cm_t_mid; p.cm_t_hi;
    p.cm_w_zeta; p.cm_w_zeta_omega ]

let evaluations p =
  [ p.eval_a; p.eval_b; p.eval_c; p.eval_s1; p.eval_s2; p.eval_z_omega ]

let to_bytes p =
  String.concat ""
    (List.map G1.to_bytes_fixed (g1_points p)
    @ List.map Fr.to_bytes_be (evaluations p))

let size_bytes p = String.length (to_bytes p)

(* Canonical wire format: "ZKPF" envelope, compressed points, strict
   (range-checked, on-curve) decoding. 4 + 2 + 9*33 + 6*32 = 495 bytes. *)
let codec : t Zkdet_codec.Codec.t =
  let open Zkdet_codec.Codec in
  envelope ~magic:"ZKPF" ~version:1
    (conv
       (fun p -> (g1_points p, evaluations p))
       (fun (pts, evs) ->
         match (pts, evs) with
         | ( [ cm_a; cm_b; cm_c; cm_z; cm_t_lo; cm_t_mid; cm_t_hi; cm_w_zeta;
               cm_w_zeta_omega ],
             [ eval_a; eval_b; eval_c; eval_s1; eval_s2; eval_z_omega ] ) ->
           Ok
             { cm_a; cm_b; cm_c; cm_z; cm_t_lo; cm_t_mid; cm_t_hi; cm_w_zeta;
               cm_w_zeta_omega; eval_a; eval_b; eval_c; eval_s1; eval_s2;
               eval_z_omega }
         | _ -> Error "wrong arity")
       (pair (exactly 9 G1.codec) (exactly 6 Fr.codec)))

let wire_encode (p : t) : string = Zkdet_codec.Codec.encode codec p
let wire_decode (s : string) : (t, Zkdet_codec.Codec.error) result =
  Zkdet_codec.Codec.decode codec s
