(* Generators for every layer of the proving stack: field elements biased
   toward the edge values where arithmetic bugs live, curve points
   including infinity and invalid candidates, random well-formed
   constraint systems (as shrinkable descriptions, synthesized through the
   same builder API the protocols use), and Merkle instances. *)

module Nat = Zkdet_num.Nat
module Fr = Zkdet_field.Bn254.Fr
module Fp = Zkdet_field.Bn254.Fp
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Cs = Zkdet_plonk.Cs
module Merkle = Zkdet_circuit.Merkle

(* A generator with no meaningful shrink: a single draw from the stream. *)
let draw f : 'a Gen.t = fun rng -> Gen.Node (f rng, Seq.empty)

(* ---- field elements ---- *)

(* The values modular arithmetic gets wrong first: 0, 1, -1 (= p-1), the
   neighbourhood of the modulus, the boundaries of the four 64-bit limbs
   (2^64 - 1, 2^64, 2^128 - 1, 2^128, 2^192: a carry crosses a limb
   there), the top bits, and a maximal-order root of unity. *)
let fr_edge_cases =
  let p2 k = Fr.pow (Fr.of_int 2) k in
  [ Fr.zero; Fr.one; Fr.of_int 2; Fr.neg Fr.one; Fr.neg (Fr.of_int 2);
    Fr.inv (Fr.of_int 2);
    Fr.sub (p2 64) Fr.one; p2 64; Fr.sub (p2 128) Fr.one; p2 128; p2 192;
    p2 253; p2 254;
    Fr.of_nat (Nat.sub Fr.modulus Nat.one);
    Fr.root_of_unity ~log2size:Fr.two_adicity;
    Fr.root_of_unity ~log2size:1 ]

let fp_edge_cases =
  let p2 k = Fp.pow (Fp.of_int 2) k in
  [ Fp.zero; Fp.one; Fp.of_int 2; Fp.neg Fp.one; Fp.inv (Fp.of_int 3);
    Fp.sub (p2 64) Fp.one; p2 64; Fp.sub (p2 128) Fp.one; p2 128; p2 192;
    p2 253; p2 254;
    Fp.of_nat (Nat.sub Fp.modulus Nat.one) ]

let fr : Fr.t Gen.t =
  Gen.frequency
    [ (4, Gen.oneof_const fr_edge_cases);
      (3, Gen.map Fr.of_int (Gen.int_origin ~origin:0 (-100) 1000));
      (3, draw (fun rng -> Fr.random (Rng.to_random_state rng))) ]

let fr_nonzero : Fr.t Gen.t = Gen.such_that (fun x -> not (Fr.is_zero x)) fr

let fq : Fp.t Gen.t =
  Gen.frequency
    [ (4, Gen.oneof_const fp_edge_cases);
      (3, Gen.map Fp.of_int (Gen.int_origin ~origin:0 (-100) 1000));
      (3, draw (fun rng -> Fp.random (Rng.to_random_state rng))) ]

(* ---- curve points ---- *)

(* Valid group elements, with the special points over-represented:
   infinity, the generator, small multiples (whose group-law corner cases
   are reachable by shrinking), 2-torsion-style doublings and negations,
   and uniform points. *)
let g1 : G1.t Gen.t =
  Gen.frequency
    [ (2, Gen.return G1.zero);
      (2, Gen.return G1.generator);
      (1, Gen.return (G1.neg G1.generator));
      (3, Gen.map (G1.mul_int G1.generator) (Gen.int_origin ~origin:0 (-8) 64));
      (2, draw (fun rng -> G1.random (Rng.to_random_state rng))) ]

let g2 : G2.t Gen.t =
  Gen.frequency
    [ (2, Gen.return G2.zero);
      (2, Gen.return G2.generator);
      (1, Gen.return (G2.neg G2.generator));
      (3, Gen.map (G2.mul_int G2.generator) (Gen.int_origin ~origin:0 (-8) 64));
      (2, draw (fun rng -> G2.random (Rng.to_random_state rng))) ]

(* Raw affine candidates for validation paths: mostly NOT on the curve
   (random coordinate pairs miss it with probability ~1/2 per x), with
   genuine curve points mixed in. Deserializers and [of_affine] must
   accept exactly the valid ones. *)
let g1_raw_candidate : (Fp.t * Fp.t) Gen.t =
  Gen.frequency
    [ (3, Gen.pair fq fq);
      (1,
       Gen.map
         (fun p ->
           match G1.to_affine p with
           | Some xy -> xy
           | None -> (Fp.zero, Fp.zero) (* infinity has no affine form *))
         g1) ]

(* ---- constraint systems ---- *)

(* A circuit is generated as a first-class description and synthesized
   through the builder, so shrinking removes ops (and the rebuild stays
   well-formed by construction: wire references are taken modulo the live
   wire count, and witness values are derived, never asserted blindly). *)
type cs_op =
  | Add of int * int
  | Sub of int * int
  | Mul of int * int
  | Affine of int * int * int * int * int  (** sa, wa, sb, wb, const *)
  | Const of int
  | Assert_eq_dup of int
      (** duplicate wire [i] through an affine gate, assert equality *)
  | Assert_mul of int * int  (** c := a*b, then a redundant mul assert *)
  | Assert_bool of bool  (** a fresh 0/1 witness with a boolean gate *)

type circuit_desc = {
  publics : int list;  (** small public-input values, >= 1 *)
  witnesses : int list;  (** free witness wires *)
  ops : cs_op list;  (** >= 1 *)
}

let pp_op = function
  | Add (i, j) -> Printf.sprintf "add w%d w%d" i j
  | Sub (i, j) -> Printf.sprintf "sub w%d w%d" i j
  | Mul (i, j) -> Printf.sprintf "mul w%d w%d" i j
  | Affine (sa, i, sb, j, k) -> Printf.sprintf "affine %d*w%d + %d*w%d + %d" sa i sb j k
  | Const k -> Printf.sprintf "const %d" k
  | Assert_eq_dup i -> Printf.sprintf "assert_eq_dup w%d" i
  | Assert_mul (i, j) -> Printf.sprintf "assert_mul w%d w%d" i j
  | Assert_bool b -> Printf.sprintf "assert_bool %b" b

let pp_circuit_desc (d : circuit_desc) =
  Printf.sprintf "{ publics = [%s]; witnesses = [%s];\n    %s }"
    (String.concat "; " (List.map string_of_int d.publics))
    (String.concat "; " (List.map string_of_int d.witnesses))
    (String.concat ";\n    " (List.map pp_op d.ops))

(** Synthesize the description. Returns the builder plus the output wire
    of the last arithmetic gate — a wire that carries a [qO = -1] gate
    whose output is a fresh variable, i.e. a sound target for
    witness-mutation tests. *)
let build_circuit (d : circuit_desc) : Cs.t * Cs.wire option =
  let cs = Cs.create () in
  let wires = ref [] and nwires = ref 0 in
  let push w =
    wires := w :: !wires;
    incr nwires
  in
  let wire i = List.nth !wires (!nwires - 1 - (abs i mod !nwires)) in
  List.iter (fun v -> push (Cs.public_input cs (Fr.of_int v))) d.publics;
  List.iter (fun v -> push (Cs.fresh cs (Fr.of_int v))) d.witnesses;
  if !nwires = 0 then push (Cs.public_input cs Fr.one);
  let last_out = ref None in
  let out w =
    last_out := Some w;
    push w
  in
  List.iter
    (fun op ->
      match op with
      | Add (i, j) -> out (Cs.add cs (wire i) (wire j))
      | Sub (i, j) -> out (Cs.sub cs (wire i) (wire j))
      | Mul (i, j) -> out (Cs.mul cs (wire i) (wire j))
      | Affine (sa, i, sb, j, k) ->
        out
          (Cs.affine cs ~sa:(Fr.of_int sa) (wire i) ~sb:(Fr.of_int sb) (wire j)
             ~const:(Fr.of_int k))
      | Const k -> push (Cs.constant cs (Fr.of_int k))
      | Assert_eq_dup i ->
        let w = wire i in
        let dup = Cs.affine cs ~sa:Fr.one w ~sb:Fr.zero w ~const:Fr.zero in
        Cs.assert_equal cs dup w;
        last_out := Some dup;
        push dup
      | Assert_mul (i, j) ->
        let a = wire i and b = wire j in
        let c = Cs.mul cs a b in
        Cs.assert_mul cs a b c;
        out c
      | Assert_bool b ->
        let w = Cs.fresh cs (if b then Fr.one else Fr.zero) in
        Cs.assert_boolean cs w;
        push w)
    d.ops;
  (cs, !last_out)

let cs_op : cs_op Gen.t =
  let idx = Gen.int_range 0 7 in
  let small = Gen.int_origin ~origin:0 (-20) 20 in
  Gen.frequency
    [ (3, Gen.map2 (fun i j -> Add (i, j)) idx idx);
      (2, Gen.map2 (fun i j -> Sub (i, j)) idx idx);
      (3, Gen.map2 (fun i j -> Mul (i, j)) idx idx);
      (2,
       Gen.bind (Gen.pair small idx) (fun (sa, i) ->
           Gen.map3 (fun sb j k -> Affine (sa, i, sb, j, k)) small idx small));
      (1, Gen.map (fun k -> Const k) small);
      (1, Gen.map (fun i -> Assert_eq_dup i) idx);
      (2, Gen.map2 (fun i j -> Assert_mul (i, j)) idx idx);
      (1, Gen.map (fun b -> Assert_bool b) Gen.bool) ]

let circuit_desc : circuit_desc Gen.t =
  let values = Gen.int_origin ~origin:0 (-50) 50 in
  Gen.map3
    (fun publics witnesses ops -> { publics; witnesses; ops })
    (Gen.list_size (Gen.int_range 1 3) values)
    (Gen.list_size (Gen.int_range 0 3) values)
    (Gen.list_size (Gen.int_range 1 12) cs_op)

(* ---- Merkle instances ---- *)

type merkle_desc = { depth : int; leaves : Fr.t list; index : int }

let pp_merkle_desc (d : merkle_desc) =
  Printf.sprintf "{ depth = %d; leaves = %d values; index = %d }" d.depth
    (List.length d.leaves) d.index

let merkle_desc : merkle_desc Gen.t =
  Gen.bind (Gen.int_range 1 4) (fun depth ->
      Gen.map2
        (fun leaves index -> { depth; leaves; index })
        (Gen.list_size (Gen.int_range 1 (1 lsl depth)) fr)
        (Gen.int_range 0 ((1 lsl depth) - 1)))

let build_merkle (d : merkle_desc) : Merkle.tree * Merkle.path =
  let tree = Merkle.build ~depth:d.depth (Array.of_list d.leaves) in
  (tree, Merkle.prove_membership tree d.index)
