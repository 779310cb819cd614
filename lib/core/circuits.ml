(* The protocol circuits of ZKDET (paper §IV): proofs of encryption pi_e,
   proofs of transformation pi_t for the four fundamental formulae, the
   data-validation proof pi_p, the key-negotiation proof pi_k, and the
   ZKCP baseline's proof (§III-C).

   Public-input layouts are fixed per circuit family and mirrored by the
   [*_publics] helpers so prover and verifier agree byte-for-byte.  A
   [statement] names the circuit a proof is about: it keys the proving-key
   cache ({!Env}) and builds the circuit that sets that key up. *)

module Fr = Zkdet_field.Bn254.Fr
module Cs = Zkdet_plonk.Cs
module Gadgets = Zkdet_circuit.Gadgets
module Mimc_gadget = Zkdet_circuit.Mimc_gadget
module Poseidon_gadget = Zkdet_circuit.Poseidon_gadget
module Mimc = Zkdet_mimc.Mimc
module Poseidon = Zkdet_poseidon.Poseidon

(* ---- dataset commitments (out-of-circuit side) ---- *)

let commit_dataset (data : Fr.t array) (o : Fr.t) : Fr.t =
  Poseidon.Commitment.commit_with (Array.to_list data) o

let commit_key (key : Fr.t) (o : Fr.t) : Fr.t =
  Poseidon.Commitment.commit_with [ key ] o

(* In-circuit commitment opening for a dataset of wires. *)
let assert_dataset_opens cs ~commitment (data : Cs.wire array) ~opening =
  Poseidon_gadget.assert_commitment_opens cs ~commitment
    (Array.to_list data) ~opening

(* ---- public predicates phi (paper §III-C / §IV-F) ---- *)

type predicate =
  | Trivial  (** no condition beyond well-formedness *)
  | Entries_bounded of int  (** every entry fits in [n] bits *)
  | Sum_equals of Fr.t  (** dataset entries sum to a public value *)

(** Public inputs contributed by the predicate (value parameters only;
    structural parameters live in the statement's cache key). *)
let predicate_publics = function
  | Trivial | Entries_bounded _ -> []
  | Sum_equals s -> [ s ]

let assert_predicate cs (p : predicate) (pred_publics : Cs.wire list)
    (data : Cs.wire array) : unit =
  match (p, pred_publics) with
  | Trivial, [] -> ()
  | Entries_bounded nbits, [] ->
    Array.iter (fun w -> Gadgets.range_check cs w ~nbits) data
  | Sum_equals _, [ s ] ->
    let total = Gadgets.sum cs (Array.to_list data) in
    Cs.assert_equal cs total s
  | _ -> invalid_arg "Circuits.assert_predicate: publics mismatch"

(* ---- pi_e: proof of encryption (§IV-B step 1/3) ----
   publics: nonce :: c_d :: c_k :: ct_0 .. ct_{n-1}
   witness: data, o_d, key, o_k *)

let encryption_publics ~(nonce : Fr.t) ~(c_d : Fr.t) ~(c_k : Fr.t)
    ~(ciphertext : Fr.t array) : Fr.t array =
  Array.append [| nonce; c_d; c_k |] ciphertext

let encryption_circuit ~(data : Fr.t array) ~(key : Fr.t) ~(nonce : Fr.t)
    ~(o_d : Fr.t) ~(o_k : Fr.t) : Cs.t =
  let ciphertext = Mimc.Ctr.encrypt ~key ~nonce data in
  let c_d = commit_dataset data o_d in
  let c_k = commit_key key o_k in
  let cs = Cs.create () in
  let nonce_w = Cs.public_input cs nonce in
  let c_d_w = Cs.public_input cs c_d in
  let c_k_w = Cs.public_input cs c_k in
  let ct_ws = Array.map (Cs.public_input cs) ciphertext in
  let data_ws = Array.map (Cs.fresh cs) data in
  let key_w = Cs.fresh cs key in
  let o_d_w = Cs.fresh cs o_d in
  let o_k_w = Cs.fresh cs o_k in
  Mimc_gadget.assert_ctr_encryption cs ~key:key_w ~nonce:nonce_w data_ws ct_ws;
  assert_dataset_opens cs ~commitment:c_d_w data_ws ~opening:o_d_w;
  Poseidon_gadget.assert_commitment_opens cs ~commitment:c_k_w [ key_w ]
    ~opening:o_k_w;
  cs

(* ---- pi_t: proofs of transformation (§IV-D) ----
   All transformation circuits relate source and derived datasets through
   their commitments only (the decoupling insight of §IV-B): publics are
   commitments, witnesses are plaintexts and openings. *)

(* Common scaffold: open every source and destination commitment. *)
let open_many cs (publics : Cs.wire list) (datasets : (Fr.t array * Fr.t) list)
    : Cs.wire array list =
  List.map2
    (fun c_w (data, o) ->
      let data_ws = Array.map (Cs.fresh cs) data in
      let o_w = Cs.fresh cs o in
      assert_dataset_opens cs ~commitment:c_w data_ws ~opening:o_w;
      data_ws)
    publics datasets

(* Duplication: D = S (paper §IV-D.1). publics: [c_s; c_d] *)

let duplication_publics ~c_s ~c_d = [| c_s; c_d |]

let duplication_circuit ~(src : Fr.t array * Fr.t) ~(dst : Fr.t array * Fr.t) :
    Cs.t =
  let cs = Cs.create () in
  let c_s = Cs.public_input cs (commit_dataset (fst src) (snd src)) in
  let c_d = Cs.public_input cs (commit_dataset (fst dst) (snd dst)) in
  (match open_many cs [ c_s; c_d ] [ src; dst ] with
  | [ s_ws; d_ws ] -> Gadgets.assert_vec_equal cs s_ws d_ws
  | _ -> assert false);
  cs

(* Aggregation: D = S_1 || ... || S_x in order (§IV-D.2).
   publics: [c_s1; ..; c_sx; c_d] *)

let aggregation_publics ~c_sources ~c_d = Array.of_list (c_sources @ [ c_d ])

let aggregation_circuit ~(sources : (Fr.t array * Fr.t) list)
    ~(dst : Fr.t array * Fr.t) : Cs.t =
  let cs = Cs.create () in
  let c_srcs =
    List.map (fun (d, o) -> Cs.public_input cs (commit_dataset d o)) sources
  in
  let c_d = Cs.public_input cs (commit_dataset (fst dst) (snd dst)) in
  let opened = open_many cs (c_srcs @ [ c_d ]) (sources @ [ dst ]) in
  let rec split = function
    | [ d_ws ] -> ([], (d_ws : Cs.wire array))
    | s :: rest ->
      let ss, d = split rest in
      (s :: ss, d)
    | [] -> assert false
  in
  let src_ws, d_ws = split opened in
  let concatenated = Array.concat src_ws in
  Gadgets.assert_vec_equal cs concatenated d_ws;
  cs

(* Partition: S = D_1 || ... || D_y, exhaustive and mutually exclusive by
   construction of the ordered split (§IV-D.3).
   publics: [c_s; c_d1; ..; c_dy] *)

let partition_publics ~c_s ~c_parts = Array.of_list (c_s :: c_parts)

let partition_circuit ~(src : Fr.t array * Fr.t)
    ~(parts : (Fr.t array * Fr.t) list) : Cs.t =
  let cs = Cs.create () in
  let c_s = Cs.public_input cs (commit_dataset (fst src) (snd src)) in
  let c_parts =
    List.map (fun (d, o) -> Cs.public_input cs (commit_dataset d o)) parts
  in
  let opened = open_many cs (c_s :: c_parts) (src :: parts) in
  (match opened with
  | s_ws :: part_ws ->
    let concatenated = Array.concat part_ws in
    Gadgets.assert_vec_equal cs s_ws concatenated
  | [] -> assert false);
  cs

(* Processing: D = f(S) for a registered predicate f (§IV-D.4, §IV-E).
   publics: [c_s; c_d] *)

type processing_spec = {
  proc_name : string;
  out_size : int -> int;
  (* constrains the relation between source and derived wires; for pure
     functions this is compute-and-equate, but predicates like the
     convergence check of §IV-E.1 relate S and D without recomputing D *)
  check : Cs.t -> Cs.wire array -> Cs.wire array -> unit;
  (* reference (out-of-circuit) semantics used by the data owner *)
  reference : Fr.t array -> Fr.t array;
}

(** Spec for a pure function: the circuit recomputes D from S and equates. *)
let pure_spec ~name ~out_size ~apply ~reference =
  {
    proc_name = name;
    out_size;
    check = (fun cs s_ws d_ws -> Gadgets.assert_vec_equal cs (apply cs s_ws) d_ws);
    reference;
  }

let processing_registry : (string, processing_spec) Hashtbl.t = Hashtbl.create 8

let register_processing (spec : processing_spec) =
  Hashtbl.replace processing_registry spec.proc_name spec

let find_processing name = Hashtbl.find_opt processing_registry name

let processing_publics ~c_s ~c_d = [| c_s; c_d |]

let processing_circuit ~(spec : processing_spec) ~(src : Fr.t array * Fr.t)
    ~(dst : Fr.t array * Fr.t) : Cs.t =
  let cs = Cs.create () in
  let c_s = Cs.public_input cs (commit_dataset (fst src) (snd src)) in
  let c_d = Cs.public_input cs (commit_dataset (fst dst) (snd dst)) in
  (match open_many cs [ c_s; c_d ] [ src; dst ] with
  | [ s_ws; d_ws ] -> spec.check cs s_ws d_ws
  | _ -> assert false);
  cs

(* Built-in processing specs (simple examples; the ML applications in
   Zkdet_apps register richer ones). *)

let scale_spec ~(factor : int) : processing_spec =
  pure_spec
    ~name:(Printf.sprintf "scale%d" factor)
    ~out_size:(fun n -> n)
    ~apply:(fun cs s_ws -> Array.map (fun w -> Cs.scale cs (Fr.of_int factor) w) s_ws)
    ~reference:(Array.map (Fr.mul (Fr.of_int factor)))

let sum_spec : processing_spec =
  pure_spec ~name:"sum"
    ~out_size:(fun _ -> 1)
    ~apply:(fun cs s_ws -> [| Gadgets.sum cs (Array.to_list s_ws) |])
    ~reference:(fun data -> [| Array.fold_left Fr.add Fr.zero data |])

let () =
  register_processing sum_spec;
  register_processing (scale_spec ~factor:2)

(* ---- pi_p: data validation for the exchange (§IV-F phase 1) ----
   publics: nonce :: c_d :: predicate params :: ct_0 .. ct_{n-1}
   witness: data, key, o_d *)

let validation_publics ~(nonce : Fr.t) ~(c_d : Fr.t) ~(predicate : predicate)
    ~(ciphertext : Fr.t array) : Fr.t array =
  Array.concat
    [ [| nonce; c_d |]; Array.of_list (predicate_publics predicate); ciphertext ]

let validation_circuit ~(data : Fr.t array) ~(key : Fr.t) ~(nonce : Fr.t)
    ~(o_d : Fr.t) ~(predicate : predicate) : Cs.t =
  let ciphertext = Mimc.Ctr.encrypt ~key ~nonce data in
  let c_d = commit_dataset data o_d in
  let cs = Cs.create () in
  let nonce_w = Cs.public_input cs nonce in
  let c_d_w = Cs.public_input cs c_d in
  let pred_ws = List.map (Cs.public_input cs) (predicate_publics predicate) in
  let ct_ws = Array.map (Cs.public_input cs) ciphertext in
  let data_ws = Array.map (Cs.fresh cs) data in
  let key_w = Cs.fresh cs key in
  let o_d_w = Cs.fresh cs o_d in
  assert_predicate cs predicate pred_ws data_ws;
  Mimc_gadget.assert_ctr_encryption cs ~key:key_w ~nonce:nonce_w data_ws ct_ws;
  assert_dataset_opens cs ~commitment:c_d_w data_ws ~opening:o_d_w;
  cs

(* ---- pi_k: key negotiation (§IV-F phase 2) ----
   publics: [k_c; c_k; h_v]; witness: key, o_k, k_v *)

let key_publics ~(k_c : Fr.t) ~(c_k : Fr.t) ~(h_v : Fr.t) = [| k_c; c_k; h_v |]

let key_circuit ~(key : Fr.t) ~(o_k : Fr.t) ~(k_v : Fr.t) : Cs.t =
  let k_c = Fr.add key k_v in
  let c_k = commit_key key o_k in
  let h_v = Poseidon.hash [ k_v ] in
  let cs = Cs.create () in
  let k_c_w = Cs.public_input cs k_c in
  let c_k_w = Cs.public_input cs c_k in
  let h_v_w = Cs.public_input cs h_v in
  let key_w = Cs.fresh cs key in
  let o_k_w = Cs.fresh cs o_k in
  let k_v_w = Cs.fresh cs k_v in
  (* Open(k, c, o) = 1 *)
  Poseidon_gadget.assert_commitment_opens cs ~commitment:c_k_w [ key_w ]
    ~opening:o_k_w;
  (* h_v = H(k_v) *)
  let h = Poseidon_gadget.hash cs [ k_v_w ] in
  Cs.assert_equal cs h h_v_w;
  (* k_c = k + k_v *)
  let s = Cs.add cs key_w k_v_w in
  Cs.assert_equal cs s k_c_w;
  cs

(* ---- ZKCP's pi_p, the baseline (§III-C) ----
   publics: nonce :: h :: predicate params :: ct_0 .. ct_{n-1}
   witness: data, key.  No commitment: ZKCP binds the key by its hash,
   which is what forces disclosure later. *)

let zkcp_publics ~(nonce : Fr.t) ~(h : Fr.t) ~(predicate : predicate)
    ~(ciphertext : Fr.t array) : Fr.t array =
  Array.concat
    [ [| nonce; h |]; Array.of_list (predicate_publics predicate); ciphertext ]

let zkcp_circuit ~(data : Fr.t array) ~(key : Fr.t) ~(nonce : Fr.t)
    ~(predicate : predicate) : Cs.t =
  let ciphertext = Mimc.Ctr.encrypt ~key ~nonce data in
  let h = Poseidon.hash [ key ] in
  let cs = Cs.create () in
  let nonce_w = Cs.public_input cs nonce in
  let h_w = Cs.public_input cs h in
  let pred_ws = List.map (Cs.public_input cs) (predicate_publics predicate) in
  let ct_ws = Array.map (Cs.public_input cs) ciphertext in
  let data_ws = Array.map (Cs.fresh cs) data in
  let key_w = Cs.fresh cs key in
  assert_predicate cs predicate pred_ws data_ws;
  Mimc_gadget.assert_ctr_encryption cs ~key:key_w ~nonce:nonce_w data_ws ct_ws;
  let h_computed = Poseidon_gadget.hash cs [ key_w ] in
  Cs.assert_equal cs h_computed h_w;
  cs

(* ---- statements: which circuit a proof is about ---- *)

type transform =
  | Duplication of int (* source size *)
  | Aggregation of int list (* source sizes in order *)
  | Partition of int * int list (* source size, part sizes *)
  | Processing of string * int (* registered spec name, source size *)

type statement =
  | Encryption of int
  | Transform of transform
  | Validation of int * predicate
  | Zkcp of int * predicate
  | Key

let ints l = String.concat "," (List.map string_of_int l)

(* A Sum_equals value is a public input, not structure: every sum shares
   one key. *)
let predicate_key = function
  | Trivial -> "trivial"
  | Entries_bounded n -> Printf.sprintf "bounded:%d" n
  | Sum_equals _ -> "sum"

let cache_key = function
  | Encryption n -> Printf.sprintf "pi_e:%d" n
  | Transform (Duplication n) -> Printf.sprintf "pi_t:dup:%d" n
  | Transform (Aggregation sizes) -> "pi_t:agg:" ^ ints sizes
  | Transform (Partition (n, sizes)) -> Printf.sprintf "pi_t:part:%d:%s" n (ints sizes)
  | Transform (Processing (name, n)) -> Printf.sprintf "pi_t:proc:%s:%d" name n
  | Validation (n, p) -> Printf.sprintf "pi_p:%s:%d" (predicate_key p) n
  | Zkcp (n, p) -> Printf.sprintf "zkcp:%s:%d" (predicate_key p) n
  | Key -> "pi_k"

let well_formed = function
  | Encryption n -> n >= 0
  | Transform (Duplication n | Processing (_, n)) -> n > 0
  | Transform (Aggregation sizes) -> sizes <> [] && List.for_all (fun k -> k > 0) sizes
  | Transform (Partition (n, parts)) ->
    (* parts at most [n] each, so their sum cannot wrap round to it *)
    n > 0
    && List.for_all (fun k -> 0 < k && k <= n) parts
    && List.fold_left ( + ) 0 parts = n
  | Validation (n, p) | Zkcp (n, p) -> (
    n >= 0
    && match p with
       | Entries_bounded nbits -> 0 <= nbits && nbits < Fr.num_bits
       | Trivial | Sum_equals _ -> true)
  | Key -> true

let lineage_sizes = function
  | Encryption n | Transform (Duplication n | Partition (n, _) | Processing (_, n)) -> [ n ]
  | Transform (Aggregation sizes) -> List.fold_left ( + ) 0 sizes :: sizes
  | Validation _ | Zkcp _ | Key -> []

(* One satisfying witness per statement; the key depends only on the
   circuit's structure. *)
let setup_circuit (s : statement) : Cs.t option =
  let ones n = Array.make n Fr.one in
  let opened n = (ones n, Fr.one) in
  (* entries that satisfy [p] *)
  let satisfying n = function
    | Sum_equals total -> Array.init n (fun i -> if i = 0 then total else Fr.zero)
    | Trivial | Entries_bounded _ -> ones n
  in
  if not (well_formed s) then None
  else
    match s with
    | Encryption n ->
      Some
        (encryption_circuit ~data:(ones n) ~key:Fr.one ~nonce:Fr.one ~o_d:Fr.one
           ~o_k:Fr.one)
    | Transform (Duplication n) ->
      Some (duplication_circuit ~src:(opened n) ~dst:(opened n))
    | Transform (Aggregation sizes) ->
      Some
        (aggregation_circuit ~sources:(List.map opened sizes)
           ~dst:(opened (List.fold_left ( + ) 0 sizes)))
    | Transform (Partition (n, parts)) ->
      Some (partition_circuit ~src:(opened n) ~parts:(List.map opened parts))
    | Transform (Processing (name, n)) -> (
      match find_processing name with
      | None -> None
      | Some spec -> (
        (* a registered function need not have a circuit at every size *)
        match
          processing_circuit ~spec ~src:(opened n) ~dst:(spec.reference (ones n), Fr.one)
        with
        | cs -> Some cs
        | exception Invalid_argument _ -> None))
    | Validation (n, predicate) ->
      Some
        (validation_circuit ~data:(satisfying n predicate) ~key:Fr.one
           ~nonce:Fr.one ~o_d:Fr.one ~predicate)
    | Zkcp (n, predicate) ->
      Some
        (zkcp_circuit ~data:(satisfying n predicate) ~key:Fr.one ~nonce:Fr.one
           ~predicate)
    | Key -> Some (key_circuit ~key:Fr.one ~o_k:Fr.one ~k_v:Fr.one)
