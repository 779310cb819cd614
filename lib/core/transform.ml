(* The generic data transformation protocol (paper §IV-B): sealed datasets
   (encrypted + committed), decoupled proofs of encryption pi_e reusable
   across transformations, and proofs of transformation pi_t for the four
   fundamental formulae.  The lineage audit that chains them (Fig. 3) is
   [Marketplace.audit_provenance]. *)

module Fr = Zkdet_field.Bn254.Fr
module Cs = Zkdet_plonk.Cs
module Prover = Zkdet_plonk.Prover
module Proof = Zkdet_plonk.Proof
module Mimc = Zkdet_mimc.Mimc
module Erc721 = Zkdet_contracts.Erc721

(** A dataset as its owner holds it: plaintext and secrets alongside the
    public ciphertext and commitments. *)
type sealed = {
  data : Fr.t array;
  key : Fr.t;
  nonce : Fr.t;
  o_d : Fr.t; (* opening of the dataset commitment *)
  o_k : Fr.t; (* opening of the key commitment *)
  ciphertext : Fr.t array;
  c_d : Fr.t;
  c_k : Fr.t;
}

let size (s : sealed) = Array.length s.data

(** Encrypt and commit a plaintext dataset with fresh secrets. *)
let seal ?(st = Random.State.make_self_init ()) (data : Fr.t array) : sealed =
  let key = Fr.random st in
  let nonce = Fr.random st in
  let o_d = Fr.random st in
  let o_k = Fr.random st in
  {
    data;
    key;
    nonce;
    o_d;
    o_k;
    ciphertext = Mimc.Ctr.encrypt ~key ~nonce data;
    c_d = Circuits.commit_dataset data o_d;
    c_k = Circuits.commit_key key o_k;
  }

let decrypt ~(key : Fr.t) ~(nonce : Fr.t) (ciphertext : Fr.t array) : Fr.t array
    =
  Mimc.Ctr.decrypt ~key ~nonce ciphertext

(* ---- pi_e ---- *)

(** Generate pi_e for a sealed dataset. *)
let prove_encryption (env : Env.t) (s : sealed) : Proof.t =
  let pk = Env.proving_key env (Circuits.Encryption (size s)) in
  let cs =
    Circuits.encryption_circuit ~data:s.data ~key:s.key ~nonce:s.nonce
      ~o_d:s.o_d ~o_k:s.o_k
  in
  Prover.prove ~st:env.Env.rng pk (Cs.compile cs)

(** Verify pi_e from public data only. *)
let verify_encryption (env : Env.t) ~(nonce : Fr.t) ~(c_d : Fr.t) ~(c_k : Fr.t)
    ~(ciphertext : Fr.t array) (proof : Proof.t) : bool =
  Env.verify env
    (Circuits.Encryption (Array.length ciphertext))
    (Circuits.encryption_publics ~nonce ~c_d ~c_k ~ciphertext)
    proof

(* ---- transformations ---- *)

type kind = Circuits.transform =
  | Duplication of int (* source size *)
  | Aggregation of int list (* source sizes in order *)
  | Partition of int * int list (* source size, part sizes *)
  | Processing of string * int (* registered spec name, source size *)

let chain_kind : kind -> Erc721.transform_kind = function
  | Duplication _ -> Erc721.Duplication
  | Aggregation _ -> Erc721.Aggregation
  | Partition _ -> Erc721.Partition
  | Processing (name, _) -> Erc721.Processing name

let kind_name k = Erc721.transform_name (chain_kind k)

(** One link of a proof chain: the transformation relates source
    commitments to destination commitments through pi_t. *)
type link = {
  kind : kind;
  src_commitments : Fr.t list;
  dst_commitments : Fr.t list;
  proof : Proof.t;
}

(** Duplicate: reseal the same content under fresh secrets and prove
    content equality (§IV-D.1). *)
let duplicate (env : Env.t) (src : sealed) : sealed * link =
  let st = env.Env.rng in
  let dst = seal ~st (Array.copy src.data) in
  let n = size src in
  let pk = Env.proving_key env (Circuits.Transform (Duplication n)) in
  let cs =
    Circuits.duplication_circuit ~src:(src.data, src.o_d) ~dst:(dst.data, dst.o_d)
  in
  let proof = Prover.prove ~st pk (Cs.compile cs) in
  ( dst,
    { kind = Duplication n; src_commitments = [ src.c_d ];
      dst_commitments = [ dst.c_d ]; proof } )

(** Aggregate several datasets into their ordered concatenation (§IV-D.2). *)
let aggregate (env : Env.t) (sources : sealed list) : sealed * link =
  let st = env.Env.rng in
  let data = Array.concat (List.map (fun s -> s.data) sources) in
  let dst = seal ~st data in
  let sizes = List.map size sources in
  let pk = Env.proving_key env (Circuits.Transform (Aggregation sizes)) in
  let cs =
    Circuits.aggregation_circuit
      ~sources:(List.map (fun s -> (s.data, s.o_d)) sources)
      ~dst:(dst.data, dst.o_d)
  in
  let proof = Prover.prove ~st pk (Cs.compile cs) in
  ( dst,
    { kind = Aggregation sizes;
      src_commitments = List.map (fun s -> s.c_d) sources;
      dst_commitments = [ dst.c_d ]; proof } )

(** Partition a dataset into consecutive slices of the given sizes
    (§IV-D.3: exhaustive and mutually exclusive). *)
let partition (env : Env.t) (src : sealed) ~(sizes : int list) :
    sealed list * link =
  let st = env.Env.rng in
  if List.fold_left ( + ) 0 sizes <> size src then
    invalid_arg "Transform.partition: sizes must sum to the source size";
  let n = size src in
  let pk = Env.proving_key env (Circuits.Transform (Partition (n, sizes))) in
  let parts =
    let off = ref 0 in
    List.map
      (fun k ->
        let slice = Array.sub src.data !off k in
        off := !off + k;
        seal ~st slice)
      sizes
  in
  let cs =
    Circuits.partition_circuit ~src:(src.data, src.o_d)
      ~parts:(List.map (fun p -> (p.data, p.o_d)) parts)
  in
  let proof = Prover.prove ~st pk (Cs.compile cs) in
  ( parts,
    { kind = Partition (n, sizes); src_commitments = [ src.c_d ];
      dst_commitments = List.map (fun p -> p.c_d) parts; proof } )

(** Apply a registered processing function and prove D = f(S) (§IV-D.4). *)
let process (env : Env.t) (src : sealed) ~(spec : Circuits.processing_spec) :
    sealed * link =
  let st = env.Env.rng in
  let data = spec.Circuits.reference src.data in
  let dst = seal ~st data in
  let n = size src in
  let pk =
    Env.proving_key env (Circuits.Transform (Processing (spec.Circuits.proc_name, n)))
  in
  let cs =
    Circuits.processing_circuit ~spec ~src:(src.data, src.o_d)
      ~dst:(dst.data, dst.o_d)
  in
  let proof = Prover.prove ~st pk (Cs.compile cs) in
  ( dst,
    { kind = Processing (spec.Circuits.proc_name, n);
      src_commitments = [ src.c_d ]; dst_commitments = [ dst.c_d ]; proof } )

(* ---- verification ---- *)

(** A link's public inputs: its commitments in the layout of its kind's
    circuit, or [None] when their counts do not fit the kind. *)
let link_publics (l : link) : Fr.t array option =
  match (l.kind, l.src_commitments, l.dst_commitments) with
  | Duplication _, [ c_s ], [ c_d ] -> Some (Circuits.duplication_publics ~c_s ~c_d)
  | Processing _, [ c_s ], [ c_d ] -> Some (Circuits.processing_publics ~c_s ~c_d)
  | Aggregation _, c_sources, [ c_d ] ->
    Some (Circuits.aggregation_publics ~c_sources ~c_d)
  | Partition _, [ c_s ], c_parts -> Some (Circuits.partition_publics ~c_s ~c_parts)
  | _ -> None

(** Verify one pi_t link against its public commitments. *)
let verify_link (env : Env.t) (l : link) : bool =
  match link_publics l with
  | Some publics -> Env.verify env (Circuits.Transform l.kind) publics l.proof
  | None -> false
