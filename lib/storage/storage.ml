(* An IPFS-like content-addressed storage network (the paper's "distributed
   storage network", §III-A): SHA-256 content identifiers, chunked blocks,
   a DHT-style provider table, integrity verification on retrieval, and
   pinning/GC. The two properties ZKDET relies on hold by construction:
   the URI of a dataset *is* its digest (binding), and any peer can fetch
   by URI (public retrievability). *)

module Sha256 = Zkdet_hash.Sha256
module Fr = Zkdet_field.Bn254.Fr
module Telemetry = Zkdet_telemetry.Telemetry
module Obs = Zkdet_obs.Obs
module C = Zkdet_codec.Codec

module Cid = struct
  type t = string (* "zb" ^ hex digest *)

  let of_bytes (data : string) : t = "zb" ^ Sha256.hex_of_string (Sha256.digest data)
  let equal = String.equal
  let pp fmt c = Format.pp_print_string fmt c
  let to_string c = c
end

let chunk_size = 262_144 (* 256 KiB, the IPFS default *)

type node = {
  node_id : string;
  blocks : (Cid.t, string) Hashtbl.t;
  pinned : (Cid.t, unit) Hashtbl.t;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  providers : (Cid.t, string list ref) Hashtbl.t; (* DHT: cid -> node ids *)
  mutable fetch_hops : int; (* network statistics *)
  mutable bytes_transferred : int;
}

let create () =
  { nodes = Hashtbl.create 8; providers = Hashtbl.create 64; fetch_hops = 0;
    bytes_transferred = 0 }

let add_node (net : t) ~id : node =
  if Hashtbl.mem net.nodes id then invalid_arg "Storage.add_node: duplicate id";
  let node = { node_id = id; blocks = Hashtbl.create 64; pinned = Hashtbl.create 8 } in
  Hashtbl.add net.nodes id node;
  node

(* A node is listed as a provider of a CID exactly when it holds the
   block: [put_block] and [fetch_block] announce only a block the node
   did not hold, and [gc] drops the record with the block.  So announcing
   never scans the list; the newest announcer comes first. *)
let announce (net : t) (cid : Cid.t) (node : node) =
  match Hashtbl.find_opt net.providers cid with
  | Some ids -> ids := node.node_id :: !ids
  | None -> Hashtbl.add net.providers cid (ref [ node.node_id ])

let put_block (net : t) (node : node) (data : string) : Cid.t =
  let cid = Cid.of_bytes data in
  let held = Hashtbl.mem node.blocks cid in
  Hashtbl.replace node.blocks cid data;
  if not held then announce net cid node;
  cid

(* Manifest for chunked objects: a "ZMAN" envelope block listing the
   chunk CIDs (canonical binary form; see FORMATS.md). *)
let manifest_magic = "ZMAN"

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let cid_codec : Cid.t C.t =
  C.validated "malformed CID"
    (fun c ->
      String.length c = 66
      && c.[0] = 'z' && c.[1] = 'b'
      && (let ok = ref true in
          String.iteri (fun i ch -> if i >= 2 && not (is_hex ch) then ok := false) c;
          !ok))
    (C.bytes_fixed 66)

let manifest_codec : Cid.t list C.t =
  C.envelope ~magic:manifest_magic ~version:1 (C.list cid_codec)

let is_manifest data =
  String.length data >= String.length manifest_magic
  && String.sub data 0 (String.length manifest_magic) = manifest_magic

(* Total: [None] when the block is not a well-formed manifest. *)
let manifest_cids data =
  if is_manifest data then
    match C.decode manifest_codec data with Ok cids -> Some cids | Error _ -> None
  else None

(** Store an arbitrary-size object, chunked. Returns the root CID
    (the object's URI in ZKDET). *)
let put (net : t) (node : node) (data : string) : Cid.t =
  Telemetry.with_span "storage.put" @@ fun () ->
  Telemetry.count "storage.put.calls" 1;
  Telemetry.count "storage.put.bytes" (String.length data);
  let cid, nchunks =
    if String.length data <= chunk_size then begin
      Telemetry.count "storage.put.chunks" 1;
      (put_block net node data, 1)
    end
    else begin
      let nchunks = (String.length data + chunk_size - 1) / chunk_size in
      Telemetry.count "storage.put.chunks" nchunks;
      let cids =
        List.init nchunks (fun i ->
            let off = i * chunk_size in
            let len = min chunk_size (String.length data - off) in
            put_block net node (String.sub data off len))
      in
      (put_block net node (C.encode manifest_codec cids), nchunks)
    end
  in
  if Obs.is_enabled () then
    Obs.emit
      (Zkdet_obs.Event.Chunk_stored
         { cid; bytes = String.length data; chunks = nchunks });
  cid

let find_provider (net : t) (cid : Cid.t) : node option =
  match Hashtbl.find_opt net.providers cid with
  | None | Some { contents = [] } -> None
  | Some { contents = id :: _ } -> Hashtbl.find_opt net.nodes id

(** Fetch one block through the DHT, verifying content integrity. Returns
    [Error `Tampered] if a provider serves bytes whose digest does not
    match the CID. *)
let fetch_block (net : t) (requester : node) (cid : Cid.t) :
    (string, [ `Not_found | `Tampered ]) result =
  match Hashtbl.find_opt requester.blocks cid with
  | Some data when Cid.equal (Cid.of_bytes data) cid -> Ok data
  | Some _ -> Error `Tampered
  | None -> (
    match find_provider net cid with
    | None -> Error `Not_found
    | Some provider -> (
      net.fetch_hops <- net.fetch_hops + 1;
      match Hashtbl.find_opt provider.blocks cid with
      | None -> Error `Not_found
      | Some data ->
        if Cid.equal (Cid.of_bytes data) cid then begin
          net.bytes_transferred <- net.bytes_transferred + String.length data;
          (* cache locally and become a provider, IPFS-style; the
             requester did not hold the block, so it is not listed *)
          Hashtbl.replace requester.blocks cid data;
          announce net cid requester;
          Ok data
        end
        else Error `Tampered))

(** Fetch a whole (possibly chunked) object. *)
let get (net : t) (requester : node) (cid : Cid.t) :
    (string, [ `Not_found | `Tampered ]) result =
  Telemetry.with_span "storage.get" @@ fun () ->
  Telemetry.count "storage.get.calls" 1;
  let hops_before = net.fetch_hops in
  let fetched_chunks = ref 0 in
  let result =
    match fetch_block net requester cid with
  | Error _ as e -> e
  | Ok data ->
    if not (is_manifest data) then begin
      Telemetry.count "storage.get.chunks" 1;
      fetched_chunks := 1;
      Ok data
    end
    else begin
      match manifest_cids data with
      | None ->
        (* Content hash matched but the manifest bytes don't decode: the
           root block was never a valid manifest. *)
        Error `Tampered
      | Some cids ->
        let buf = Buffer.create (List.length cids * chunk_size) in
        let rec collect nchunks = function
          | [] ->
            Telemetry.count "storage.get.chunks" nchunks;
            fetched_chunks := nchunks;
            Ok (Buffer.contents buf)
          | c :: rest -> (
            match fetch_block net requester c with
            | Ok chunk ->
              Buffer.add_string buf chunk;
              collect (nchunks + 1) rest
            | Error _ as e -> e)
        in
        collect 0 cids
    end
  in
  (match result with
  | Ok data ->
    Telemetry.count "storage.get.bytes" (String.length data);
    if Obs.is_enabled () then
      Obs.emit
        (Zkdet_obs.Event.Chunk_fetched
           { cid; bytes = String.length data; chunks = !fetched_chunks })
  | Error _ -> ());
  Telemetry.count "storage.get.hops" (net.fetch_hops - hops_before);
  result

let pin (node : node) (cid : Cid.t) = Hashtbl.replace node.pinned cid ()
let unpin (node : node) (cid : Cid.t) = Hashtbl.remove node.pinned cid

(** Garbage-collect unpinned blocks on a node (manifest children of pinned
    manifests are retained). *)
let gc (net : t) (node : node) : int =
  let keep = Hashtbl.create 16 in
  Hashtbl.iter
    (fun cid () ->
      Hashtbl.replace keep cid ();
      match Hashtbl.find_opt node.blocks cid with
      | Some data ->
        List.iter
          (fun c -> Hashtbl.replace keep c ())
          (Option.value (manifest_cids data) ~default:[])
      | None -> ())
    node.pinned;
  let removed = ref 0 in
  let to_remove =
    Hashtbl.fold
      (fun cid _ acc -> if Hashtbl.mem keep cid then acc else cid :: acc)
      node.blocks []
  in
  List.iter
    (fun cid ->
      Hashtbl.remove node.blocks cid;
      incr removed;
      match Hashtbl.find_opt net.providers cid with
      | Some ids -> ids := List.filter (fun i -> i <> node.node_id) !ids
      | None -> ())
    to_remove;
  !removed

(** Deliberately corrupt a stored block (for tamper-detection tests). *)
let tamper (node : node) (cid : Cid.t) =
  match Hashtbl.find_opt node.blocks cid with
  | Some data when String.length data > 0 ->
    let b = Bytes.of_string data in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    Hashtbl.replace node.blocks cid (Bytes.to_string b)
  | _ -> ()

(** Encoding of field-element datasets as stored bytes: fixed-width
    big-endian elements back to back (the count is implied by the byte
    length, keeping a dataset's CID a pure function of its contents). *)
module Codec = struct
  let encode (data : Fr.t array) : string =
    String.concat "" (Array.to_list (Array.map Fr.to_bytes_be data))

  (** Strict decoder: total on untrusted bytes, requires every element
      canonical (below the modulus). *)
  let decode_result (s : string) : (Fr.t array, string) result =
    let w = Fr.num_bytes in
    if String.length s mod w <> 0 then Error "bad length"
    else begin
      let n = String.length s / w in
      let out = Array.make n Fr.zero in
      let rec go i =
        if i = n then Ok out
        else
          match Fr.of_bytes_be_canonical (String.sub s (i * w) w) with
          | Ok v ->
            out.(i) <- v;
            go (i + 1)
          | Error e -> Error e
      in
      match go 0 with
      | Ok _ as ok -> ok
      | Error _ as e ->
        Telemetry.count "codec.decode_failures" 1;
        e
    end

  let decode (s : string) : Fr.t array =
    match decode_result s with
    | Ok v -> v
    | Error e -> invalid_arg ("Storage.Codec.decode: " ^ e)
end
