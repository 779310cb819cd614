(** IPFS-like content-addressed storage network (the paper's "distributed
    storage network", §III-A).

    The two properties ZKDET relies on hold by construction: a dataset's
    URI {i is} the SHA-256 digest of its (encrypted) bytes, and any peer
    can retrieve by URI through the DHT-style provider table. Tampered
    blocks are detected on fetch because the digest no longer matches. *)

module Fr = Zkdet_field.Bn254.Fr

(** Content identifiers. *)
module Cid : sig
  type t = string

  val of_bytes : string -> t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

val chunk_size : int
(** Objects above this size are split into chunks under a manifest block
    (256 KiB, the IPFS default). *)

val manifest_codec : Cid.t list Zkdet_codec.Codec.t
(** Chunk manifests on the wire: a ["ZMAN"] envelope (version 1) around
    the count-prefixed chunk CID list. *)

val is_manifest : string -> bool
(** Whether a block carries the manifest magic. *)

val manifest_cids : string -> Cid.t list option
(** Total manifest decoder: [None] unless the block is a well-formed
    manifest. *)

type node = {
  node_id : string;
  blocks : (Cid.t, string) Hashtbl.t;
  pinned : (Cid.t, unit) Hashtbl.t;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  providers : (Cid.t, string list ref) Hashtbl.t;
      (** The DHT: the ids of the nodes holding each CID, newest first.
          A node is listed exactly when it holds the block, so announcing
          never scans the list; change [blocks] only through this module
          to keep that so. *)
  mutable fetch_hops : int;
  mutable bytes_transferred : int;
}

val create : unit -> t
val add_node : t -> id:string -> node

val put : t -> node -> string -> Cid.t
(** Store an arbitrary-size object (chunked if large); announces the node
    as a provider and returns the root CID. *)

val get : t -> node -> Cid.t -> (string, [ `Not_found | `Tampered ]) result
(** Fetch through the DHT with integrity verification. The requester
    caches fetched blocks and becomes a provider (IPFS behaviour). *)

val pin : node -> Cid.t -> unit
val unpin : node -> Cid.t -> unit

val gc : t -> node -> int
(** Drop unpinned blocks (children of pinned manifests survive); returns
    the number of blocks collected. *)

val tamper : node -> Cid.t -> unit
(** Corrupt one stored block (tests of integrity detection). *)

(** Encoding of field-element datasets as stored bytes: fixed-width
    big-endian elements back to back. *)
module Codec : sig
  val encode : Fr.t array -> string

  val decode_result : string -> (Fr.t array, string) result
  (** Strict decoder, total on untrusted bytes: the length must be a
      multiple of the element width and every element canonical. *)

  val decode : string -> Fr.t array
  (** Raising variant of {!decode_result} ([Invalid_argument]). *)
end
