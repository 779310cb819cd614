(* First-class transaction descriptor.

   A transaction is data — sender, account nonce, label, calldata,
   optional gas-attribution contract — plus the body closure that runs
   against an execution environment.  The type is polymorphic in the
   environment so this module sits below [Chain] (which instantiates
   ['env] with its own [Chain.env]) without a dependency cycle.

   The transaction hash commits to the descriptor alone, never to
   execution order: (sender, nonce, label, calldata).  Per-sender
   account nonces are consumed exactly once per applied transaction, so
   the pair (sender, nonce) is unique among applied transactions and the
   hash is stable whether the transaction runs at once through
   [Chain.execute] or through a mempool and a parallel block build. *)

module Sha256 = Zkdet_hash.Sha256

type 'env t = {
  sender : string;  (** account address *)
  nonce : int;  (** per-sender account nonce; must be >= 0 *)
  label : string;  (** human-readable "contract:method" label *)
  calldata : string;  (** opaque payload, charged per byte *)
  contract : string option;  (** explicit gas-attribution target *)
  body : 'env -> unit;  (** the contract code to run under the meter *)
}

let make ~sender ~nonce ~label ?(calldata = "") ?contract body =
  if nonce < 0 then invalid_arg "Tx.make: negative nonce";
  { sender; nonce; label; calldata; contract; body }

(* Calldata is length-prefixed inside the preimage so no choice of label
   or calldata bytes can collide with another descriptor's encoding. *)
let hash_parts ~sender ~nonce ~label ~calldata =
  Sha256.hex_of_string
    (Sha256.digest
       (Printf.sprintf "%d/%s/%d/%s/%d:%s" (String.length sender) sender nonce
          label
          (String.length calldata)
          calldata))

let hash (tx : _ t) =
  hash_parts ~sender:tx.sender ~nonce:tx.nonce ~label:tx.label
    ~calldata:tx.calldata
