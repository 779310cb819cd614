(** First-class transaction descriptor: the data half of a transaction
    (sender, per-sender account nonce, label, calldata, gas-attribution
    contract) plus the body closure.  Polymorphic in the execution
    environment so it sits below [Chain] without a cycle; [Chain]
    instantiates ['env] with its [env]. *)

type 'env t = {
  sender : string;
  nonce : int;  (** per-sender account nonce *)
  label : string;
  calldata : string;
  contract : string option;
      (** explicit telemetry gas-attribution target; [None] records no
          per-contract gas *)
  body : 'env -> unit;
}

val make :
  sender:string -> nonce:int -> label:string -> ?calldata:string ->
  ?contract:string -> ('env -> unit) -> 'env t
(** Build a descriptor. Raises [Invalid_argument] on a negative nonce. *)

val hash : _ t -> string
(** Transaction hash (SHA-256, hex) over (sender, nonce, label,
    calldata) — independent of execution order, so it is identical
    whether the transaction runs through [Chain.execute] or a mempool
    and a parallel block build. *)

val hash_parts :
  sender:string -> nonce:int -> label:string -> calldata:string -> string
(** {!hash} without constructing a descriptor. *)
