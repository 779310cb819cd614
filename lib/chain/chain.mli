(** Blockchain simulator: account balances, gas-metered transaction
    execution, receipts and event logs, and proof-of-authority block
    production with hash-linked headers and SHA-256 transaction Merkle
    roots. Provides the tamper-resistance/consistency the paper's threat
    model assumes (§IV-A) and the gas measurements of Table II.

    Every transaction body runs against a write buffer that is applied
    to live state afterwards.  A transaction is either run at once
    ({!execute}, sealed later by {!mine}), or typed {!Tx.t} descriptors
    are {!submit}ted into a per-sender-nonce-ordered {!Mempool} and
    sealed by {!produce_block}, which executes non-conflicting
    transactions in parallel across [Zkdet_parallel] domains and merges
    deterministically — {!state_hash} is byte-identical at any
    [ZKDET_DOMAINS].  Receipts and journal records are produced on the
    initial domain only: finalizing a transaction on any other domain
    raises [Invalid_argument]. *)

(** 20-byte hex account/contract addresses (Keccak-derived). *)
module Address : sig
  type t = string

  val of_seed : string -> t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

type event = {
  event_contract : string;
  event_name : string;
  event_data : string list;
}

(** Typed transaction/transfer failures. *)
type error =
  | Insufficient_funds of { account : Address.t; needed : int; available : int }
  | Out_of_gas
  | Revert of string  (** contract-raised revert reason *)
  | Fee_unpaid of { needed : int; available : int }
      (** the transaction itself succeeded but the sender could not pay gas *)

val error_to_string : error -> string
(** Compact legacy string form ("insufficient balance", "out of gas", the
    raw revert reason, "fee: insufficient balance"); stable for tests that
    match on receipt error text. *)

val pp_error : Format.formatter -> error -> unit
(** Verbose form including accounts/amounts. *)

type receipt = {
  tx_hash : string;
  tx_label : string;
  sender : Address.t;
  gas_used : int;
  status : (unit, error) result;
  events : event list;
      (** events of a successful execution; a reverted or fee-unpaid
          transaction contributes none *)
  block_number : int option;  (** [None] while pending *)
  trace : (string * string) option;
      (** (trace_id, span_id) of the [Zkdet_obs] context active at
          submission, [None] when journaling was off *)
}

type block = {
  number : int;
  parent_hash : string;
  tx_root : string;
  tx_hashes : string list;
  timestamp : int;
  validator : Address.t;
  block_hash : string;
}

type t

val create :
  ?validators:Address.t array -> ?gas_limit:int -> ?block_gas_limit:int ->
  ?gas_price:int -> ?mempool_capacity:int -> unit -> t

val balance : t -> Address.t -> int

val faucet : t -> Address.t -> int -> unit
(** Credit an account out of thin air (tests / block rewards). *)


val account_nonce : t -> Address.t -> int
(** The sender's next unused account nonce: the number of its applied
    transactions.  Consumed (incremented) by every applied transaction,
    including failed ones. *)

(** Execution environment passed to contract code.  Abstract: all state
    reached from a transaction body must go through the [env_*]
    accessors below, which read through the transaction's write buffer,
    buffer its writes and record read/write keys for conflict
    detection.  A body that bypasses them (e.g. by closing over the
    chain and calling {!faucet} directly) races its own buffer, whose
    writes land after it; one that mutates private OCaml state is only
    safe under {!execute}. *)
type env

val env_meter : env -> Gas.meter

val env_balance : env -> Address.t -> int
val env_debit : env -> Address.t -> int -> (unit, error) result
val env_credit : env -> Address.t -> int -> unit
val env_storage_get : env -> contract:string -> key:string -> string option
val env_storage_set :
  env -> contract:string -> key:string -> value:string -> unit
(** For use inside transaction bodies: {!balance}, {!storage_get} and
    {!storage_set} through the transaction's buffer, plus a debit (which
    fails on an insufficient balance) and a credit.
    Gas for storage access is charged by the caller (via {!env_meter}),
    matching the existing contract idiom. *)

exception Revert of string
(** Raised by contract code to abort a transaction with a reason. *)

val emit : env -> contract:string -> name:string -> data:string list -> unit
(** Emit an event (charges LOG gas). *)

val execute :
  t -> sender:Address.t -> label:string -> ?calldata:string ->
  ?contract:string -> (env -> unit) -> receipt
(** Run a transaction now: auto-assigns the sender's next account
    nonce, charges base + calldata gas, executes the closure under the
    meter against a fresh write buffer, applies the buffer and deducts
    the fee from the sender, records the receipt.  Raises
    [Invalid_argument] off the initial domain. Reverts and out-of-gas become [Error] statuses (the failed
    transaction still pays for gas), and any events the closure emitted
    before failing are discarded. [contract] attributes the gas to a
    contract in telemetry ("chain.gas.by_contract.<name>"); omitting it
    records no per-contract attribution (the pre-PR 9 label-prefix
    fallback has been removed — pass [~contract] explicitly).
    When a [Zkdet_obs] journal is active the receipt is
    stamped with the ambient trace and tx-submitted / tx-reverted /
    chain-event records are journaled ([mine] adds tx-mined). *)

val submit : t -> env Tx.t -> Mempool.admit
(** Submit a typed transaction descriptor to the chain's mempool,
    applying the nonce admission rules (stale rejection, same-nonce
    replacement, gap holdback) against the sender's current
    {!account_nonce}.  Journals mempool-admitted / mempool-dropped
    events when observability is on.  The transaction executes later,
    inside {!produce_block}. *)

val mempool_size : t -> int

val produce_block : ?max_txs:int -> t -> block
(** Drain up to [max_txs] ready transactions from the mempool in
    canonical order and seal them (plus any receipts already pending
    from {!execute}) into a block.  Candidates are executed
    optimistically in parallel across the [Zkdet_parallel] pool against
    the frozen pre-block state with read/write-set tracking; a
    sequential canonical-order merge commits non-conflicting
    speculations and re-executes the rest, then receipts, telemetry and
    journal records are produced in canonical order.  The resulting
    state, receipts and journal are byte-identical at any domain
    count. *)

val reexec_total : t -> int
(** Cumulative count of transactions whose speculation conflicted and
    were re-executed sequentially by {!produce_block}. *)

val mine : t -> block
(** Seal pending transactions into a block (round-robin PoA) up to the
    block gas limit; overflow stays pending for the next block. *)

val pending_count : t -> int

val head : t -> block
val block_count : t -> int
val receipt : t -> string -> receipt option

val receipts : t -> receipt list
(** Every receipt the chain knows (sealed and pending), sorted by
    transaction hash — the deterministic fact list the audit tool joins a
    journal against. *)

val validate : t -> bool
(** Re-check hash links, PoA rotation and transaction Merkle roots of the
    whole chain. *)

val storage_set : t -> contract:string -> key:string -> value:string -> unit
(** Write a per-contract storage slot (created on first write).  Direct
    (non-transactional) access for setup and inspection; transaction
    bodies must use {!env_storage_set}. *)

val storage_get : t -> contract:string -> key:string -> string option

val snapshot_codec : t Zkdet_codec.Codec.t
(** Canonical ledger snapshot: a ["ZCHN"] envelope (version 3) holding
    balances, per-sender account nonces, counters, gas parameters,
    validators, blocks, receipts (with their optional observability
    trace), pending transactions and per-contract storage, all
    deterministically ordered (see FORMATS.md).  The mempool is
    transient scheduling state and is not part of the snapshot. *)

val snapshot : t -> string
(** Serialize the whole ledger state. Deterministic: equal observable
    state yields equal bytes. *)

val restore : string -> (t, Zkdet_codec.Codec.error) result
(** Rebuild a chain from {!snapshot} bytes. Total on untrusted input;
    rejects snapshots with no validators, no blocks, or pending hashes
    that do not resolve to an unsealed receipt. *)

val state_hash : t -> string
(** SHA-256 (hex) of {!snapshot} — a commitment to the ledger state. *)
