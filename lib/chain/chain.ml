(* A blockchain simulator: account balances, gas-metered transaction
   execution, event logs, receipts, and proof-of-authority block
   production with hash-linked headers and SHA-256 transaction Merkle
   roots. The paper's threat model only assumes tamper-resistance and
   consistency of the ledger (§IV-A), which this substrate provides for
   the protocols and whose gas metering reproduces Table II.

   Every transaction body runs against a write buffer over the live
   state, and there are two ways to schedule one:

   - immediately ([execute]): auto-assign the sender's next account
     nonce, run the body, and apply its buffer to live state;
   - through a block ([submit] + [produce_block]): typed [Tx.t]
     descriptors flow through a [Mempool] (per-sender nonce ordering,
     replacement, gap holdback) and are executed optimistically in
     parallel over [Zkdet_parallel.Pool] against the frozen pre-block
     state, recording per-transaction read/write key sets; a sequential
     canonical-order merge ([Block_builder.merge]) commits
     non-conflicting speculations and re-executes the rest exactly as
     [execute] runs a body, so [state_hash] is byte-identical at any
     [ZKDET_DOMAINS].

   All state reached from transaction bodies must go through the
   [env_*] accessors: they read through the buffer, buffer the writes,
   and record the touched keys for conflict detection.  Contract code
   that keeps private OCaml state outside chain storage is only safe
   when run by [execute].  Receipts and journal records are produced on
   the initial domain only ([finalize] checks). *)

module Sha256 = Zkdet_hash.Sha256
module Keccak256 = Zkdet_hash.Keccak256
module Telemetry = Zkdet_telemetry.Telemetry
module Obs = Zkdet_obs.Obs
module Pool = Zkdet_parallel.Pool
module C = Zkdet_codec.Codec

module Address = struct
  type t = string (* 0x + 40 hex chars *)

  let of_seed (seed : string) : t =
    let h = Keccak256.digest ("zkdet-address/" ^ seed) in
    "0x" ^ Sha256.hex_of_string (String.sub h 12 20)

  let equal = String.equal
  let pp fmt a = Format.pp_print_string fmt a
  let to_string a = a
end

type event = { event_contract : string; event_name : string; event_data : string list }

(* Typed transaction/transfer failures. [error_to_string] preserves the
   exact strings the stringly-typed API used, so anything that matched on
   receipt error text keeps working through it. *)
type error =
  | Insufficient_funds of { account : Address.t; needed : int; available : int }
  | Out_of_gas
  | Revert of string
  | Fee_unpaid of { needed : int; available : int }

let error_to_string = function
  | Insufficient_funds _ -> "insufficient balance"
  | Out_of_gas -> "out of gas"
  | Revert msg -> msg
  | Fee_unpaid _ -> "fee: insufficient balance"

let pp_error fmt (e : error) =
  match e with
  | Insufficient_funds { account; needed; available } ->
    Format.fprintf fmt "insufficient balance (account %s: needed %d, available %d)"
      account needed available
  | Out_of_gas -> Format.fprintf fmt "out of gas"
  | Revert msg -> Format.fprintf fmt "revert: %s" msg
  | Fee_unpaid { needed; available } ->
    Format.fprintf fmt "fee unpaid (needed %d, available %d)" needed available

type receipt = {
  tx_hash : string;
  tx_label : string;
  sender : Address.t;
  gas_used : int;
  status : (unit, error) result;
  events : event list;
  block_number : int option; (* None while pending *)
  trace : (string * string) option;
      (* (trace_id, span_id) of the observability context the tx was
         submitted under, when journaling was active *)
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

type t = {
  balances : (Address.t, int) Hashtbl.t;
  account_nonces : (Address.t, int) Hashtbl.t;
      (* next unused per-sender nonce; absent = 0 *)
  mutable nonce : int; (* total applied transactions *)
  mutable pending : receipt list; (* reversed *)
  mutable blocks : block list; (* newest first *)
  receipts : (string, receipt) Hashtbl.t;
  validators : Address.t array;
  mutable clock : int;
  gas_limit : int; (* per transaction *)
  block_gas_limit : int;
  gas_price : int;
  storage : (string, (string, string) Hashtbl.t) Hashtbl.t;
      (* per-contract key/value store *)
  mempool : env Mempool.t; (* transient; not part of the snapshot *)
  mutable reexec_total : int;
      (* transactions re-executed sequentially after a speculation conflict *)
}

(** Execution environment passed to contract code. *)
and env = {
  chain : t;
  sender : Address.t;
  meter : Gas.meter;
  mutable tx_events : event list; (* reversed *)
  spec : spec;
}

(* A body's write buffer over the chain, and the keys it read and
   wrote. *)
and spec = {
  sp_balances : (Address.t, int) Hashtbl.t; (* write buffer *)
  sp_storage : (string * string, string) Hashtbl.t; (* (contract, key) *)
  sp_reads : Block_builder.Key_set.t;
  sp_writes : Block_builder.Key_set.t;
}

let genesis_validator = Address.of_seed "validator-0"

let create ?(validators = [| genesis_validator |]) ?(gas_limit = 30_000_000)
    ?(block_gas_limit = 30_000_000) ?(gas_price = 1)
    ?(mempool_capacity = 65_536) () =
  let genesis =
    {
      number = 0;
      parent_hash = String.make 64 '0';
      tx_root = Sha256.digest_hex "";
      tx_hashes = [];
      timestamp = 0;
      validator = validators.(0);
      block_hash = Sha256.digest_hex "zkdet-genesis";
    }
  in
  {
    balances = Hashtbl.create 16;
    account_nonces = Hashtbl.create 16;
    nonce = 0;
    pending = [];
    blocks = [ genesis ];
    receipts = Hashtbl.create 64;
    validators;
    clock = 0;
    gas_limit;
    block_gas_limit;
    gas_price;
    storage = Hashtbl.create 8;
    mempool = Mempool.create ~capacity:mempool_capacity ();
    reexec_total = 0;
  }

(* Per-contract key/value storage (the simulator's analogue of contract
   state slots). *)
let storage_set (chain : t) ~contract ~key ~value =
  let tbl =
    match Hashtbl.find_opt chain.storage contract with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.add chain.storage contract tbl;
      tbl
  in
  Hashtbl.replace tbl key value

let storage_get (chain : t) ~contract ~key =
  Option.bind (Hashtbl.find_opt chain.storage contract) (fun tbl ->
      Hashtbl.find_opt tbl key)

let balance (chain : t) (a : Address.t) =
  Option.value ~default:0 (Hashtbl.find_opt chain.balances a)

(** Credit an account out of thin air (test faucet / block rewards). *)
let faucet (chain : t) (a : Address.t) (amount : int) =
  Hashtbl.replace chain.balances a (balance chain a + amount)

let account_nonce (chain : t) (a : Address.t) =
  Option.value ~default:0 (Hashtbl.find_opt chain.account_nonces a)

exception Revert of string

(* ------------------------------------------------------------------ *)
(* Buffered state access for transaction bodies.

   Conflict keys use a NUL separator so no contract or slot name can
   alias another key; they never leave the runtime. *)

let balance_key (a : Address.t) = "b\x00" ^ a
let slot_key ~contract ~key = "s\x00" ^ contract ^ "\x00" ^ key

let env_meter (env : env) = env.meter

let env_balance (env : env) (a : Address.t) : int =
  let s = env.spec in
  Block_builder.Key_set.add s.sp_reads (balance_key a);
  match Hashtbl.find_opt s.sp_balances a with
  | Some v -> v
  | None -> balance env.chain a

let env_credit (env : env) (a : Address.t) (amount : int) =
  let b = env_balance env a in
  Block_builder.Key_set.add env.spec.sp_writes (balance_key a);
  Hashtbl.replace env.spec.sp_balances a (b + amount)

let env_debit (env : env) (a : Address.t) (amount : int) : (unit, error) result =
  let b = env_balance env a in
  if b < amount then
    Error (Insufficient_funds { account = a; needed = amount; available = b })
  else begin
    Block_builder.Key_set.add env.spec.sp_writes (balance_key a);
    Hashtbl.replace env.spec.sp_balances a (b - amount);
    Ok ()
  end

let env_storage_get (env : env) ~contract ~key : string option =
  let s = env.spec in
  Block_builder.Key_set.add s.sp_reads (slot_key ~contract ~key);
  match Hashtbl.find_opt s.sp_storage (contract, key) with
  | Some v -> Some v
  | None -> storage_get env.chain ~contract ~key

let env_storage_set (env : env) ~contract ~key ~value =
  Block_builder.Key_set.add env.spec.sp_writes (slot_key ~contract ~key);
  Hashtbl.replace env.spec.sp_storage (contract, key) value

let emit (env : env) ~contract ~name ~data =
  Gas.log env.meter ~topics:(1 + List.length data)
    ~data_bytes:(List.fold_left (fun a s -> a + String.length s) 0 data);
  env.tx_events <-
    { event_contract = contract; event_name = name; event_data = data }
    :: env.tx_events

(* ------------------------------------------------------------------ *)
(* The shared transaction core. *)

let fresh_spec () =
  {
    sp_balances = Hashtbl.create 8;
    sp_storage = Hashtbl.create 8;
    sp_reads = Block_builder.Key_set.create ();
    sp_writes = Block_builder.Key_set.create ();
  }

(* Charge base + calldata, run the body under the meter, settle the fee
   through the same buffer the body used (so the buffer also records
   the sender-balance write the fee causes).  Returns the final status,
   gas and the surviving events; writes nothing but [spec]. *)
let run_tx (chain : t) (spec : spec) ~(sender : Address.t) ~calldata
    (f : env -> unit) : (unit, error) result * int * event list =
  let meter = Gas.create ~limit:chain.gas_limit () in
  let env = { chain; sender; meter; tx_events = []; spec } in
  let status : (unit, error) result =
    try
      Gas.tx_base meter;
      Gas.calldata meter calldata;
      f env;
      Ok ()
    with
    | Revert msg -> Error (Revert msg)
    | Gas.Out_of_gas -> Error Out_of_gas
  in
  let gas_used = Gas.used meter in
  let fee = gas_used * chain.gas_price in
  let status =
    (* Exactly one debit: failed txs still pay for gas if they can. *)
    let paid = env_debit env sender fee in
    match (status, paid) with
    | Ok (), Ok () -> Ok ()
    | Ok (), Error (Insufficient_funds { needed; available; _ }) ->
      Error (Fee_unpaid { needed; available })
    | Ok (), (Error _ as e) -> e
    | (Error _ as e), _ -> e
  in
  (* A reverted (or fee-unpaid) transaction must leave no trace in the
     event log: its events never happened.  They were only accumulated in
     the env so far, so dropping them here discards them from the
     receipt, the block event history and the observability journal. *)
  let events =
    match status with Ok () -> List.rev env.tx_events | Error _ -> []
  in
  (status, gas_used, events)

(* Write a buffer through to live state. *)
let apply (chain : t) (spec : spec) =
  Hashtbl.iter (fun a v -> Hashtbl.replace chain.balances a v) spec.sp_balances;
  Hashtbl.iter
    (fun (c, k) v -> storage_set chain ~contract:c ~key:k ~value:v)
    spec.sp_storage

(* Run a body against a fresh buffer and apply the buffer, whatever the
   status (a failed transaction still pays its fee).  This is how
   [execute] runs every transaction and how [produce_block] re-executes
   a conflicting one. *)
let run_applied (chain : t) ~sender ~calldata f =
  let spec = fresh_spec () in
  let result = run_tx chain spec ~sender ~calldata f in
  apply chain spec;
  (spec, result)

(* Count, record and journal one applied transaction, in canonical
   order.  Both ways of scheduling a transaction funnel through here, so
   telemetry and the journal see identical streams regardless of how it
   was scheduled.  Only the initial domain may: receipts and journal
   records follow its program order. *)
let finalize (chain : t) ~tx_hash ~label ~(sender : Address.t) ~contract
    ~(status : (unit, error) result) ~gas_used ~events : receipt =
  if not (Domain.is_main_domain ()) then
    invalid_arg "Chain: transactions are finalized on the initial domain only";
  Telemetry.count "chain.txs" 1;
  Telemetry.count "chain.gas.total" gas_used;
  Telemetry.observe "chain.gas_per_tx" (float_of_int gas_used);
  (* Per-contract gas attribution only when the caller identifies the
     contract; no label-prefix guessing (the PR 8 deprecated fallback is
     gone). *)
  (if Telemetry.enabled () then
     match contract with
     | Some c -> Telemetry.count ("chain.gas.by_contract." ^ c) gas_used
     | None -> ());
  chain.nonce <- chain.nonce + 1;
  let trace =
    Option.map
      (fun (c : Obs.Trace_ctx.t) -> (c.trace_id, c.span_id))
      (Obs.current ())
  in
  let receipt =
    {
      tx_hash;
      tx_label = label;
      sender;
      gas_used;
      status;
      events;
      block_number = None;
      trace;
    }
  in
  chain.pending <- receipt :: chain.pending;
  Hashtbl.replace chain.receipts tx_hash receipt;
  if Obs.is_enabled () then begin
    Obs.emit
      (Zkdet_obs.Event.Tx_submitted
         { tx_hash; label; sender; gas_used; ok = Result.is_ok status });
    match status with
    | Ok () ->
      List.iter
        (fun e ->
          Obs.emit
            (Zkdet_obs.Event.Chain_event
               {
                 tx_hash;
                 contract = e.event_contract;
                 name = e.event_name;
                 data = e.event_data;
               }))
        events
    | Error e ->
      Obs.emit
        (Zkdet_obs.Event.Tx_reverted
           { tx_hash; label; reason = error_to_string e })
  end;
  receipt

(** Execute a transaction now: auto-assigns the sender's next account
    nonce, runs [f env], applies its writes and the fee, records the
    receipt. *)
let execute (chain : t) ~(sender : Address.t) ~(label : string)
    ?(calldata = "") ?contract (f : env -> unit) : receipt =
  Telemetry.with_span "chain.tx" @@ fun () ->
  let nonce = account_nonce chain sender in
  let _, (status, gas_used, events) = run_applied chain ~sender ~calldata f in
  Hashtbl.replace chain.account_nonces sender (nonce + 1);
  let tx_hash = Tx.hash_parts ~sender ~nonce ~label ~calldata in
  finalize chain ~tx_hash ~label ~sender ~contract ~status ~gas_used ~events

(* Merkle root over transaction hashes (SHA-256, duplicate-last padding). *)
let merkle_root (hashes : string list) : string =
  let rec level = function
    | [] -> Sha256.digest_hex ""
    | [ h ] -> h
    | hs ->
      let rec pair = function
        | [] -> []
        | [ a ] -> [ Sha256.digest_hex (a ^ a) ]
        | a :: b :: rest -> Sha256.digest_hex (a ^ b) :: pair rest
      in
      level (pair hs)
  in
  level hashes

(** Seal pending transactions into a block (round-robin PoA), in arrival
    order, up to the block gas limit; overflow stays pending for the next
    block. At least one transaction is included if any is pending. *)
let mine (chain : t) : block =
  let parent = List.hd chain.blocks in
  let all = List.rev chain.pending in
  let txs, overflow =
    let rec take acc gas = function
      | [] -> (List.rev acc, [])
      | r :: rest ->
        if acc <> [] && gas + r.gas_used > chain.block_gas_limit then
          (List.rev acc, r :: rest)
        else take (r :: acc) (gas + r.gas_used) rest
    in
    take [] 0 all
  in
  let tx_hashes = List.map (fun r -> r.tx_hash) txs in
  chain.clock <- chain.clock + 1;
  let number = parent.number + 1 in
  let validator = chain.validators.(number mod Array.length chain.validators) in
  let tx_root = merkle_root tx_hashes in
  let block_hash =
    Sha256.digest_hex
      (Printf.sprintf "%d/%s/%s/%d/%s" number parent.block_hash tx_root
         chain.clock validator)
  in
  let block =
    { number; parent_hash = parent.block_hash; tx_root; tx_hashes;
      timestamp = chain.clock; validator; block_hash }
  in
  chain.blocks <- block :: chain.blocks;
  List.iter
    (fun r ->
      Hashtbl.replace chain.receipts r.tx_hash { r with block_number = Some number })
    txs;
  chain.pending <- List.rev overflow;
  if Obs.is_enabled () then
    List.iter
      (fun r ->
        Obs.emit (Zkdet_obs.Event.Tx_mined { tx_hash = r.tx_hash; block = number }))
      txs;
  block

(* ------------------------------------------------------------------ *)
(* Mempool submission and parallel block production. *)

let mempool_size (chain : t) = Mempool.size chain.mempool

let submit (chain : t) (tx : env Tx.t) : Mempool.admit =
  let res =
    Mempool.submit chain.mempool
      ~account_nonce:(account_nonce chain tx.Tx.sender)
      tx
  in
  Telemetry.count "chain.mempool.submitted" 1;
  (match res with
  | Mempool.Admitted | Mempool.Replaced _ -> ()
  | Mempool.Rejected_stale _ | Mempool.Rejected_full ->
    Telemetry.count "chain.mempool.rejected" 1);
  if Obs.is_enabled () then begin
    let h = Tx.hash tx in
    match res with
    | Mempool.Admitted ->
      Obs.emit
        (Zkdet_obs.Event.Mempool_admitted
           { tx_hash = h; sender = tx.Tx.sender; nonce = tx.Tx.nonce;
             replaced = false })
    | Mempool.Replaced old ->
      Obs.emit
        (Zkdet_obs.Event.Mempool_dropped { tx_hash = old; reason = "replaced" });
      Obs.emit
        (Zkdet_obs.Event.Mempool_admitted
           { tx_hash = h; sender = tx.Tx.sender; nonce = tx.Tx.nonce;
             replaced = true })
    | Mempool.Rejected_stale { expected } ->
      Obs.emit
        (Zkdet_obs.Event.Mempool_dropped
           { tx_hash = h;
             reason = Printf.sprintf "stale-nonce/expected-%d" expected })
    | Mempool.Rejected_full ->
      Obs.emit
        (Zkdet_obs.Event.Mempool_dropped { tx_hash = h; reason = "pool-full" })
  end;
  res

(** Drain the mempool's ready transactions and seal them into a block.

    Phase A executes every candidate speculatively, in parallel across
    the [Zkdet_parallel] pool, against the frozen pre-block state: all
    writes land in per-transaction buffers, all touched keys are
    recorded, and nothing is journaled (workers must stay silent for
    journal determinism).  Phase B walks the candidates sequentially in
    canonical mempool order: non-conflicting speculations commit their
    buffers, conflicting ones re-execute against live state
    ([Block_builder.merge]), and every receipt, telemetry count and
    journal record is produced in that same order.  The result is
    byte-identical at any domain count. *)
let produce_block ?max_txs (chain : t) : block =
  Telemetry.with_span "chain.produce_block" @@ fun () ->
  let txs =
    Array.of_list
      (Mempool.take_ready chain.mempool
         ~account_nonce:(fun s -> account_nonce chain s)
         ?max:max_txs ())
  in
  let count = Array.length txs in
  (* Phase A: parallel optimistic execution against the frozen state. *)
  let specs =
    Telemetry.with_span "chain.block.speculate" @@ fun () ->
    Pool.parallel_map_array
      (fun (tx : env Tx.t) ->
        let spec = fresh_spec () in
        (spec,
         run_tx chain spec ~sender:tx.Tx.sender ~calldata:tx.Tx.calldata tx.Tx.body))
      txs
  in
  (* Phase B: deterministic canonical-order merge. *)
  let results = Array.make count None in
  let sets i =
    let spec, _ = specs.(i) in
    (spec.sp_reads, spec.sp_writes)
  in
  let commit i =
    let spec, result = specs.(i) in
    apply chain spec;
    results.(i) <- Some result
  in
  let reexec i =
    let tx = txs.(i) in
    let spec, result =
      run_applied chain ~sender:tx.Tx.sender ~calldata:tx.Tx.calldata tx.Tx.body
    in
    results.(i) <- Some result;
    spec.sp_writes
  in
  let decisions = Block_builder.merge ~count ~sets ~commit ~reexec in
  let reexecuted = Block_builder.reexec_count decisions in
  chain.reexec_total <- chain.reexec_total + reexecuted;
  Telemetry.count "chain.block.txs" count;
  Telemetry.count "chain.block.reexecuted" reexecuted;
  (* Receipts, account nonces and journal records in canonical order. *)
  Array.iteri
    (fun i (tx : env Tx.t) ->
      match results.(i) with
      | None -> assert false
      | Some (status, gas_used, events) ->
        Hashtbl.replace chain.account_nonces tx.Tx.sender (tx.Tx.nonce + 1);
        ignore
          (finalize chain ~tx_hash:(Tx.hash tx) ~label:tx.Tx.label
             ~sender:tx.Tx.sender ~contract:tx.Tx.contract ~status ~gas_used
             ~events))
    txs;
  let block = mine chain in
  if Obs.is_enabled () then
    Obs.emit
      (Zkdet_obs.Event.Block_built
         { block = block.number; txs = List.length block.tx_hashes; reexecuted });
  block

let reexec_total (chain : t) = chain.reexec_total
let pending_count (chain : t) = List.length chain.pending
let head (chain : t) = List.hd chain.blocks
let block_count (chain : t) = List.length chain.blocks
let receipt (chain : t) hash = Hashtbl.find_opt chain.receipts hash

let receipts (chain : t) : receipt list =
  List.sort
    (fun a b -> String.compare a.tx_hash b.tx_hash)
    (Hashtbl.fold (fun _ r acc -> r :: acc) chain.receipts [])

(** Validate hash-linking, PoA rotation and tx roots of the whole chain. *)
let validate (chain : t) : bool =
  let rec go = function
    | [] | [ _ ] -> true
    | child :: (parent :: _ as rest) ->
      String.equal child.parent_hash parent.block_hash
      && child.number = parent.number + 1
      && String.equal child.tx_root (merkle_root child.tx_hashes)
      && Address.equal child.validator
           chain.validators.(child.number mod Array.length chain.validators)
      && String.equal child.block_hash
           (Sha256.digest_hex
              (Printf.sprintf "%d/%s/%s/%d/%s" child.number child.parent_hash
                 child.tx_root child.timestamp child.validator))
      && go rest
  in
  go chain.blocks

(* ------------------------------------------------------------------ *)
(* Canonical snapshots ("ZCHN" envelope, version 3; see FORMATS.md).
   Version 2 added the optional observability trace to each receipt;
   version 3 added per-sender account nonces.

   The whole ledger state serializes to one deterministic byte string:
   hashtables are emitted as key-sorted association lists, blocks oldest
   first, pending transactions in arrival order (as hashes into the
   receipt table).  [state_hash] is the SHA-256 of the snapshot, so two
   chains agree on their hash iff they agree on their observable state.
   The mempool is transient scheduling state (bodies are closures) and
   deliberately outside the snapshot. *)

let event_codec : event C.t =
  C.map
    (fun e -> (e.event_contract, e.event_name, e.event_data))
    (fun (event_contract, event_name, event_data) ->
      { event_contract; event_name; event_data })
    (C.triple C.str C.str (C.list C.str))

let error_codec : error C.t =
  C.union "chain.error"
    [
      C.case ~tag:0
        (C.triple C.str C.u64 C.u64)
        (fun (account, needed, available) ->
          Insufficient_funds { account; needed; available })
        (function
          | Insufficient_funds { account; needed; available } ->
            Some (account, needed, available)
          | _ -> None);
      C.case ~tag:1 C.empty
        (fun () -> Out_of_gas)
        (function Out_of_gas -> Some () | _ -> None);
      C.case ~tag:2 C.str
        (fun msg : error -> Revert msg)
        (function (Revert msg : error) -> Some msg | _ -> None);
      C.case ~tag:3 (C.pair C.u64 C.u64)
        (fun (needed, available) -> Fee_unpaid { needed; available })
        (function
          | Fee_unpaid { needed; available } -> Some (needed, available)
          | _ -> None);
    ]

let status_codec : (unit, error) result C.t =
  C.union "chain.status"
    [
      C.case ~tag:0 C.empty
        (fun () -> Ok ())
        (function Ok () -> Some () | Error _ -> None);
      C.case ~tag:1 error_codec
        (fun e -> Error e)
        (function Error e -> Some e | Ok () -> None);
    ]

let receipt_codec : receipt C.t =
  C.map
    (fun r ->
      ( (r.tx_hash, r.tx_label, r.sender),
        (r.gas_used, r.status, r.events),
        r.block_number,
        r.trace ))
    (fun ( (tx_hash, tx_label, sender),
           (gas_used, status, events),
           block_number,
           trace ) ->
      { tx_hash; tx_label; sender; gas_used; status; events; block_number; trace })
    (C.quad
       (C.triple C.str C.str C.str)
       (C.triple C.u64 status_codec (C.list event_codec))
       (C.option C.u32)
       (C.option (C.pair C.str C.str)))

let block_codec : block C.t =
  C.map
    (fun b ->
      ( (b.number, b.parent_hash, b.tx_root),
        (b.tx_hashes, b.timestamp),
        (b.validator, b.block_hash) ))
    (fun ( (number, parent_hash, tx_root),
           (tx_hashes, timestamp),
           (validator, block_hash) ) ->
      { number; parent_hash; tx_root; tx_hashes; timestamp; validator;
        block_hash })
    (C.triple
       (C.triple C.u64 C.str C.str)
       (C.pair (C.list C.str) C.u64)
       (C.pair C.str C.str))

let sorted_bindings (tbl : (string, 'a) Hashtbl.t) : (string * 'a) list =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let snapshot_codec : t C.t =
  let payload =
    C.pair
      (C.pair
         (C.pair
            (C.pair (C.list (C.pair C.str C.u64)) (C.list (C.pair C.str C.u64)))
            (C.pair C.u64 C.u64))
         (C.pair (C.triple C.u64 C.u64 C.u64) (C.list C.str)))
      (C.pair
         (C.pair (C.list block_codec) (C.list receipt_codec))
         (C.pair (C.list C.str)
            (C.list (C.pair C.str (C.list (C.pair C.str C.str))))))
  in
  let proj (chain : t) =
    let balances = sorted_bindings chain.balances in
    let account_nonces = sorted_bindings chain.account_nonces in
    let receipts =
      List.sort
        (fun a b -> String.compare a.tx_hash b.tx_hash)
        (Hashtbl.fold (fun _ r acc -> r :: acc) chain.receipts [])
    in
    let storage =
      sorted_bindings chain.storage
      |> List.map (fun (c, tbl) -> (c, sorted_bindings tbl))
    in
    ( ( ((balances, account_nonces), (chain.nonce, chain.clock)),
        ( (chain.gas_limit, chain.block_gas_limit, chain.gas_price),
          Array.to_list chain.validators ) ),
      ( (List.rev chain.blocks, receipts),
        (List.rev_map (fun r -> r.tx_hash) chain.pending, storage) ) )
  in
  let inj
      ( ( ((balances, account_nonces), (nonce, clock)),
          ((gas_limit, block_gas_limit, gas_price), validators) ),
        ((blocks, receipts), (pending, storage)) ) =
    if validators = [] then Error "snapshot has no validators"
    else if blocks = [] then Error "snapshot has no blocks"
    else begin
      let balances_tbl = Hashtbl.create 16 in
      List.iter (fun (a, v) -> Hashtbl.replace balances_tbl a v) balances;
      let nonces_tbl = Hashtbl.create 16 in
      List.iter (fun (a, v) -> Hashtbl.replace nonces_tbl a v) account_nonces;
      let receipts_tbl = Hashtbl.create 64 in
      List.iter (fun r -> Hashtbl.replace receipts_tbl r.tx_hash r) receipts;
      let storage_tbl = Hashtbl.create 8 in
      List.iter
        (fun (c, kvs) ->
          let tbl = Hashtbl.create 8 in
          List.iter (fun (k, v) -> Hashtbl.replace tbl k v) kvs;
          Hashtbl.replace storage_tbl c tbl)
        storage;
      (* Pending transactions are hashes into the receipt table; each must
         resolve to a receipt not yet sealed into a block. *)
      let rec resolve acc = function
        | [] -> Ok acc (* acc is newest first, the in-memory order *)
        | h :: rest -> (
          match Hashtbl.find_opt receipts_tbl h with
          | Some ({ block_number = None; _ } as r) -> resolve (r :: acc) rest
          | Some _ -> Error "pending receipt already sealed in a block"
          | None -> Error "pending tx hash has no receipt")
      in
      match resolve [] pending with
      | Error _ as e -> e
      | Ok pending ->
        Ok
          {
            balances = balances_tbl;
            account_nonces = nonces_tbl;
            nonce;
            pending;
            blocks = List.rev blocks;
            receipts = receipts_tbl;
            validators = Array.of_list validators;
            clock;
            gas_limit;
            block_gas_limit;
            gas_price;
            storage = storage_tbl;
            mempool = Mempool.create ();
            reexec_total = 0;
          }
    end
  in
  C.with_context "chain.snapshot"
    (C.envelope ~magic:"ZCHN" ~version:3 (C.conv proj inj payload))

let snapshot (chain : t) : string = C.encode snapshot_codec chain
let restore (bytes : string) : (t, C.error) result = C.decode snapshot_codec bytes
let state_hash (chain : t) : string = Sha256.digest_hex (snapshot chain)
