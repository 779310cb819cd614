(* Append-only ZJNL event journal with a running SHA-256 hash chain.

   File layout (FORMATS.md "Event journal (ZJNL)"):

     "ZJNL" | u16 version (= 1) | record*

   followed by zero or more records, each

     u32 length | entry bytes

   with length at most [max_record_bytes], where the entry bytes are
   [entry_codec]: the entry body (sequence number, trace/span identity,
   event) followed by a 32-byte chain hash

     entry_hash_n = SHA-256(prev_hash || body_bytes)
     prev_hash_0  = SHA-256(header bytes)

   The chain makes the journal tamper-evident: flipping a byte, dropping
   an interior record or reordering records breaks every subsequent hash.
   (Truncation at a record boundary keeps the chain valid; the audit layer
   catches it through unterminated traces.)

   Unlike the single-shot artifact envelopes, a journal is a stream: the
   writer appends and flushes one record at a time so a crashed process
   still leaves a readable prefix.  Records are therefore length-framed by
   hand and each slice is decoded with the (whole-input, canonical)
   [entry_codec]. *)

module C = Zkdet_codec.Codec
module Sha256 = Zkdet_hash.Sha256

let magic = "ZJNL"
let version = 1

let header_bytes =
  let b = Bytes.create 6 in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint16_be b 4 version;
  Bytes.to_string b

let genesis_hash = Sha256.digest header_bytes

(* The largest record a journal may hold.  Records are a few hundred
   bytes (the 25 of a 2-entry exchange average ~150), so a longer length
   prefix is corruption, not a write still in progress. *)
let max_record_bytes = 65_536

type entry = {
  seq : int;  (** 0-based position in the journal *)
  trace_id : string;  (** 16 lowercase hex chars *)
  span_id : string;  (** 16 lowercase hex chars *)
  parent : string option;  (** enclosing span, [None] for a trace root *)
  event : Event.t;
  entry_hash : string;  (** 32 raw bytes, chains to the previous entry *)
}

let body_codec : (int * (string * string * string option) * Event.t) C.t =
  C.triple C.u64 (C.triple C.str C.str (C.option C.str)) Event.codec

let entry_codec : entry C.t =
  C.with_context "obs.journal.entry"
  @@ C.map
       (fun e ->
         ((e.seq, (e.trace_id, e.span_id, e.parent), e.event), e.entry_hash))
       (fun ((seq, (trace_id, span_id, parent), event), entry_hash) ->
         { seq; trace_id; span_id; parent; event; entry_hash })
       (C.pair body_codec (C.bytes_fixed 32))

let encode_body ~seq ~trace_id ~span_id ~parent event =
  C.encode body_codec (seq, (trace_id, span_id, parent), event)

type error =
  | Bad_header of string
  | Bad_record of { index : int; error : C.error }
  | Hash_mismatch of { index : int }
  | Seq_mismatch of { index : int; got : int }
  | Truncated_record of { index : int }
  | Record_too_long of { index : int; length : int }

let error_to_string = function
  | Bad_header got ->
      Printf.sprintf "bad journal header (expected \"ZJNL\" v%d, got %S)"
        version got
  | Bad_record { index; error } ->
      Printf.sprintf "record %d undecodable: %s" index (C.error_to_string error)
  | Hash_mismatch { index } ->
      Printf.sprintf
        "record %d breaks the hash chain (journal tampered, truncated mid-chain \
         or reordered)"
        index
  | Seq_mismatch { index; got } ->
      Printf.sprintf "record %d carries sequence number %d (events dropped?)"
        index got
  | Truncated_record { index } ->
      Printf.sprintf "record %d is truncated mid-frame" index
  | Record_too_long { index; length } ->
      Printf.sprintf "record %d claims %d bytes, over the %d-byte bound" index
        length max_record_bytes

(* {2 Writer} *)

type writer = {
  oc : out_channel;
  mutable next_seq : int;
  mutable prev_hash : string;
}

let create_writer path : writer =
  let oc = open_out_bin path in
  output_string oc header_bytes;
  flush oc;
  { oc; next_seq = 0; prev_hash = genesis_hash }

let append (w : writer) ~trace_id ~span_id ~parent (event : Event.t) : unit =
  let seq = w.next_seq in
  let body = encode_body ~seq ~trace_id ~span_id ~parent event in
  let entry_hash = Sha256.digest (w.prev_hash ^ body) in
  let record = body ^ entry_hash in
  if String.length record > max_record_bytes then
    invalid_arg "Journal.append: record over the frame bound";
  let len = Bytes.create 4 in
  Bytes.set_int32_be len 0 (Int32.of_int (String.length record));
  output_bytes w.oc len;
  output_string w.oc record;
  flush w.oc;
  w.next_seq <- seq + 1;
  w.prev_hash <- entry_hash

let close_writer (w : writer) : unit = close_out w.oc

(* {2 Reader} *)

(* The one frame walker behind both readers.  From byte [pos] of [s], with
   the chain state (next sequence number, previous hash) of the records
   before [pos], decode and verify every complete frame: the length
   prefix, the record, its sequence number and its chain hash.  Stops at
   the end of [s] or before a partial frame, and returns the verified
   entries, the state after the last one, and whether a partial frame is
   left.  A negative length, a length over [max_record_bytes] or a failed
   check is an error: only a frame that could be complete is waited
   for. *)
type walk = {
  w_entries : entry list;
  w_pos : int;  (** end of the last complete frame *)
  w_seq : int;
  w_prev_hash : string;
  w_partial : bool;
}

let walk_frames (s : string) ~pos ~seq ~prev_hash : (walk, error) result =
  let n = String.length s in
  let rec go pos seq prev_hash acc =
    let stop partial =
      Ok
        { w_entries = List.rev acc; w_pos = pos; w_seq = seq;
          w_prev_hash = prev_hash; w_partial = partial }
    in
    if pos = n then stop false
    else if n - pos < 4 then stop true
    else
      let len = Int32.to_int (String.get_int32_be s pos) in
      if len < 0 then Error (Truncated_record { index = seq })
      else if len > max_record_bytes then
        Error (Record_too_long { index = seq; length = len })
      else if n - pos - 4 < len then stop true
      else
        let record = String.sub s (pos + 4) len in
        match C.decode entry_codec record with
        | Error e -> Error (Bad_record { index = seq; error = e })
        | Ok entry when entry.seq <> seq ->
          Error (Seq_mismatch { index = seq; got = entry.seq })
        | Ok entry ->
          let body = String.sub record 0 (len - 32) in
          let expect = Sha256.digest (prev_hash ^ body) in
          if not (String.equal expect entry.entry_hash) then
            Error (Hash_mismatch { index = seq })
          else go (pos + 4 + len) (seq + 1) expect (entry :: acc)
  in
  go pos seq prev_hash []

(* Decode + verify a whole journal held in memory.  Verification walks the
   hash chain and the sequence numbers; any break is a typed error, and
   so is a partial last frame. *)
let of_bytes (s : string) : (entry list, error) result =
  let n = String.length s in
  if n < 6 || String.sub s 0 6 <> header_bytes then
    Error (Bad_header (String.sub s 0 (min n 6)))
  else
    match walk_frames s ~pos:6 ~seq:0 ~prev_hash:genesis_hash with
    | Error _ as e -> e
    | Ok w when w.w_partial -> Error (Truncated_record { index = w.w_seq })
    | Ok w -> Ok w.w_entries

let read_file (path : string) : (entry list, error) result =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_bytes (really_input_string ic (in_channel_length ic)))

(* {2 Tail reader}

   Incremental reader over a journal another process is still appending
   to.  The writer flushes whole records, but a poll can still race a
   write mid-frame (or mid-header), so a partial trailing frame is a
   normal "try again later" condition, not corruption: the reader simply
   stops before it and re-reads from the same offset next time.  A frame
   whose length is over the bound can never complete, so it is an error
   here as in [of_bytes].  Chain state (offset, previous hash, next
   sequence number) carries across polls, so each record is verified
   exactly once. *)

type tail = {
  t_path : string;
  mutable t_pos : int;  (** byte offset of the first unconsumed frame *)
  mutable t_seq : int;
  mutable t_prev_hash : string;
  mutable t_header_ok : bool;
}

let create_tail path =
  {
    t_path = path;
    t_pos = 0;
    t_seq = 0;
    t_prev_hash = genesis_hash;
    t_header_ok = false;
  }

let tail_seq t = t.t_seq

let poll_tail (t : tail) : (entry list, error) result =
  match open_in_bin t.t_path with
  | exception Sys_error _ -> Ok [] (* not created yet: wait *)
  | ic ->
    let base = t.t_pos in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          seek_in ic base;
          really_input_string ic (max 0 (in_channel_length ic - base)))
    in
    (* A partial last frame is the writer mid-append: stop before it and
       start there next time. *)
    let consume pos =
      match walk_frames s ~pos ~seq:t.t_seq ~prev_hash:t.t_prev_hash with
      | Error _ as e -> e
      | Ok w ->
        t.t_pos <- base + w.w_pos;
        t.t_seq <- w.w_seq;
        t.t_prev_hash <- w.w_prev_hash;
        Ok w.w_entries
    in
    if t.t_header_ok then consume 0
    else if String.length s < 6 then Ok [] (* header still being written *)
    else if String.sub s 0 6 <> header_bytes then
      Error (Bad_header (String.sub s 0 6))
    else begin
      t.t_header_ok <- true;
      t.t_pos <- 6;
      consume 6
    end
