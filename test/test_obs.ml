(* Observability layer: ZJNL journal round-trip and tamper detection,
   deterministic trace propagation through a full exchange, and audit
   reconstruction (including the reverted-events causal check). *)

module Fr = Zkdet_field.Bn254.Fr
module Chain = Zkdet_chain.Chain
module Obs = Zkdet_obs.Obs
module Event = Zkdet_obs.Event
module Journal = Zkdet_obs.Journal
module Audit = Zkdet_obs.Audit
module Scenario = Zkdet_core.Scenario
module Pool = Zkdet_parallel.Pool

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Every test owns the global Obs state: journal to a fresh file, run,
   then disable so other suites are unaffected. *)
let with_journal name f =
  let path = tmp name in
  Obs.set_journal_path (Some path);
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.set_journal_path None)
    (fun () ->
      let r = f path in
      Obs.close ();
      r)

let entries_of path =
  match Journal.read_file path with
  | Ok es -> es
  | Error e -> Alcotest.failf "journal unreadable: %s" (Journal.error_to_string e)

(* ---- journal format ---- *)

let test_journal_roundtrip () =
  let entries =
    with_journal "obs_roundtrip.zjnl" (fun path ->
        Obs.with_trace "t" (fun () ->
            Obs.emit (Event.Protocol_step { protocol = "p"; step = "s"; detail = [ ("k", "v") ] });
            Obs.with_span "inner" (fun () ->
                Obs.emit (Event.Proof_verified { system = "plonk"; ok = true })));
        Obs.close ();
        entries_of path)
  in
  Alcotest.(check int) "entry count" 6 (List.length entries);
  List.iteri
    (fun i (e : Journal.entry) ->
      Alcotest.(check int) "seq contiguous" i e.Journal.seq)
    entries;
  match (List.hd entries).Journal.event with
  | Event.Trace_begin { label } -> Alcotest.(check string) "label" "t" label
  | _ -> Alcotest.fail "first entry is not Trace_begin"

let test_journal_tamper_detected () =
  with_journal "obs_tamper.zjnl" (fun path ->
      Obs.with_trace "t" (fun () ->
          for i = 0 to 9 do
            Obs.emit
              (Event.Protocol_step
                 { protocol = "p"; step = string_of_int i; detail = [] })
          done);
      Obs.close ();
      let bytes = read_file path in
      (* flip one bit in the middle of the stream *)
      let tampered = Bytes.of_string bytes in
      let mid = Bytes.length tampered / 2 in
      Bytes.set tampered mid (Char.chr (Char.code (Bytes.get tampered mid) lxor 1));
      (match Journal.of_bytes (Bytes.to_string tampered) with
      | Ok _ -> Alcotest.fail "tampered journal accepted"
      | Error _ -> ());
      (* dropping an interior record breaks the chain too *)
      let entries = entries_of path in
      Alcotest.(check int) "12 entries" 12 (List.length entries);
      let header = String.sub bytes 0 6 in
      let records =
        (* re-slice the records by their length prefixes *)
        let rec go off acc =
          if off >= String.length bytes then List.rev acc
          else
            let len =
              Int32.to_int (String.get_int32_be bytes off) land 0xffffffff
            in
            go (off + 4 + len) (String.sub bytes off (4 + len) :: acc)
        in
        go 6 []
      in
      let without_third =
        header :: List.filteri (fun i _ -> i <> 2) records |> String.concat ""
      in
      match Journal.of_bytes without_third with
      | Ok _ -> Alcotest.fail "journal with a dropped record accepted"
      | Error (Journal.Hash_mismatch _) | Error (Journal.Seq_mismatch _) -> ()
      | Error e ->
        Alcotest.failf "unexpected error: %s" (Journal.error_to_string e))

(* Every prefix and every single-bit flip of a real journal.  At each
   truncation the tail returns exactly the complete records and no error;
   [of_bytes] accepts only record boundaries, where the partial audit
   passes; and every flip is a typed error, never [Ok] or an exception. *)
let test_journal_prefixes_and_flips () =
  let bytes =
    with_journal "obs_prefix.zjnl" (fun path ->
        let o = Scenario.run_cfg { Scenario.Config.default with seed = 5; n = 2 } in
        Alcotest.(check bool) "exchange ok" true o.Scenario.ok;
        Obs.close ();
        read_file path)
  in
  let entries =
    match Journal.of_bytes bytes with
    | Ok es -> es
    | Error e -> Alcotest.failf "journal unreadable: %s" (Journal.error_to_string e)
  in
  let records = List.length entries in
  (* [ends.(k)] is the length of the prefix holding the first k records *)
  let ends = Array.make (records + 1) 6 in
  for k = 1 to records do
    let prev = ends.(k - 1) in
    ends.(k) <- prev + 4 + Int32.to_int (String.get_int32_be bytes prev)
  done;
  Alcotest.(check int) "frames cover the journal" (String.length bytes) ends.(records);
  let hashes es = List.map (fun (e : Journal.entry) -> e.Journal.entry_hash) es in
  let first k = List.filteri (fun i _ -> i < k) (hashes entries) in
  let cut = tmp "obs_prefix_cut.zjnl" in
  let complete = ref 0 in
  for len = 0 to String.length bytes do
    if !complete < records && ends.(!complete + 1) <= len then incr complete;
    let complete = !complete in
    let prefix = String.sub bytes 0 len in
    let oc = open_out_bin cut in
    output_string oc prefix;
    close_out oc;
    (match Journal.poll_tail (Journal.create_tail cut) with
    | Ok es ->
      if hashes es <> first complete then
        Alcotest.failf "prefix %d: tail returned %d records, not the %d complete ones"
          len (List.length es) complete
    | Error e ->
      Alcotest.failf "prefix %d: tail error %s" len (Journal.error_to_string e));
    let boundary = len >= 6 && ends.(complete) = len in
    match Journal.of_bytes prefix with
    | Ok es ->
      if not boundary then Alcotest.failf "prefix %d accepted off a record boundary" len;
      if hashes es <> first complete then Alcotest.failf "prefix %d: wrong records" len;
      if not (Audit.run ~partial:true es).Audit.ok then
        Alcotest.failf "prefix %d: partial audit failed" len
    | Error e ->
      if boundary then
        Alcotest.failf "boundary %d rejected: %s" len (Journal.error_to_string e)
  done;
  (* [frame_of.(i)] is the start of the frame whose length prefix holds
     byte [i], or -1 *)
  let frame_of = Array.make (String.length bytes) (-1) in
  for k = 0 to records - 1 do
    for b = 0 to 3 do
      frame_of.(ends.(k) + b) <- ends.(k)
    done
  done;
  let flipped = Bytes.of_string bytes in
  for i = 0 to String.length bytes - 1 do
    for bit = 0 to 7 do
      let c = Bytes.get flipped i in
      Bytes.set flipped i (Char.chr (Char.code c lxor (1 lsl bit)));
      (match Journal.of_bytes (Bytes.to_string flipped) with
      | Ok _ -> Alcotest.failf "flip of byte %d bit %d accepted" i bit
      | Error _ -> ()
      | exception ex ->
        Alcotest.failf "flip of byte %d bit %d raised %s" i bit (Printexc.to_string ex));
      (* A length over the bound can never complete: the tail must
         report it, not wait for it. *)
      (if frame_of.(i) >= 0 then
         let len = Int32.to_int (Bytes.get_int32_be flipped frame_of.(i)) in
         if len < 0 || len > Journal.max_record_bytes then begin
           let oc = open_out_bin cut in
           output_bytes oc flipped;
           close_out oc;
           match Journal.poll_tail (Journal.create_tail cut) with
           | Error _ -> ()
           | Ok es ->
             Alcotest.failf "flip of byte %d bit %d (length %d): tail Ok with %d records"
               i bit len (List.length es)
         end);
      Bytes.set flipped i c
    done
  done

(* Bit 30 of the second frame's length in a 3-record journal: the tail
   must fail on every poll, as [of_bytes] does, instead of waiting for
   a gigabyte frame. *)
let test_journal_oversized_length () =
  let path = tmp "obs_oversized.zjnl" in
  let w = Journal.create_writer path in
  List.iteri
    (fun i label ->
      Journal.append w ~trace_id:"0000000000000001"
        ~span_id:(Printf.sprintf "%016d" i) ~parent:None
        (Event.Trace_begin { label }))
    [ "a"; "b"; "c" ];
  Journal.close_writer w;
  let bytes = Bytes.of_string (read_file path) in
  let second = 6 + 4 + Int32.to_int (Bytes.get_int32_be bytes 6) in
  Bytes.set bytes second (Char.chr (Char.code (Bytes.get bytes second) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc;
  let tail = Journal.create_tail path in
  for poll = 1 to 3 do
    match Journal.poll_tail tail with
    | Error (Journal.Record_too_long { index = 1; _ }) -> ()
    | Error e -> Alcotest.failf "poll %d: wrong error %s" poll (Journal.error_to_string e)
    | Ok es -> Alcotest.failf "poll %d: Ok with %d records" poll (List.length es)
  done;
  match Journal.of_bytes (Bytes.to_string bytes) with
  | Error (Journal.Record_too_long { index = 1; _ }) -> ()
  | Error e -> Alcotest.failf "of_bytes: wrong error %s" (Journal.error_to_string e)
  | Ok _ -> Alcotest.fail "of_bytes accepted the journal"

(* ---- trace propagation through the full exchange ---- *)

let test_single_trace_and_tree () =
  with_journal "obs_exchange.zjnl" (fun path ->
      let o = Scenario.run_cfg { Scenario.Config.default with seed = 11; n = 4 } in
      Alcotest.(check bool) "exchange ok" true o.Scenario.ok;
      Obs.close ();
      let entries = entries_of path in
      (* one trace id across every event of the run *)
      let ids =
        List.sort_uniq compare
          (List.map (fun (e : Journal.entry) -> e.Journal.trace_id) entries)
      in
      Alcotest.(check int) "single trace id" 1 (List.length ids);
      (* parent links form a tree rooted at the trace: the audit's
         structural pass reports any orphan or cross-trace span *)
      let report = Audit.run entries in
      List.iter
        (fun (i : Audit.issue) ->
          if i.Audit.severity = Audit.Err then
            Alcotest.failf "audit error: %s" i.Audit.message)
        report.Audit.issues;
      Alcotest.(check bool) "audit ok" true report.Audit.ok;
      (* the exchange produced proof + tx + storage events under spans *)
      let kinds = List.map (fun (e : Journal.entry) -> Event.kind e.Journal.event) entries in
      List.iter
        (fun k ->
          if not (List.mem k kinds) then Alcotest.failf "missing event kind %s" k)
        [ "trace_begin"; "span_begin"; "proof_generated"; "proof_verified";
          "tx_submitted"; "tx_mined"; "chunk_stored"; "chunk_fetched";
          "protocol_step"; "trace_end" ])

let test_audit_joins_chain () =
  with_journal "obs_join.zjnl" (fun path ->
      let o = Scenario.run_cfg { Scenario.Config.default with seed = 12; n = 4 } in
      Obs.close ();
      let entries = entries_of path in
      let facts =
        List.map
          (fun (r : Chain.receipt) ->
            {
              Audit.fact_tx_hash = r.Chain.tx_hash;
              fact_label = r.Chain.tx_label;
              fact_ok = Result.is_ok r.Chain.status;
              fact_block = r.Chain.block_number;
              fact_events =
                List.map
                  (fun (ev : Chain.event) ->
                    (ev.Chain.event_contract, ev.Chain.event_name,
                     ev.Chain.event_data))
                  r.Chain.events;
            })
          (Chain.receipts o.Scenario.chain)
      in
      let report = Audit.run ~chain:facts entries in
      Alcotest.(check bool) "audit with chain join ok" true report.Audit.ok;
      (* corrupt one fact: the join must fail *)
      let bad =
        match facts with
        | f :: rest -> { f with Audit.fact_ok = not f.Audit.fact_ok } :: rest
        | [] -> Alcotest.fail "no chain facts"
      in
      let report = Audit.run ~chain:bad entries in
      Alcotest.(check bool) "mismatched facts rejected" false report.Audit.ok)

let test_byte_identical_journals () =
  (* same seed => byte-identical journals, at 1 and at 4 domains *)
  let run_once name domains =
    with_journal name (fun path ->
        Pool.with_domains domains (fun () ->
            ignore (Scenario.run_cfg { Scenario.Config.default with seed = 21; n = 4 }));
        Obs.close ();
        read_file path)
  in
  let a = run_once "obs_det_a.zjnl" 1 in
  let b = run_once "obs_det_b.zjnl" 1 in
  Alcotest.(check bool) "same seed, same bytes (1 domain)" true (String.equal a b);
  let c = run_once "obs_det_c.zjnl" 4 in
  Alcotest.(check bool) "same bytes at 4 domains" true (String.equal a c)

(* ---- mempool + parallel block production ---- *)

let load_cfg =
  {
    Scenario.Config.default with
    Scenario.Config.seed = 5;
    accounts = 16;
    datasets = 8;
    blocks = 3;
    txs_per_block = 8;
    skew = 1.0;
    work = 4;
  }

let test_load_journal_audits () =
  (* A journaled load run must audit clean — mempool admissions, block
     builds and mined txs all causally consistent — and the journal and
     final state must be byte-identical at any domain count. *)
  let run_once name domains =
    with_journal name (fun path ->
        let o = Pool.with_domains domains (fun () -> Scenario.load load_cfg) in
        Alcotest.(check bool) "load ok" true o.Scenario.load_ok;
        Obs.close ();
        (read_file path, Chain.state_hash o.Scenario.load_chain))
  in
  let a, ha = run_once "obs_load_a.zjnl" 1 in
  let c, hc = run_once "obs_load_c.zjnl" 4 in
  Alcotest.(check bool) "byte-identical journal at 4 domains" true
    (String.equal a c);
  Alcotest.(check string) "identical state hash" ha hc;
  let entries = entries_of (tmp "obs_load_a.zjnl") in
  let report = Audit.run entries in
  List.iter
    (fun (i : Audit.issue) ->
      if i.Audit.severity = Audit.Err then
        Alcotest.failf "audit error: %s" i.Audit.message)
    report.Audit.issues;
  Alcotest.(check bool) "audit ok" true report.Audit.ok;
  let count kind =
    List.length
      (List.filter
         (fun (e : Journal.entry) -> Event.kind e.Journal.event = kind)
         entries)
  in
  Alcotest.(check int) "every submission journaled" 24
    (count "mempool_admitted");
  Alcotest.(check int) "every block journaled" 3 (count "block_built");
  Alcotest.(check int) "every sealed tx journaled" 24 (count "tx_mined")

(* ---- causal checks ---- *)

let test_audit_flags_reverted_leak () =
  with_journal "obs_revert.zjnl" (fun path ->
      let chain = Chain.create () in
      let addr = Chain.Address.of_seed "auditee" in
      Chain.faucet chain addr 10_000_000;
      Obs.with_trace "revert-case" (fun () ->
          let r =
            Chain.execute chain ~sender:addr ~label:"fail" ~contract:"x"
              (fun env ->
                Chain.emit env ~contract:"x" ~name:"Leak" ~data:[];
                raise (Chain.Revert "nope"))
          in
          (match r.Chain.status with
          | Ok () -> Alcotest.fail "tx unexpectedly succeeded"
          | Error _ -> ());
          Alcotest.(check int) "receipt events discarded" 0
            (List.length r.Chain.events));
      Obs.close ();
      let entries = entries_of path in
      (* the journal records the revert but no Chain_event *)
      let has k =
        List.exists
          (fun (e : Journal.entry) -> Event.kind e.Journal.event = k)
          entries
      in
      Alcotest.(check bool) "tx_reverted journaled" true (has "tx_reverted");
      Alcotest.(check bool) "no chain_event leaked" false (has "chain_event");
      let report = Audit.run entries in
      Alcotest.(check bool) "audit ok" true report.Audit.ok;
      (* splice a forged Chain_event for the reverted tx into the entry
         list (post-authentication): the audit must flag it *)
      let reverted_hash =
        List.find_map
          (fun (e : Journal.entry) ->
            match e.Journal.event with
            | Event.Tx_reverted { tx_hash; _ } -> Some tx_hash
            | _ -> None)
          entries
        |> Option.get
      in
      let last = List.nth entries (List.length entries - 1) in
      let forged =
        {
          last with
          Journal.seq = last.Journal.seq + 1;
          event =
            Event.Chain_event
              { tx_hash = reverted_hash; contract = "x"; name = "Leak"; data = [] };
        }
      in
      let report = Audit.run (entries @ [ forged ]) in
      Alcotest.(check bool) "leaked event detected" false report.Audit.ok;
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "revert leak named in issues" true
        (List.exists
           (fun (i : Audit.issue) ->
             i.Audit.severity = Audit.Err && contains i.Audit.message "revert")
           report.Audit.issues))

(* ---- the domain rule ---- *)

(* Journal order is the initial domain's program order, so an emission
   or a finalized transaction on any other domain raises. *)
let test_initial_domain_only () =
  let raises_off_main name f =
    match Domain.join (Domain.spawn f) with
    | () -> Alcotest.failf "%s ran on a spawned domain" name
    | exception Invalid_argument _ -> ()
  in
  with_journal "obs_domain.zjnl" (fun _ ->
      raises_off_main "Obs.emit with a journal open" (fun () ->
          Obs.emit (Event.Protocol_step { protocol = "p"; step = "s"; detail = [] })));
  let chain = Chain.create () in
  let addr = Chain.Address.of_seed "off-main" in
  Chain.faucet chain addr 10_000_000;
  raises_off_main "Chain.execute with no journal open" (fun () ->
      ignore (Chain.execute chain ~sender:addr ~label:"noop" (fun _ -> ())))

let () =
  Alcotest.run "zkdet_obs"
    [
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "tamper detected" `Quick test_journal_tamper_detected;
          Alcotest.test_case "prefixes and bit flips" `Slow
            test_journal_prefixes_and_flips;
          Alcotest.test_case "oversized frame length is an error" `Quick
            test_journal_oversized_length;
        ] );
      ( "trace",
        [
          Alcotest.test_case "single trace, tree structure" `Slow
            test_single_trace_and_tree;
          Alcotest.test_case "audit joins chain snapshot" `Slow
            test_audit_joins_chain;
          Alcotest.test_case "byte-identical journals" `Slow
            test_byte_identical_journals;
          Alcotest.test_case "journaled load run audits clean" `Quick
            test_load_journal_audits;
        ] );
      ( "causal",
        [
          Alcotest.test_case "reverted events discarded and flagged" `Quick
            test_audit_flags_reverted_leak;
        ] );
      ( "domains",
        [
          Alcotest.test_case "events only from the initial domain" `Quick
            test_initial_domain_only;
        ] );
    ]
