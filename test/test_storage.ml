module Storage = Zkdet_storage.Storage
module Fr = Zkdet_field.Bn254.Fr

let rng = Test_util.rng ~salt:"storage" ()

let test_put_get () =
  let net = Storage.create () in
  let alice = Storage.add_node net ~id:"alice" in
  let bob = Storage.add_node net ~id:"bob" in
  let cid = Storage.put net alice "hello zkdet" in
  (match Storage.get net bob cid with
  | Ok data -> Alcotest.(check string) "fetched across nodes" "hello zkdet" data
  | Error _ -> Alcotest.fail "fetch failed");
  (* Bob is now a provider too (caching). *)
  Alcotest.(check bool) "bob cached" true (Hashtbl.mem bob.Storage.blocks cid)

let test_content_addressing () =
  let net = Storage.create () in
  let n = Storage.add_node net ~id:"n" in
  let c1 = Storage.put net n "data-a" in
  let c2 = Storage.put net n "data-a" in
  let c3 = Storage.put net n "data-b" in
  Alcotest.(check bool) "same content same cid" true (Storage.Cid.equal c1 c2);
  Alcotest.(check bool) "diff content diff cid" false (Storage.Cid.equal c1 c3)

let test_chunking () =
  let net = Storage.create () in
  let a = Storage.add_node net ~id:"a" in
  let b = Storage.add_node net ~id:"b" in
  (* 600 KB object: 3 chunks + manifest *)
  let big = String.init 600_000 (fun i -> Char.chr (i mod 251)) in
  let cid = Storage.put net a big in
  (match Storage.get net b cid with
  | Ok data -> Alcotest.(check bool) "big object roundtrip" true (String.equal data big)
  | Error _ -> Alcotest.fail "big fetch failed");
  Alcotest.(check bool) "multiple blocks" true (Hashtbl.length a.Storage.blocks >= 4)

let test_not_found () =
  let net = Storage.create () in
  let a = Storage.add_node net ~id:"a" in
  let fake = Storage.Cid.of_bytes "never stored" in
  match Storage.get net a fake with
  | Error `Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_tamper_detection () =
  let net = Storage.create () in
  let a = Storage.add_node net ~id:"a" in
  let b = Storage.add_node net ~id:"b" in
  let cid = Storage.put net a "precious dataset" in
  Storage.tamper a cid;
  (match Storage.get net b cid with
  | Error `Tampered -> ()
  | Ok _ -> Alcotest.fail "tampering must be detected"
  | Error `Not_found -> Alcotest.fail "expected Tampered");
  ()

let test_pin_gc () =
  let net = Storage.create () in
  let a = Storage.add_node net ~id:"a" in
  let keep = Storage.put net a "keep me" in
  let drop = Storage.put net a "drop me" in
  Storage.pin a keep;
  let removed = Storage.gc net a in
  Alcotest.(check int) "one block collected" 1 removed;
  Alcotest.(check bool) "pinned survives" true (Hashtbl.mem a.Storage.blocks keep);
  Alcotest.(check bool) "unpinned gone" false (Hashtbl.mem a.Storage.blocks drop);
  (* provider record dropped too *)
  (match Storage.get net a drop with
  | Error `Not_found -> ()
  | _ -> Alcotest.fail "gone block should be unfetchable");
  (* pinned manifests keep their chunks *)
  let big = String.make 300_000 'x' in
  let big_cid = Storage.put net a big in
  Storage.pin a big_cid;
  ignore (Storage.gc net a);
  match Storage.get net a big_cid with
  | Ok d -> Alcotest.(check bool) "chunks survive gc" true (String.equal d big)
  | Error _ -> Alcotest.fail "pinned manifest lost chunks"

(* The provider list of [cid], newest announcer first. *)
let providers net cid =
  match Hashtbl.find_opt net.Storage.providers cid with
  | Some ids -> !ids
  | None -> []

let test_put_twice_listed_once () =
  let net = Storage.create () in
  let a = Storage.add_node net ~id:"a" in
  let b = Storage.add_node net ~id:"b" in
  let cid = Storage.put net a "twice" in
  ignore (Storage.put net a "twice");
  Alcotest.(check (list string)) "a listed once" [ "a" ] (providers net cid);
  ignore (Storage.get net b cid);
  ignore (Storage.put net b "twice");
  ignore (Storage.get net b cid);
  Alcotest.(check (list string)) "b listed once, newest first" [ "b"; "a" ]
    (providers net cid)

(* The newest provider serves every fetch: when its copy is corrupt a
   fresh node sees [`Tampered]; once that node collects the block, the
   record goes with it and the previous provider serves again. *)
let test_newest_provider_tampered () =
  let net = Storage.create () in
  let a = Storage.add_node net ~id:"a" in
  let b = Storage.add_node net ~id:"b" in
  let cid = Storage.put net a "served by the newest provider" in
  ignore (Storage.get net b cid);
  Storage.tamper b cid;
  (match Storage.get net (Storage.add_node net ~id:"c") cid with
  | Error `Tampered -> ()
  | Ok _ -> Alcotest.fail "a tampered newest provider must be detected"
  | Error `Not_found -> Alcotest.fail "expected Tampered");
  Alcotest.(check int) "b collects its copy" 1 (Storage.gc net b);
  Alcotest.(check (list string)) "b's record dropped" [ "a" ] (providers net cid);
  match Storage.get net (Storage.add_node net ~id:"d") cid with
  | Ok data ->
    Alcotest.(check string) "served by a" "served by the newest provider" data
  | Error _ -> Alcotest.fail "the previous provider must serve after gc"

(* Each fetch announces one more provider; announcing must not scan the
   list, or n fetchers cost O(n^2) (~8e8 comparisons at n = 40,000). *)
let test_many_fetchers () =
  let net = Storage.create () in
  let a = Storage.add_node net ~id:"a" in
  let cid = Storage.put net a "popular block" in
  let n = 40_000 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    let node = Storage.add_node net ~id:(string_of_int i) in
    match Storage.get net node cid with
    | Ok _ -> ()
    | Error _ -> Alcotest.failf "fetch %d failed" i
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "every fetcher listed" (n + 1) (List.length (providers net cid));
  Alcotest.(check bool)
    (Printf.sprintf "%d fetches in %.3f s, under 1 s" n dt)
    true (dt < 1.0)

let test_codec () =
  let data = Array.init 20 (fun _ -> Fr.random rng) in
  let bytes = Storage.Codec.encode data in
  Alcotest.(check int) "encoded size" (20 * 32) (String.length bytes);
  let back = Storage.Codec.decode bytes in
  Alcotest.(check bool) "roundtrip" true (Array.for_all2 Fr.equal data back)

let test_stats () =
  let net = Storage.create () in
  let a = Storage.add_node net ~id:"a" in
  let b = Storage.add_node net ~id:"b" in
  let cid = Storage.put net a "stats payload" in
  ignore (Storage.get net b cid);
  Alcotest.(check bool) "hops counted" true (net.Storage.fetch_hops > 0);
  Alcotest.(check bool) "bytes counted" true (net.Storage.bytes_transferred >= 13)

let prop_roundtrip =
  Test_util.prop ~count:50 "put/get roundtrip" (Printf.sprintf "%S")
    Zkdet_proptest.Gen.string (fun s ->
      let net = Storage.create () in
      let a = Storage.add_node net ~id:"a" in
      let cid = Storage.put net a s in
      match Storage.get net a cid with
      | Ok d -> String.equal d s
      | Error _ -> false)

let () =
  Alcotest.run "zkdet_storage"
    [ ( "storage",
        [ Alcotest.test_case "put/get across nodes" `Quick test_put_get;
          Alcotest.test_case "content addressing" `Quick test_content_addressing;
          Alcotest.test_case "chunking" `Quick test_chunking;
          Alcotest.test_case "not found" `Quick test_not_found;
          Alcotest.test_case "tamper detection" `Quick test_tamper_detection;
          Alcotest.test_case "pin and gc" `Quick test_pin_gc;
          Alcotest.test_case "put twice, listed once" `Quick
            test_put_twice_listed_once;
          Alcotest.test_case "newest provider tampered" `Quick
            test_newest_provider_tampered;
          Alcotest.test_case "40,000 fetchers" `Quick test_many_fetchers;
          Alcotest.test_case "field codec" `Quick test_codec;
          Alcotest.test_case "network stats" `Quick test_stats ] );
      ("properties", [ prop_roundtrip ]) ]
