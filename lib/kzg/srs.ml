(* Structured reference string: powers of a secret tau in G1 plus [tau]G2.
   In production the SRS comes from a multi-party ceremony ({!Ceremony});
   [unsafe_generate] plays the role of a locally simulated ceremony where
   the secret is sampled and immediately discarded.

   An SRS is the most expensive artifact in the system to recreate, so it
   also has a persistent form ("ZSRS" envelope, see FORMATS.md) and a disk
   cache keyed by size + curve hash under the ZKDET_SRS_CACHE directory.
   The file stores G1 powers uncompressed: loading then costs only the
   cheap on-curve check per point, where compressed points would need a
   square root each — about as slow as regenerating the power. *)

module Fr = Zkdet_field.Bn254.Fr
module Fp = Zkdet_field.Bn254.Fp
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Nat = Zkdet_num.Nat
module Codec = Zkdet_codec.Codec
module Telemetry = Zkdet_telemetry.Telemetry

type t = {
  g1_powers : G1.t array; (* [tau^0]G1 ... [tau^(n-1)]G1 *)
  g2 : G2.t; (* [1]G2 *)
  g2_tau : G2.t; (* [tau]G2 *)
  mutable fb : G1.Fixed_base.msm_table option;
      (* lazily built / cache-loaded fixed-base MSM tables over the G1
         powers; never read directly — always via [fixed_base_table] *)
  fb_lock : Mutex.t;
}

(* [g2] and [g2_tau] are kept with z = 1: every key copies them, and
   every pairing check and encoded key reads them. *)
let make ~g1_powers ~g2 ~g2_tau =
  let g2s = G2.batch_normalize [| g2; g2_tau |] in
  { g1_powers; g2 = g2s.(0); g2_tau = g2s.(1); fb = None;
    fb_lock = Mutex.create () }

let size t = Array.length t.g1_powers

(* Fixed-base tables multiply the SRS memory footprint by ~24x (one
   shifted row per signed window), so they are only built — and persisted
   — up to this many G1 powers. *)
let fb_table_max = 8192

(** The fixed-base MSM tables for this SRS, built on first use (under the
    ["srs.fb_tables"] span) when the size is within the table cap; [None]
    beyond the cap, where commitments fall back to the generic Pippenger.
    Thread-safe: [Kzg.commit_batch] races concurrent commits at this. *)
let fixed_base_table (t : t) : G1.Fixed_base.msm_table option =
  match t.fb with
  | Some tb -> Some tb
  | None ->
    if size t > fb_table_max then None
    else begin
      Mutex.lock t.fb_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.fb_lock)
        (fun () ->
          match t.fb with
          | Some tb -> Some tb
          | None ->
            let tb =
              Telemetry.with_span "srs.fb_tables" @@ fun () ->
              Telemetry.count "kzg.srs.fb_builds" 1;
              G1.Fixed_base.msm_create t.g1_powers
            in
            t.fb <- Some tb;
            Some tb)
    end

(** Generate an SRS of [size] G1 powers from a locally sampled secret.
    The secret never escapes this function. *)
let unsafe_generate ?(st = Random.State.make_self_init ()) ~size () =
  if size < 2 then invalid_arg "Srs.unsafe_generate: size must be >= 2";
  Telemetry.with_span "srs.generate" @@ fun () ->
  let tau = Fr.random st in
  let table = G1.Fixed_base.create G1.generator in
  let g1_powers = Array.make size G1.zero in
  let pow = ref Fr.one in
  for i = 0 to size - 1 do
    g1_powers.(i) <- G1.Fixed_base.mul table !pow;
    pow := Fr.mul !pow tau
  done;
  make ~g1_powers ~g2:G2.generator ~g2_tau:(G2.mul G2.generator tau)

(** Check internal consistency: e(g1[i+1], G2) = e(g1[i], [tau]G2) on a few
    sampled indices (spot check) or all of them ([exhaustive]). *)
let verify ?(exhaustive = false) t =
  let n = size t in
  let check i =
    Zkdet_curve.Pairing.pairing_check
      [ (t.g1_powers.(i + 1), t.g2); (G1.neg t.g1_powers.(i), t.g2_tau) ]
  in
  let ok_first = G1.equal t.g1_powers.(0) G1.generator in
  let indices =
    if exhaustive then List.init (n - 1) Fun.id
    else
      List.sort_uniq Stdlib.compare
        [ 0; (n - 1) / 2; max 0 (n - 2) ]
  in
  ok_first && List.for_all check indices

(** Truncate to a smaller SRS (prefix of powers). Any fixed-base tables
    are dropped — they cover the full power array. *)
let truncate t n =
  if n > size t then invalid_arg "Srs.truncate: larger than source";
  make ~g1_powers:(Array.sub t.g1_powers 0 n) ~g2:t.g2 ~g2_tau:t.g2_tau

(* ---------------- persistence ---------------- *)

(* A 32-byte digest of every curve parameter an SRS depends on; baked into
   the header so an SRS file can never be replayed against a different
   curve build. *)
let curve_id =
  Zkdet_hash.Sha256.digest
    (String.concat "/"
       [ "bn254";
         Nat.to_decimal Fp.modulus;
         Nat.to_decimal Fr.modulus;
         G1.to_bytes G1.generator;
         G2.to_bytes G2.generator ])

(** The ["ZSRS"] header alone (a prefix of {!to_bytes} output): magic,
    version, curve digest and the G1 power count.  Exposed for the golden
    wire-format vectors. *)
let header_codec : (string * int) Codec.t =
  Codec.envelope ~magic:"ZSRS" ~version:2 (Codec.pair (Codec.bytes_fixed 32) Codec.u32)

let header_bytes ~size = Codec.encode header_codec (curve_id, size)

(* The optional v2 fixed-base table section: signed window width plus the
   shifted rows, row-major by base (see FORMATS.md).  Rows come from
   [G1.Fixed_base.msm_rows], whose order the on-disk layout mirrors. *)
let fb_section_codec : (int * G1.t array) Codec.t =
  Codec.pair Codec.u8 (Codec.array G1.codec_uncompressed)

(* Untrusted table bytes are cheap to forge from valid curve points, so
   shape checks are not enough: row (i, 0) must equal power i for every
   base, and sampled bases must have internally consistent doubling
   chains (row (i, j+1) = [2^window] row (i, j)). A file failing any of
   this decodes as an error and the cache layer regenerates. *)
let validate_fb ~(powers : G1.t array) (window, (rows : G1.t array)) :
    (G1.Fixed_base.msm_table, string) result =
  match G1.Fixed_base.msm_of_rows ~window ~nbases:(Array.length powers) rows with
  | Error _ as e -> e
  | Ok tb ->
    let n = Array.length powers in
    let nw = Array.length rows / max n 1 in
    let base_ok = ref true in
    for i = 0 to n - 1 do
      if not (G1.equal rows.(i * nw) powers.(i)) then base_ok := false
    done;
    if not !base_ok then Error "fixed-base table row 0 mismatch"
    else begin
      let chain_ok = ref true in
      List.iter
        (fun i ->
          for j = 0 to nw - 2 do
            let d = ref rows.((i * nw) + j) in
            for _ = 1 to window do
              d := G1.double !d
            done;
            if not (G1.equal !d rows.((i * nw) + j + 1)) then chain_ok := false
          done)
        (List.sort_uniq Stdlib.compare [ 0; (n - 1) / 2; n - 1 ]);
      if not !chain_ok then Error "fixed-base table doubling chain mismatch"
      else Ok tb
    end

let codec : t Codec.t =
  let open Codec in
  envelope ~magic:"ZSRS" ~version:2
    (conv
       (fun t ->
         ( ((curve_id, Array.to_list t.g1_powers), (t.g2, t.g2_tau)),
           Option.map
             (fun tb ->
               (G1.Fixed_base.msm_window tb, G1.Fixed_base.msm_rows tb))
             t.fb ))
       (fun (((cid, powers), (g2, g2_tau)), fb) ->
         if not (String.equal cid curve_id) then Error "SRS for a different curve"
         else if List.length powers < 2 then Error "SRS must have >= 2 powers"
         else begin
           let g1_powers = Array.of_list powers in
           let t = make ~g1_powers ~g2 ~g2_tau in
           match fb with
           | None -> Ok t
           | Some section -> (
             match validate_fb ~powers:g1_powers section with
             | Error _ as e -> e
             | Ok tb ->
               t.fb <- Some tb;
               Ok t)
         end)
       (pair
          (pair
             (pair (bytes_fixed 32) (list G1.codec_uncompressed))
             (pair G2.codec G2.codec))
          (option fb_section_codec)))

let to_bytes (t : t) : string = Codec.encode codec t
let of_bytes (s : string) : (t, Codec.error) result = Codec.decode codec s

(* ---------------- disk cache ---------------- *)

let cache_dir () = Sys.getenv_opt "ZKDET_SRS_CACHE"

let cache_path dir ~size =
  let short = String.sub (Zkdet_hash.Sha256.hex_of_string curve_id) 0 16 in
  Filename.concat dir (Printf.sprintf "srs-%s-%d.bin" short size)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Recursive directory creation: ZKDET_SRS_CACHE may name a nested path
   (e.g. ~/.cache/zkdet/srs) whose parents don't exist yet.  EEXIST is
   fine — a concurrent process won the race. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Write-to-temp + rename so concurrent processes never observe a partial
   file; losing a race just means writing the same bytes twice. *)
let write_file path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data);
  Sys.rename tmp path

(** Like {!unsafe_generate}, but consults the ZKDET_SRS_CACHE directory
    first: a valid cached file of the right size is loaded (and validated
    point by point) instead of rerunning the simulated ceremony, and a
    fresh generation is written back for the next process.  Without the
    environment variable this is exactly [unsafe_generate]. *)
let load_or_generate ?st ~size () =
  match cache_dir () with
  | None -> unsafe_generate ?st ~size ()
  | Some dir ->
    let path = cache_path dir ~size in
    let cached =
      if Sys.file_exists path then
        match of_bytes (read_file path) with
        | Ok t when size = Array.length t.g1_powers ->
          Telemetry.count "kzg.srs.cache_hits" 1;
          Some t
        | Ok _ | Error _ ->
          (* Wrong size under this key or corrupt bytes: regenerate. *)
          Telemetry.count "kzg.srs.cache_corrupt" 1;
          None
        | exception Sys_error _ -> None
      else None
    in
    match cached with
    | Some t -> t
    | None ->
      Telemetry.count "kzg.srs.cache_misses" 1;
      let t = unsafe_generate ?st ~size () in
      (* Build the fixed-base tables (when within the cap) before writing
         so warm processes load them instead of rebuilding. *)
      ignore (fixed_base_table t);
      (try
         mkdir_p dir;
         write_file path (to_bytes t)
       with Unix.Unix_error _ | Sys_error _ ->
         (* Unwritable cache is non-fatal (the SRS was generated anyway)
            but worth counting: a misconfigured cache silently costs a
            full ceremony per process. *)
         Telemetry.count "kzg.srs.cache_dir_failures" 1);
      t
