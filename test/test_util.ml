(* Shared deterministic RNG plumbing for the test suites.

   Every suite derives its randomness from the global test seed
   ([ZKDET_TEST_SEED], default 31337) and a per-suite salt, so:
   - setting the env var re-seeds the whole suite reproducibly,
   - suites are independent (no shared mutable state: drawing more in one
     suite cannot shift another's stream), and
   - a suite's SRS can use its own salt, decoupled from the test draws
     that follow it. *)

module Rng = Zkdet_proptest.Rng
module Proptest = Zkdet_proptest.Proptest

let seed = Proptest.seed

(* A fresh [Random.State.t] for suite [salt], derived from the global
   seed. Distinct salts give independent streams. *)
let rng ~salt () : Random.State.t =
  Rng.to_random_state (Rng.of_seed_and_label (seed ()) salt)

(* A property as an Alcotest case. The engine draws from the stream of
   (seed, name); a failure message carries the replay seed and the
   shrunk counterexample. *)
let prop ?count name print gen p =
  Alcotest.test_case name `Quick (fun () ->
      try Proptest.check ?count ~name ~print gen p
      with Proptest.Failed msg -> Alcotest.fail msg)

let pp_list pp l = "[" ^ String.concat "; " (List.map pp l) ^ "]"
let pp2 ppa ppb (a, b) = Printf.sprintf "(%s, %s)" (ppa a) (ppb b)
let pp3 ppa ppb ppc (a, b, c) =
  Printf.sprintf "(%s, %s, %s)" (ppa a) (ppb b) (ppc c)

(* Strict parser/validator for the Prometheus text exposition format, used
   to gate [Telemetry.Report.to_prometheus] and the live /metrics body.
   Deliberately unforgiving: any malformed line, undeclared family,
   misescaped label or non-conformant histogram raises [Failure] with a
   line-numbered message. *)
module Prom = struct
  type mtype = Counter | Gauge | Summary | Histogram

  type sample = {
    s_name : string;
    s_labels : (string * string) list;
    s_value : float;
  }

  type family = {
    f_name : string;
    f_type : mtype;
    mutable f_help : string option;
    mutable f_samples : sample list;  (* in exposition order *)
  }

  let fail line fmt =
    Printf.ksprintf (fun m -> failwith (Printf.sprintf "line %d: %s" line m)) fmt

  let is_name_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

  let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

  let check_name line n =
    if n = "" then fail line "empty metric name";
    if not (is_name_start n.[0]) then fail line "metric name %S starts badly" n;
    String.iter
      (fun c -> if not (is_name_char c) then fail line "bad char %C in metric name %S" c n)
      n

  (* Parse the label block after the opening brace: returns the label
     list and the index after the closing brace.  Unescapes backslash,
     double-quote and newline; any other escape is an error. *)
  let parse_labels line s start =
    let n = String.length s in
    let labels = ref [] in
    let i = ref start in
    let rec loop () =
      (* label name *)
      let j = ref !i in
      while !j < n && is_name_char s.[!j] do incr j done;
      if !j = !i then fail line "empty label name";
      let lname = String.sub s !i (!j - !i) in
      if !j >= n || s.[!j] <> '=' then fail line "expected '=' after label %S" lname;
      if !j + 1 >= n || s.[!j + 1] <> '"' then fail line "label %S value not quoted" lname;
      let b = Buffer.create 16 in
      let k = ref (!j + 2) in
      let closed = ref false in
      while not !closed do
        if !k >= n then fail line "unterminated label value for %S" lname;
        (match s.[!k] with
        | '\\' ->
          if !k + 1 >= n then fail line "dangling backslash";
          (match s.[!k + 1] with
          | '\\' -> Buffer.add_char b '\\'
          | '"' -> Buffer.add_char b '"'
          | 'n' -> Buffer.add_char b '\n'
          | c -> fail line "invalid escape \\%c in label value" c);
          k := !k + 2
        | '"' ->
          closed := true;
          incr k
        | '\n' -> fail line "raw newline in label value"
        | c ->
          Buffer.add_char b c;
          incr k
      );
      done;
      labels := (lname, Buffer.contents b) :: !labels;
      if !k < n && s.[!k] = ',' then begin
        i := !k + 1;
        loop ()
      end
      else if !k < n && s.[!k] = '}' then !k + 1
      else fail line "expected ',' or '}' after label value"
    in
    let after = loop () in
    (List.rev !labels, after)

  let parse_value line s =
    let s = String.trim s in
    match s with
    | "+Inf" -> infinity
    | "-Inf" -> neg_infinity
    | "NaN" -> nan
    | _ -> ( try float_of_string s with _ -> fail line "bad sample value %S" s)

  (* The family a sample belongs to, given the declared set: exact name
     for counters/gauges; histogram owns _bucket/_sum/_count suffixes;
     summary owns the bare name (quantile series) plus _sum/_count. *)
  let owner families line name =
    match Hashtbl.find_opt families name with
    | Some f -> (
      match f.f_type with
      | Counter | Gauge | Summary -> f
      | Histogram -> fail line "histogram family %S sampled without suffix" name)
    | None ->
      let try_suffix suf =
        if String.length name > String.length suf
           && String.sub name (String.length name - String.length suf)
                (String.length suf) = suf
        then
          Hashtbl.find_opt families
            (String.sub name 0 (String.length name - String.length suf))
        else None
      in
      let candidates = List.filter_map try_suffix [ "_bucket"; "_sum"; "_count" ] in
      (match
         List.find_opt
           (fun f -> match f.f_type with Histogram | Summary -> true | _ -> false)
           candidates
       with
      | Some f -> f
      | None -> fail line "sample %S belongs to no declared family" name)

  let parse (text : string) : family list =
    let families : (string, family) Hashtbl.t = Hashtbl.create 32 in
    let order = ref [] in
    let lineno = ref 0 in
    String.split_on_char '\n' text
    |> List.iter (fun raw ->
           incr lineno;
           let line = !lineno in
           if raw = "" then ()
           else if String.length raw >= 7 && String.sub raw 0 7 = "# HELP " then begin
             match String.index_from_opt raw 7 ' ' with
             | None -> fail line "HELP without text"
             | Some sp ->
               let name = String.sub raw 7 (sp - 7) in
               check_name line name;
               let help = String.sub raw (sp + 1) (String.length raw - sp - 1) in
               if help = "" then fail line "empty HELP text for %S" name;
               (match Hashtbl.find_opt families name with
               | Some f -> f.f_help <- Some help
               | None ->
                 let f =
                   { f_name = name; f_type = Gauge; f_help = Some help; f_samples = [] }
                 in
                 Hashtbl.add families name f;
                 order := name :: !order)
           end
           else if String.length raw >= 7 && String.sub raw 0 7 = "# TYPE " then begin
             match String.split_on_char ' ' raw with
             | [ _; _; name; ty ] ->
               check_name line name;
               let f_type =
                 match ty with
                 | "counter" -> Counter
                 | "gauge" -> Gauge
                 | "summary" -> Summary
                 | "histogram" -> Histogram
                 | _ -> fail line "unknown TYPE %S" ty
               in
               (match Hashtbl.find_opt families name with
               | Some f ->
                 if f.f_samples <> [] then
                   fail line "TYPE for %S after its samples" name;
                 Hashtbl.replace families name { f with f_type }
               | None ->
                 Hashtbl.add families name
                   { f_name = name; f_type; f_help = None; f_samples = [] };
                 order := name :: !order)
             | _ -> fail line "malformed TYPE line %S" raw
           end
           else if raw.[0] = '#' then ()
           else begin
             (* sample line: name[{labels}] value *)
             let n = String.length raw in
             let j = ref 0 in
             while !j < n && is_name_char raw.[!j] do incr j done;
             if !j = 0 then fail line "malformed sample line %S" raw;
             let name = String.sub raw 0 !j in
             check_name line name;
             let labels, after =
               if !j < n && raw.[!j] = '{' then parse_labels line raw (!j + 1)
               else ([], !j)
             in
             if after >= n || raw.[after] <> ' ' then
               fail line "expected space before value in %S" raw;
             let value =
               parse_value line (String.sub raw after (n - after))
             in
             let f = owner families line name in
             f.f_samples <-
               { s_name = name; s_labels = labels; s_value = value } :: f.f_samples
           end);
    let fams =
      List.rev_map
        (fun name ->
          let f = Hashtbl.find families name in
          { f with f_samples = List.rev f.f_samples })
        !order
    in
    (* Per-family conformance. *)
    List.iter
      (fun f ->
        if f.f_help = None then
          failwith (Printf.sprintf "family %S has no HELP" f.f_name);
        (match f.f_type with
        | Histogram ->
          let buckets =
            List.filter (fun s -> s.s_name = f.f_name ^ "_bucket") f.f_samples
          in
          if buckets = [] then
            failwith (Printf.sprintf "histogram %S has no buckets" f.f_name);
          let les =
            List.map
              (fun s ->
                match List.assoc_opt "le" s.s_labels with
                | None ->
                  failwith
                    (Printf.sprintf "histogram %S bucket without le" f.f_name)
                | Some "+Inf" -> (infinity, s.s_value)
                | Some le -> (
                  try (float_of_string le, s.s_value)
                  with _ ->
                    failwith (Printf.sprintf "histogram %S bad le %S" f.f_name le)))
              buckets
          in
          let rec mono = function
            | (le1, c1) :: ((le2, c2) :: _ as rest) ->
              if le2 <= le1 then
                failwith
                  (Printf.sprintf "histogram %S le not increasing" f.f_name);
              if c2 < c1 then
                failwith
                  (Printf.sprintf "histogram %S buckets not cumulative" f.f_name);
              mono rest
            | _ -> ()
          in
          mono les;
          let inf_count =
            match List.rev les with
            | (le, c) :: _ when le = infinity -> c
            | _ ->
              failwith (Printf.sprintf "histogram %S missing +Inf bucket" f.f_name)
          in
          (match
             List.find_opt (fun s -> s.s_name = f.f_name ^ "_count") f.f_samples
           with
          | Some c when c.s_value <> inf_count ->
            failwith
              (Printf.sprintf "histogram %S: +Inf bucket %.0f <> count %.0f"
                 f.f_name inf_count c.s_value)
          | Some _ -> ()
          | None -> failwith (Printf.sprintf "histogram %S has no _count" f.f_name))
        | Summary ->
          List.iter
            (fun s ->
              if s.s_name = f.f_name then
                match List.assoc_opt "quantile" s.s_labels with
                | None ->
                  failwith
                    (Printf.sprintf "summary %S series without quantile" f.f_name)
                | Some q ->
                  let q = try float_of_string q with _ -> -1.0 in
                  if q < 0.0 || q > 1.0 then
                    failwith
                      (Printf.sprintf "summary %S quantile out of range" f.f_name))
            f.f_samples
        | Counter | Gauge ->
          List.iter
            (fun s ->
              if s.s_name <> f.f_name then
                failwith
                  (Printf.sprintf "family %S has suffixed sample %S" f.f_name
                     s.s_name))
            f.f_samples))
      fams;
    fams

  let find fams name = List.find_opt (fun f -> f.f_name = name) fams
end
