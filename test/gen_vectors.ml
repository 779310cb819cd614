(* Regenerate the committed golden vectors:

     dune exec test/gen_vectors.exe -- test/vectors

   Run from the repo root after an intentional wire-format change, then
   review the diff and update FORMATS.md alongside. *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/vectors" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  List.iter
    (fun (name, bytes) ->
      let path = Filename.concat dir name in
      let oc = open_out_bin path in
      output_string oc (Vectors_def.to_hex bytes);
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" path (String.length bytes))
    (Vectors_def.all () @ [ Vectors_def.statement_vks () ])
