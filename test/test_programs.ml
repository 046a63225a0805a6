(* The standalone .fg program files under programs/: each must be in
   sync with the corpus (same source) and must run to the value stated
   in its header comment.  Regenerate with
   `dune exec tools/gen_programs.exe` after changing the corpus. *)

open Fg_core

let programs_dir = "../programs"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_files_in_sync () =
  List.iter
    (fun (e : Corpus.entry) ->
      match e.expected with
      | Corpus.Value v ->
          let path = Filename.concat programs_dir (e.name ^ ".fg") in
          if not (Sys.file_exists path) then
            Alcotest.failf
              "missing %s — run `dune exec tools/gen_programs.exe`" path;
          let expected =
            Printf.sprintf "// %s (%s)\n// expected value: %s\n%s\n"
              e.description e.paper (Interp.flat_to_string v) e.source
          in
          Alcotest.(check string) (e.name ^ ".fg in sync") expected
            (read_file path)
      | Corpus.Fails _ -> ())
    Corpus.all

let test_files_run () =
  Sys.readdir programs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fg")
  |> List.iter (fun f ->
         let path = Filename.concat programs_dir f in
         let src = read_file path in
         (* the stated expectation is in the second header line *)
         let expected =
           match String.split_on_char '\n' src with
           | _ :: second :: _ ->
               let prefix = "// expected value: " in
               if String.length second > String.length prefix then
                 String.sub second (String.length prefix)
                   (String.length second - String.length prefix)
               else Alcotest.failf "%s: malformed header" f
           | _ -> Alcotest.failf "%s: malformed header" f
         in
         match Session.run_result ~file:f (Fresh.session ()) src with
         | Ok out ->
             Alcotest.(check string) f expected
               (Interp.flat_to_string out.value)
         | Error d -> Alcotest.failf "%s: %s" f (Fg_util.Diag.to_string d))

let test_file_count () =
  let n =
    Sys.readdir programs_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fg")
    |> List.length
  in
  Alcotest.(check int) "one file per positive corpus entry"
    (List.length Corpus.positive)
    n

let suite =
  [
    Alcotest.test_case "files in sync with corpus" `Quick test_files_in_sync;
    Alcotest.test_case "files run to stated values" `Quick test_files_run;
    Alcotest.test_case "file count" `Quick test_file_count;
  ]
