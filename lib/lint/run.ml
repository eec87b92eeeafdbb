type outcome = {
  findings : Diag.finding list;
  errors : string list;
  files_scanned : int;
}

type iconfig = {
  entries : (string * string) list;
  wire_files : string list;
}

let default_iconfig =
  {
    entries =
      [
        ("lib/serve/service.ml", "handle");
        ("lib/serve/server.ml", "worker_loop");
        ("lib/serve/server.ml", "connection_loop");
        ("lib/serve/server.ml", "run");
      ];
    wire_files =
      [ "lib/serve/protocol.ml"; "lib/serve/server.ml"; "lib/serve/service.ml"; "bin/lacrd.ml" ];
  }

let hot_dirs =
  [ "lib/arena"; "lib/core"; "lib/retime"; "lib/mcmf"; "lib/routing"; "lib/tilegraph"; "lib/util" ]

let scan_roots = [ "lib"; "bin"; "bench"; "test" ]

(* The interprocedural rules (R5-R8) cover the shipped code; test and
   bench harnesses do not hold daemon locks or sit on the wire. *)
let interproc_roots = [ "lib"; "bin" ]

let under dir file =
  let prefix = dir ^ "/" in
  let lp = String.length prefix in
  String.length file > lp && String.equal (String.sub file 0 lp) prefix

(* Relative [.ml] paths under the scan roots, sorted for a stable
   report order.  [lint_corpus] holds seeded violations driven by the
   test suite, not code. *)
let source_files ~root =
  let acc = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    match Sys.readdir abs with
    | exception Sys_error _ -> ()
    | entries ->
      Array.sort String.compare entries;
      Array.iter
        (fun entry ->
          let rel_entry = Filename.concat rel entry in
          let abs_entry = Filename.concat abs entry in
          if Sys.is_directory abs_entry then (
            if not (String.equal entry "_build" || String.equal entry "lint_corpus") then
              walk rel_entry)
          else if Filename.check_suffix entry ".ml" then acc := rel_entry :: !acc)
        entries
  in
  List.iter walk scan_roots;
  List.sort String.compare !acc

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let lint_file ?(hot = true) ?(race = true) ?(strict = true) ~file source =
  match Rules.parse_implementation ~file source with
  | Error msg -> Error msg
  | Ok structure -> Ok (Rules.check_structure { Rules.hot; race; strict } ~file structure)

(* R5-R8 over already-parsed trees. *)
let interproc ?(config = default_iconfig) ~libs parsed =
  let cg = Callgraph.build ~libs parsed in
  let nodes = Effects.build cg in
  let exn = Exnflow.analyze nodes in
  Concurrency.analyze cg nodes exn
  @ Exnflow.report_r6 exn ~entries:config.entries
  @ Exnflow.report_r8 exn ~wire_files:config.wire_files

let lint_tree ?config files =
  let parsed, errors =
    List.fold_left
      (fun (ok, errs) (file, source) ->
        match Rules.parse_implementation ~file source with
        | Ok structure -> ((file, structure) :: ok, errs)
        | Error msg -> (ok, msg :: errs))
      ([], []) files
  in
  match errors with
  | err :: _ -> Error err
  | [] -> Ok (List.sort Diag.compare (interproc ?config ~libs:[] (List.rev parsed)))

let lint ?allow_file ?only ?under:under_dir ~root () =
  let race_dirs = Deps.race_dirs ~root in
  let libs = Deps.libraries ~root in
  let files = source_files ~root in
  let findings = ref [] and errors = ref [] and parsed = ref [] in
  List.iter
    (fun file ->
      let in_lib = under "lib" file in
      let scope =
        {
          Rules.hot = List.exists (fun d -> under d file) hot_dirs;
          race = List.exists (fun d -> under d file) race_dirs;
          strict = in_lib;
        }
      in
      match read_file (Filename.concat root file) with
      | Error msg -> errors := msg :: !errors
      | Ok source -> (
        match Rules.parse_implementation ~file source with
        | Error msg -> errors := msg :: !errors
        | Ok structure ->
          if List.exists (fun d -> under d file) interproc_roots then
            parsed := (file, structure) :: !parsed;
          findings := Rules.check_structure scope ~file structure @ !findings;
          (* R4, filesystem half: every library implementation ships
             its interface. *)
          if in_lib then begin
            let mli = Filename.chop_suffix (Filename.concat root file) ".ml" ^ ".mli" in
            if not (Sys.file_exists mli) then
              findings :=
                {
                  Diag.rule = "R4";
                  file;
                  line = 1;
                  col = 0;
                  ident = "missing_mli";
                  message = "library module has no .mli interface";
                }
                :: !findings
          end))
    files;
  findings := interproc ~libs (List.rev !parsed) @ !findings;
  (* --only / --under narrow the report; with a partial view the
     allowlist cannot be judged stale, so stale reporting is
     suppressed. *)
  let narrowed = Option.is_some only || Option.is_some under_dir in
  let findings =
    match only with
    | None -> !findings
    | Some rules ->
      List.filter
        (fun (f : Diag.finding) -> List.exists (String.equal f.Diag.rule) rules)
        !findings
  in
  let findings =
    match under_dir with
    | None -> findings
    | Some dir ->
      let dir =
        if String.length dir > 0 && dir.[String.length dir - 1] = '/' then
          String.sub dir 0 (String.length dir - 1)
        else dir
      in
      List.filter (fun (f : Diag.finding) -> under dir f.Diag.file) findings
  in
  let allow =
    match allow_file with
    | None -> Ok []
    | Some path -> Allow.load path
  in
  let findings, stale =
    match allow with
    | Ok entries -> Allow.filter entries findings
    | Error msg ->
      errors := msg :: !errors;
      (findings, [])
  in
  let stale_findings =
    if narrowed then []
    else
      List.map
        (fun (e : Allow.entry) ->
          {
            Diag.rule = "allow";
            file = Option.value allow_file ~default:"lint.allow";
            line = e.Allow.line;
            col = 0;
            ident = e.Allow.ident;
            message =
              Printf.sprintf "stale allowlist entry: %s %s no longer fires" e.Allow.rule
                e.Allow.file;
          })
        stale
  in
  {
    findings = List.sort Diag.compare (stale_findings @ findings);
    errors = List.rev !errors;
    files_scanned = List.length files;
  }
