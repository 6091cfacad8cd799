(* Smoke check of the benchmark against its manifest.

     smoke.exe MAIN_EXE BENCHMARK_JSON

   Runs every workload the manifest names at smoke size, untraced and
   traced.  Fails unless each run exits 0, reports itself correct with
   no failed operation or check (a traced run's checks include the
   trace passing [Tmest_obs.Validate.jsonl]), and reports exactly the
   metrics the manifest lists for its mode — end-to-end untraced,
   per-layer traced — each finite and in the listed unit. *)

module J = Tmest_obs.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench smoke: " ^ m);
      exit 1)
    fmt

let field key conv j =
  match Option.bind (J.member key j) conv with
  | Some v -> v
  | None -> fail "missing or mistyped %S in %s" key (J.to_string j)

let last_line out =
  match List.rev (String.split_on_char '\n' (String.trim out)) with
  | l :: _ -> l
  | [] -> ""

let check_run main ~workload ~trace expected =
  let label = Printf.sprintf "%s --trace %s" workload trace in
  let args = [ "--workload"; workload; "--smoke"; "--seconds"; "0.5"; "--trace"; trace ] in
  let ic = Unix.open_process_args_in main (Array.of_list (main :: args)) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s: exited non-zero" label);
  let row =
    try J.of_string (last_line out)
    with J.Parse_error e -> fail "%s: last line is not JSON (%s)" label e
  in
  if not (field "correct" J.to_bool row) then fail "%s: not correct" label;
  if field "failed" J.to_int row <> 0 then fail "%s: failures reported" label;
  let metrics =
    match J.member "metrics" row with
    | Some (J.Obj fs) -> fs
    | _ -> fail "%s: no metrics object" label
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name expected) then fail "%s: unlisted metric %s" label name)
    metrics;
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name metrics with
      | None -> fail "%s: metric %s missing" label name
      | Some m ->
          if not (Float.is_finite (field "value" J.to_float m)) then
            fail "%s: metric %s is not finite" label name;
          if field "unit" J.to_str m <> unit then
            fail "%s: metric %s is not in %s" label name unit)
    expected

let () =
  match Sys.argv with
  | [| _; main; manifest |] ->
      let m = J.of_string (In_channel.with_open_bin manifest In_channel.input_all) in
      let entries key = field key J.to_list m in
      let metrics key =
        List.map (fun e -> (field "name" J.to_str e, field "unit" J.to_str e)) (entries key)
      in
      List.iter
        (fun w ->
          let workload = field "name" J.to_str w in
          check_run main ~workload ~trace:"0" (metrics "end_to_end");
          check_run main ~workload ~trace:"1" (metrics "per_layer"))
        (entries "workloads")
  | _ ->
      prerr_endline "usage: smoke.exe MAIN_EXE BENCHMARK_JSON";
      exit 2
