(* The repository benchmark.

     main.exe --workload <stream-100|stream-us|replay-100|methods|all>
              [--seed N] [--seconds S] [--trace 0|1] [--smoke]

   Runs one workload for about S seconds and prints, as the last line
   of standard output, one JSON row: whether every correctness check
   passed, how many operations and checks were attempted and failed,
   and the metrics — the end-to-end ones, or with [--trace 1] the
   per-layer ones.  A detail row (network, fault script, every check by
   name) precedes it.  Exits 1 when a check fails.  [all] runs each
   workload in its own process, one after the other.  [--smoke] runs
   the workloads at a small size (see {!Workloads}), for a quick check
   that they run and pass.

   Every timing reads one clock: the monotonic wall clock, installed as
   the obs clock before anything runs, so the daemon's tick latencies,
   the trace spans and the benchmark's own timers agree. *)

module J = Tmest_obs.Json
module W = Workloads

let workloads =
  [
    ("stream-100", fun ~smoke -> W.run_stream (W.stream_100 ~smoke));
    ("stream-us", fun ~smoke -> W.run_stream (W.stream_us ~smoke));
    ("replay-100", W.run_replay);
    ("methods", W.run_methods);
  ]

(* Unit of every per-layer metric; a traced run reports all of them,
   with 0 for a layer its workload does not reach. *)
let per_layer =
  List.map (fun n -> (n, "ratio"))
    [
      "share.unattributed"; "share.truth"; "share.snmp"; "share.series";
      "share.reroute"; "share.degrade"; "share.estimator"; "share.solver";
      "share.workspace"; "share.pool_dispatch"; "share.pool_work";
      "trace.coverage"; "trace.overhead"; "ws.hit_ratio"; "pool.worker_busy";
      "pool.speedup"; "degrade.repaired_frac";
    ]
  @ [ ("gc.peak_heap_mb", "MB") ]
  @ List.map (fun n -> (n, "ms"))
      [ "op.ms"; "solve.ms_per_op"; "solver.ms_per_op"; "ws.ms_per_op" ]
  @ List.map (fun n -> (n, "count"))
      [
        "solver.iters_per_op"; "ws.builds_per_op"; "pool.fanouts_per_op";
        "alloc.words_per_op"; "snmp.polls_lost_per_tick";
        "snmp.resets_per_tick"; "degrade.imputed_per_tick";
      ]
  @ List.concat_map
      (fun k -> [ ("solve_share." ^ k, "ratio"); ("iters." ^ k, "count") ])
      W.method_pairs

let usage () =
  prerr_endline
    "usage: main.exe --workload <stream-100|stream-us|replay-100|methods|all> \
     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";
  exit 2

let metric v unit = J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ]

let run_one name run ~smoke ~seed ~seconds ~trace =
  let jobs = Tmest_parallel.Pool.default_jobs () in
  let o : W.outcome = run ~smoke ~seed ~seconds ~trace ~jobs in
  let rounds = o.W.rounds in
  let ops = W.ops rounds in
  let failed_ops = List.fold_left (fun a (r : W.round) -> a + r.W.failed) 0 rounds in
  let lat = W.op_latencies rounds in
  let metrics =
    if trace then
      let layers =
        ( "gc.peak_heap_mb",
          float_of_int (Gc.quick_stat ()).Gc.top_heap_words
          *. float_of_int (Sys.word_size / 8) /. 1e6 )
        :: o.W.layers
      in
      List.map
        (fun (n, unit) -> (n, unit, Option.value ~default:0. (List.assoc_opt n layers)))
        per_layer
    else
      [
        ("setup_s", "s", o.W.setup_s);
        ("estimates_per_s", "1/s", W.throughput rounds);
        ("latency_p50_ms", "ms", Tmest_stats.Desc.quantile 0.5 lat);
        ("latency_p90_ms", "ms", Tmest_stats.Desc.quantile 0.9 lat);
        ("estimate_mre", "ratio", o.W.mre);
      ]
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let checks = o.W.checks @ [ ("metrics are finite", finite) ] in
  let failed_checks = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let correct = failed_ops = 0 && failed_checks = 0 in
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("workload", J.Str name);
             ("seed", J.Num (float_of_int seed));
             ("jobs", J.Num (float_of_int jobs));
             ("rounds", J.Num (float_of_int (List.length rounds)));
             ("ops", J.Num (float_of_int ops));
             ("checks", J.Obj (List.map (fun (n, ok) -> (n, J.Bool ok)) checks));
           ]
          @ o.W.detail)));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int (ops + List.length checks)));
            ("failed", J.Num (float_of_int (failed_ops + failed_checks)));
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, unit, v) -> (n, metric (if Float.is_finite v then v else 0.) unit))
                   metrics) );
          ]));
  if not correct then exit 1

(* Each workload in its own process, so no heap or pool state leaks
   from one into the next. *)
let run_all args =
  let failed =
    List.filter
      (fun (name, _) ->
        let argv = Array.of_list (Sys.executable_name :: "--workload" :: name :: args) in
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> false | _ -> true)
      workloads
  in
  if failed <> [] then exit 1

let () =
  Tmest_obs.Obs.Clock.set_source (fun () ->
      Int64.to_float (Monotonic_clock.now ()) *. 1e-9);
  let workload = ref None and seed = ref 1 and seconds = ref 25. and trace = ref false in
  let smoke = ref false in
  let rest = ref [] in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: tl -> workload := Some w; parse tl
    | "--seed" :: n :: tl ->
        (match int_of_string_opt n with Some s -> seed := s | None -> usage ());
        rest := !rest @ [ "--seed"; n ];
        parse tl
    | "--seconds" :: s :: tl ->
        (match float_of_string_opt s with
        | Some x when x > 0. -> seconds := x
        | _ -> usage ());
        rest := !rest @ [ "--seconds"; s ];
        parse tl
    | "--trace" :: t :: tl ->
        (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        rest := !rest @ [ "--trace"; t ];
        parse tl
    | "--smoke" :: tl ->
        smoke := true;
        rest := !rest @ [ "--smoke" ];
        parse tl
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !workload with
  | Some "all" -> run_all !rest
  | Some w -> (
      match List.assoc_opt w workloads with
      | Some run -> run_one w run ~smoke:!smoke ~seed:!seed ~seconds:!seconds ~trace:!trace
      | None -> usage ())
  | None -> usage ()
