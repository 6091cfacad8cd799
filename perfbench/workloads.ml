(* The benchmark's four workloads.

   Every workload is a closed loop driven from one process: one tick,
   window or solve in flight at a time, no pacing.  The production
   cadence is one estimate per 300 s, orders of magnitude below
   capacity, so capacity and latency are measured free-running.

   A workload is a set-up (timed [setup_repeats] times, median kept)
   followed by identical rounds run back to back for the requested
   number of seconds.  Rounds repeat the same inputs: every round after
   the first must reproduce the first bit for bit, and an operation's
   latency is its median over the rounds, so the metrics do not depend
   on how many rounds fit.

   Each workload runs on one fixed network with its default traffic
   day — the deployment — and the seed draws what varies around it:
   the SNMP collector's jitter and loss draws and the fault script for
   the streams, where in the day the replay starts, and which busy-hour
   snapshot the methods are compared on.  A fresh draw of the whole
   network or traffic day would move solver costs and accuracy by more
   than a regression bound from one seed to the next.

   A traced run spends the first half of its time untraced (the
   baseline for [trace.overhead] and the allocation count) and the
   second half with a {!Trace_stats} sink installed on the pool and on
   every workspace.

   With [~smoke:true] every workload runs on a small network with short
   sessions, so that the whole set checks itself in seconds. *)

module Obs = Tmest_obs.Obs
module J = Tmest_obs.Json
module Pool = Tmest_parallel.Pool
module Vec = Tmest_linalg.Vec
module Mat = Tmest_linalg.Mat
module Dataset = Tmest_traffic.Dataset
module Spec = Tmest_traffic.Spec
module Routing = Tmest_net.Routing
module Collect = Tmest_snmp.Collect
module Estimator = Tmest_core.Estimator
module Workspace = Tmest_core.Workspace
module Degrade = Tmest_core.Degrade
module Metrics = Tmest_core.Metrics
module Ctx = Tmest_experiments.Ctx
module Scan = Ctx.Scan
module Daemon = Tmest_daemon.Daemon
module Rng = Tmest_stats.Rng

let now_ns = Obs.Clock.now_ns
let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* [nan] for an empty sample, which the finiteness checks then flag. *)
let median = function [||] -> nan | xs -> Tmest_stats.Desc.median xs

let geomean xs =
  exp (Array.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (Array.length xs))

(* An order-sensitive digest of an estimate's exact bits, or [None]
   when the estimate is not finite, non-negative and one entry per OD
   pair. *)
let check_estimate ~pairs v =
  if Array.length v <> pairs then None
  else begin
    let h = ref 0 and ok = ref true in
    for i = 0 to pairs - 1 do
      let x = Array.unsafe_get v i in
      if not (x >= 0. && x < Float.infinity) then ok := false;
      h := (!h * 1_000_003) lxor Int64.to_int (Int64.bits_of_float x)
    done;
    if !ok then Some !h else None
  end

let setup_repeats = 5

(* [setup_repeats] builds; the last one is kept, the others released by
   [dispose].  Returns the median build time and the kept value. *)
let set_up ?(dispose = ignore) build =
  let rec go i times =
    let t0 = now_ns () in
    let v = build () in
    let times = since t0 :: times in
    if i + 1 < setup_repeats then begin
      dispose v;
      go (i + 1) times
    end
    else (median (Array.of_list times), v)
  in
  go 0 []

(* One round's measurements. *)
type round = {
  ops : int;
  failed : int;  (** aborted ticks, raised solves, invalid estimates *)
  wall_s : float;  (** wall time of the measured layer calls *)
  lat_ms : float array;
      (** per operation, in operation order; [nan] where one failed *)
  digests : int array;  (** per operation, for the cross-round identity *)
}

(* Rounds back to back for about [seconds]: a new round starts only while
   the mean round so far still fits, and at least one always runs. *)
let rounds ~seconds f =
  let t0 = now_ns () in
  let rec go acc n =
    let el = since t0 in
    if n > 0 && el +. (el /. float_of_int n) > seconds then List.rev acc
    else go (f n :: acc) (n + 1)
  in
  go [] 0

type outcome = {
  setup_s : float;
  rounds : round list;  (** untraced, then traced *)
  mre : float;
      (** median MRE over the operations (ticks, windows); geometric mean
          over the methods *)
  checks : (string * bool) list;
  layers : (string * float) list;  (** per-layer values; traced runs only *)
  detail : (string * J.t) list;  (** echoed before the result row *)
}

let ops rs = List.fold_left (fun a r -> a + r.ops) 0 rs
let wall rs = List.fold_left (fun a r -> a +. r.wall_s) 0. rs

(* Operations per second of wall time: the median over the rounds, so a
   round slowed by another tenant of the host does not stand for the
   run. *)
let throughput rs =
  median (Array.of_list (List.map (fun r -> float_of_int r.ops /. r.wall_s) rs))

(* Each operation's latency is its median over the rounds that repeated
   it, so one slow reading of an operation does not stand for it. *)
let op_latencies rs =
  let n = List.fold_left (fun a r -> Stdlib.max a (Array.length r.lat_ms)) 0 rs in
  Array.init n (fun i ->
      median
        (Array.of_list
           (List.filter_map
              (fun r ->
                if i < Array.length r.lat_ms && Float.is_finite r.lat_ms.(i) then
                  Some r.lat_ms.(i)
                else None)
              rs)))

(* Every round reproduces the first one's digests. *)
let reproducible = function
  | [] -> true
  | r0 :: rest -> List.for_all (fun r -> r.digests = r0.digests) rest

(* ------------------------------------------------------------------ *)
(* Measurement phase and per-layer attribution                         *)
(* ------------------------------------------------------------------ *)

type measured = {
  op : string;  (** the span that delimits one operation *)
  untraced : round list;
  traced : round list;
  stats : Trace_stats.t option;
  words_per_op : float;  (** per operation, on the driving domain, untraced *)
}

(* [round ~sink i] runs round [i] with [sink] installed everywhere. *)
let measure ~seconds ~trace ~op round =
  if not trace then
    { op; untraced = rounds ~seconds (round ~sink:Obs.null); traced = [];
      stats = None; words_per_op = 0. }
  else begin
    let w0 = Gc.allocated_bytes () in
    let untraced = rounds ~seconds:(seconds /. 2.) (round ~sink:Obs.null) in
    let words = (Gc.allocated_bytes () -. w0) /. 8. in
    let stats = Trace_stats.create ~op:(String.equal op) () in
    let sink = Trace_stats.sink stats in
    let traced = rounds ~seconds:(seconds /. 2.) (round ~sink) in
    { op; untraced; traced; stats = Some stats;
      words_per_op = words /. float_of_int (Stdlib.max 1 (ops untraced)) }
  end

(* Per-tick times of the daemon's stages that have no span of their
   own, measured by a stage probe outside the daemon. *)
type probe = {
  truth_ms : float;  (** per operation: demand lookup + [Routing.link_loads] *)
  snmp_ms : float;  (** [Collect.Stream.tick] *)
  series_ms : float;  (** [Scan.Series.push] *)
  reroute_ms : float;  (** [Routing.without_links], between ticks *)
}

let no_probe = { truth_ms = 0.; snmp_ms = 0.; series_ms = 0.; reroute_ms = 0. }

let layer_of name =
  let p prefix = String.starts_with ~prefix name in
  if name = "daemon.tick" || name = "scan.window" || p "bench." then `Op
  else if p "solve/" then `Estimator
  else if p "degrade/" then `Degrade
  else if p "ws." then `Workspace
  else if name = "pool.parallel_for" then `Pool_dispatch
  else if p "pool." then `Pool_work
  else `Solver

(* Shares are of the summed operation time; absolute figures are per
   operation.  Only spans inside an operation on its own domain enter
   the shares — work a pool worker does for an operation running on
   another domain is reported as the workers' busy fraction. *)
let attribution ~stats ~jobs ~(m : measured) ~probe =
  let main = (Domain.self () :> int) in
  let sp ?tid pred = Trace_stats.spans ?tid stats pred in
  let op_t = sp (String.equal m.op) in
  let per_op x = x /. float_of_int (Stdlib.max 1 op_t.Trace_stats.n) in
  let total = op_t.Trace_stats.total_ms in
  let share ms = if total > 0. then ms /. total else 0. in
  let self l = (Trace_stats.spans_in_op stats (fun n -> layer_of n = l)).Trace_stats.self_ms in
  let op_ms = per_op total in
  let probed = probe.truth_ms +. probe.snmp_ms +. probe.series_ms in
  let unattributed =
    Float.max 0. (per_op op_t.Trace_stats.self_ms -. probed) /. op_ms
  in
  let ws = sp (fun n -> layer_of n = `Workspace) in
  let probes = Trace_stats.counter_samples stats (fun n ->
      String.starts_with ~prefix:"ws." n && String.ends_with ~suffix:".hits" n)
  in
  let worker_busy =
    (sp ~tid:(fun d -> d <> main) (String.equal "pool.slot")).Trace_stats.total_ms
  in
  let traced_wall = wall m.traced in
  let per_op_wall rs = wall rs /. float_of_int (Stdlib.max 1 (ops rs)) in
  [
    ("share.unattributed", unattributed);
    ("share.truth", probe.truth_ms /. op_ms);
    ("share.snmp", probe.snmp_ms /. op_ms);
    ("share.series", probe.series_ms /. op_ms);
    ("share.reroute", probe.reroute_ms /. op_ms);
    ("share.degrade", share (self `Degrade));
    ("share.estimator", share (self `Estimator));
    ("share.solver", share (self `Solver));
    ("share.workspace", share (self `Workspace));
    ("share.pool_dispatch", share (self `Pool_dispatch));
    ("share.pool_work", share (self `Pool_work));
    ("trace.coverage", 1. -. unattributed);
    ( "trace.overhead",
      (per_op_wall m.traced /. per_op_wall m.untraced) -. 1. );
    ("op.ms", op_ms);
    ("solve.ms_per_op", per_op (sp (fun n -> layer_of n = `Estimator)).Trace_stats.total_ms);
    ("solver.ms_per_op", per_op (sp (fun n -> layer_of n = `Solver)).Trace_stats.self_ms);
    ("ws.ms_per_op", per_op ws.Trace_stats.self_ms);
    ("solver.iters_per_op", per_op (float_of_int (Trace_stats.iterations stats)));
    ("ws.builds_per_op", per_op (float_of_int ws.Trace_stats.n));
    ( "ws.hit_ratio",
      if probes = 0 then 0. else Float.max 0. (1. -. (float_of_int ws.Trace_stats.n /. float_of_int probes)) );
    ("pool.fanouts_per_op", per_op (float_of_int (sp (String.equal "pool.parallel_for")).Trace_stats.n));
    ( "pool.worker_busy",
      if jobs <= 1 || traced_wall <= 0. then 0.
      else worker_busy /. 1e3 /. (float_of_int (jobs - 1) *. traced_wall) );
    ("alloc.words_per_op", m.words_per_op);
  ]

let trace_check stats =
  match Trace_stats.validate stats with
  | Ok _ -> ("trace validates", true)
  | Error e ->
      prerr_endline ("trace validation failed: " ^ e);
      ("trace validates", false)

(* ------------------------------------------------------------------ *)
(* Streaming daemon: stream-100 and stream-us                          *)
(* ------------------------------------------------------------------ *)

type stream = {
  dataset : unit -> Dataset.t;
  method_name : string;
  loss_prob : float;
  session_ticks : int;
  profile : Faults.profile;
}

let window = 8

(* Session length of a smoke-sized stream: a few ticks past the quiet
   prefix. *)
let smoke_ticks = Faults.quiet + 8

(* The 100-PoP production loop: sparse core, Kruithof, lossy jittered
   polling, a handful of faults per session. *)
let stream_100 ~smoke =
  {
    dataset = (fun () -> Dataset.synthetic ~pops:(if smoke then 12 else 100) ());
    method_name = "kruithof";
    loss_prob = Collect.default_config.Collect.loss_prob;
    session_ticks = (if smoke then smoke_ticks else 96);
    profile = { Faults.flap_events = 2; flap_links = (1, 1); poller_drops = 2; resets = 3 };
  }

(* The paper's America network: dense core, warm entropy, one flap
   event per simulated hour so workspace rebuilds populate the tail. *)
let stream_us ~smoke =
  let ticks = if smoke then smoke_ticks else 120 in
  {
    dataset = (fun () -> if smoke then Dataset.europe () else Dataset.america ());
    method_name = "entropy";
    loss_prob = 0.;
    session_ticks = ticks;
    profile =
      {
        Faults.flap_events = Stdlib.max 1 ((ticks - Faults.quiet) / 12);
        flap_links = (1, 2);
        poller_drops = 4;
        resets = 2;
      };
  }

(* The daemon's collector configuration, rebuilt outside it: the same
   believability ceiling (4x the day's peak link rate) so the probe's
   stream reproduces the daemon's bit for bit.  This and the per-tick
   fault mapping in [stage_probe] mirror [Daemon.run]
   (lib/daemon/daemon.ml), which does not expose them; a change to
   those rules there must be made here too, or the check that the
   probe's stream matches the daemon's fails. *)
let daemon_stream_config d (cfg : Collect.config) =
  let peak = ref 0. in
  for k = 0 to Dataset.num_samples d - 1 do
    Array.iter
      (fun v -> if v > !peak then peak := v)
      (Routing.link_loads d.Dataset.routing (Dataset.demand_at d k))
  done;
  { cfg with Collect.max_rate_bps = Float.max cfg.Collect.max_rate_bps (4. *. !peak) }

(* Replays one session's polling outside the daemon, timing the tick
   stages that have no span of their own, and checks the recovered
   loads against what the daemon fed its estimator. *)
let stage_probe d (cfg : Daemon.config) (records : Daemon.tick_record array) =
  let topo = d.Dataset.routing.Routing.topo in
  let links = Dataset.num_links d in
  let stream = Collect.Stream.create (daemon_stream_config d cfg.Daemon.stream) ~links in
  let ws = Workspace.create d.Dataset.routing in
  let series = Scan.Series.create ~name:"probe" ws ~window:cfg.Daemon.window ~links in
  let routes = Hashtbl.create 8 in
  let sc = cfg.Daemon.scenario in
  let truth = ref 0. and snmp = ref 0. and push = ref 0. and reroute = ref 0. in
  let timed acc f =
    let t0 = now_ns () in
    let v = f () in
    acc := !acc +. Int64.to_float (Int64.sub (now_ns ()) t0);
    v
  in
  let same = ref true in
  let ns = Dataset.num_samples d in
  for k = 0 to cfg.Daemon.ticks - 1 do
    let failed = Faults.failed_at sc k in
    let routing =
      match Hashtbl.find_opt routes failed with
      | Some r -> r
      | None ->
          let r =
            if failed = [] then d.Dataset.routing
            else
              match timed reroute (fun () -> Routing.without_links topo ~failed) with
              | Some r -> r
              | None -> invalid_arg "stage probe: scripted flap disconnects the network"
          in
          Hashtbl.add routes failed r;
          r
    in
    let true_loads =
      timed truth (fun () -> Routing.link_loads routing (Dataset.demand_at d (k mod ns)))
    in
    let st =
      timed snmp (fun () ->
          Collect.Stream.tick
            ~drop_pollers:
              (List.filter_map
                 (fun (p, a, b) -> if a <= k && k <= b then Some p else None)
                 sc.Daemon.poller_drops)
            ~reset_links:
              (List.filter_map (fun (l, at) -> if at = k then Some l else None) sc.Daemon.resets)
            stream ~true_loads)
    in
    timed push (fun () -> Scan.Series.push series st.Collect.Stream.loads);
    if k < Array.length records then begin
      let a = st.Collect.Stream.loads and b = records.(k).Daemon.loads in
      if
        Array.length a <> Array.length b
        || not
             (Array.for_all2
                (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
                a b)
      then same := false
    end
  done;
  let per_tick x = x /. 1e6 /. float_of_int cfg.Daemon.ticks in
  ( { truth_ms = per_tick !truth; snmp_ms = per_tick !snmp; series_ms = per_tick !push;
      reroute_ms = per_tick !reroute },
    !same )

let run_stream spec ~seed ~seconds ~trace ~jobs =
  let ticks = spec.session_ticks in
  let stream = { Collect.default_config with Collect.seed; loss_prob = spec.loss_prob } in
  let setup_s, (d, scenario) =
    set_up (fun () ->
        let d = spec.dataset () in
        let scenario =
          Faults.script ~seed ~topo:d.Dataset.routing.Routing.topo
            ~links:(Dataset.num_links d) ~pollers:stream.Collect.pollers ~ticks
            spec.profile
        in
        (d, scenario))
  in
  let pairs = Dataset.num_pairs d in
  let est = Estimator.of_name spec.method_name in
  let cfg = Daemon.config ~window ~ticks ~stream ~scenario ~est () in
  let pool = Pool.create ~jobs in
  let first = ref [||] in
  let results = ref [] in
  let round ~sink _ =
    Pool.set_sink pool sink;
    let t0 = now_ns () in
    let r = Daemon.run ~pool ~sink cfg d in
    let wall_s = since t0 in
    let records = Array.of_list r.Daemon.records in
    if !first = [||] then first := records;
    results := r :: !results;
    let bad = ref r.Daemon.aborted in
    let digests =
      Array.map
        (fun (t : Daemon.tick_record) ->
          match check_estimate ~pairs t.Daemon.estimate with
          | Some h -> h
          | None -> incr bad; 0)
        records
    in
    {
      ops = r.Daemon.ticks;
      failed = !bad;
      wall_s;
      lat_ms =
        (let lat = Array.make ticks nan in
         Array.iter
           (fun (t : Daemon.tick_record) ->
             lat.(t.Daemon.tick) <- Int64.to_float t.Daemon.latency_ns /. 1e6)
           records;
         lat);
      digests;
    }
  in
  let m = measure ~seconds ~trace ~op:"daemon.tick" round in
  Pool.shutdown pool;
  let records = !first in
  let results = !results in
  let probe, probe_same = stage_probe d cfg records in
  (* Health and epoch checks on every session. *)
  let drops = Faults.drop_ticks scenario in
  let drop_ok (r : Daemon.result) =
    List.for_all
      (fun k ->
        List.exists
          (fun (t : Daemon.tick_record) ->
            t.Daemon.tick = k
            && match t.Daemon.health with Some h -> not h.Degrade.clean | None -> false)
          r.Daemon.records)
      drops
  in
  let expected_epochs = Faults.epochs scenario ~ticks in
  (* Full-window ticks: at least [window] ticks into their epoch. *)
  let epoch_start = Hashtbl.create 8 in
  Array.iter
    (fun (t : Daemon.tick_record) ->
      if not (Hashtbl.mem epoch_start t.Daemon.epoch) then
        Hashtbl.add epoch_start t.Daemon.epoch t.Daemon.tick)
    records;
  let mres =
    Array.of_list
      (List.filter_map
         (fun (t : Daemon.tick_record) ->
           if t.Daemon.tick - Hashtbl.find epoch_start t.Daemon.epoch >= window - 1 then
             Some
               (Metrics.mre ~truth:(Dataset.demand_at d t.Daemon.snapshot)
                  ~estimate:t.Daemon.estimate ())
           else None)
         (Array.to_list records))
  in
  let all_rounds = m.untraced @ m.traced in
  let checks =
    [
      ("no tick aborted", List.for_all (fun (r : Daemon.result) -> r.Daemon.aborted = 0) results);
      ("poller-drop ticks carry non-clean health", List.for_all drop_ok results);
      ("epochs match the script", List.for_all (fun (r : Daemon.result) -> r.Daemon.epochs = expected_epochs) results);
      ("sessions reproduce the first", reproducible all_rounds);
      ("probe stream matches the daemon's", probe_same);
      ("tick mre is finite", Array.length mres > 0 && Array.for_all Float.is_finite mres);
    ]
  in
  let per_tick f =
    let n = List.fold_left (fun a (r : Daemon.result) -> a + r.Daemon.ticks) 0 results in
    float_of_int (List.fold_left (fun a r -> a + f r) 0 results) /. float_of_int (Stdlib.max 1 n)
  in
  let layers, checks =
    match m.stats with
    | None -> ([], checks)
    | Some stats ->
        let health f =
          per_tick (fun (r : Daemon.result) ->
              List.fold_left
                (fun a (t : Daemon.tick_record) ->
                  match t.Daemon.health with Some h -> a + f h | None -> a)
                0 r.Daemon.records)
        in
        ( attribution ~stats ~jobs ~m ~probe
          @ [
              ("snmp.polls_lost_per_tick", per_tick (fun r -> r.Daemon.polls_lost));
              ("snmp.resets_per_tick", per_tick (fun r -> r.Daemon.counter_resets));
              ("degrade.imputed_per_tick", health (fun h -> h.Degrade.imputed));
              ("degrade.repaired_frac", health (fun h -> if h.Degrade.clean then 0 else 1));
            ],
          checks @ [ trace_check stats ] )
  in
  {
    setup_s;
    rounds = all_rounds;
    mre = median mres;
    checks;
    layers;
    detail =
      [
        ("network", J.Str d.Dataset.spec.Spec.name);
        ("pairs", J.Num (float_of_int pairs));
        ("method", J.Str spec.method_name);
        ("session_ticks", J.Num (float_of_int ticks));
        ("expected_epochs", J.Num (float_of_int expected_epochs));
        ("script", Faults.to_json scenario);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Batch day replay: replay-100                                        *)
(* ------------------------------------------------------------------ *)

(* Each round replays the measurement day four times over, as a replay
   of several days would; once at smoke size. *)
let run_replay ~smoke ~seed ~seconds ~trace ~jobs =
  let pops = if smoke then 12 else 100 and replay_days = if smoke then 1 else 4 in
  let est = Estimator.of_name "kruithof" in
  let setup_s, (ctx, net, offset, source) =
    set_up
      ~dispose:(fun (ctx, _, _, _) -> Pool.shutdown (Ctx.pool ctx))
      (fun () ->
        let ctx = Ctx.create ~fast:true ~jobs () in
        let net = Ctx.synthetic ctx ~pops in
        let d = net.Ctx.dataset in
        let ns = Dataset.num_samples d in
        let offset = Rng.int (Rng.create seed) ns in
        let day = Array.init ns (Dataset.link_loads_at d) in
        let loads =
          Array.init ((replay_days * ns) + window - 1) (fun j -> day.((offset + j) mod ns))
        in
        (* Prime the workspace's routing artifacts. *)
        ignore
          (Scan.run net est
             (Scan.make (Scan.Windows { window; loads = Array.sub loads 0 window })));
        (ctx, net, offset, Scan.Windows { window; loads }))
  in
  let windows = replay_days * Dataset.num_samples net.Ctx.dataset in
  let pool = Ctx.pool ctx in
  let pairs = Dataset.num_pairs net.Ctx.dataset in
  let round ~sink _ =
    Pool.set_sink pool sink;
    Workspace.set_sink net.Ctx.workspace sink;
    let lat = Array.make windows nan in
    let digests = Array.make windows 0 in
    let bad = Atomic.make 0 in
    (* Per-domain stamp of the previous window's end: chunks run
       concurrently, each in order on one domain. *)
    let last = Hashtbl.create 4 and lock = Mutex.create () in
    let t0 = now_ns () in
    let on_window ~step ~snapshot:_ v =
      let t = now_ns () in
      let d = (Domain.self () :> int) in
      let prev =
        Mutex.protect lock (fun () ->
            let p = Option.value ~default:t0 (Hashtbl.find_opt last d) in
            Hashtbl.replace last d t;
            p)
      in
      lat.(step) <- Int64.to_float (Int64.sub t prev) /. 1e6;
      match check_estimate ~pairs v with
      | Some h -> digests.(step) <- h
      | None -> Atomic.incr bad
    in
    ignore (Scan.run net est (Scan.make ~on_window source));
    let wall_s = since t0 in
    { ops = windows; failed = Atomic.get bad; wall_s; lat_ms = lat; digests }
  in
  let m = measure ~seconds ~trace ~op:"scan.window" round in
  Pool.shutdown pool;
  Workspace.set_sink net.Ctx.workspace Obs.null;
  (* The jobs=1 pass: the pool baseline, the reference the parallel
     rounds must match bit for bit, and the accuracy check. *)
  let seq = Pool.create ~jobs:1 in
  let t0 = now_ns () in
  let reference = Scan.run net est (Scan.make ~pool:seq source) in
  let seq_s = since t0 in
  Pool.shutdown seq;
  let ref_digests =
    Array.of_list
      (List.map (fun (_, v) -> Option.value ~default:0 (check_estimate ~pairs v)) reference)
  in
  let mres =
    Array.of_list
      (List.map
         (fun (step_end, v) ->
           let d = net.Ctx.dataset in
           let k = (offset + step_end) mod Dataset.num_samples d in
           Metrics.mre ~truth:(Dataset.demand_at d k) ~estimate:v ())
         reference)
  in
  let all_rounds = m.untraced @ m.traced in
  let checks =
    [
      ("parallel rounds match the jobs=1 replay bit for bit",
       List.for_all (fun r -> r.digests = ref_digests) all_rounds);
      ("window mre is finite", Array.for_all Float.is_finite mres);
    ]
  in
  let layers, checks =
    match m.stats with
    | None -> ([], checks)
    | Some stats ->
        let par = wall m.untraced /. float_of_int (List.length m.untraced) in
        ( attribution ~stats ~jobs ~m ~probe:no_probe
          @ [ ("pool.speedup", seq_s /. par) ],
          checks @ [ trace_check stats ] )
  in
  {
    setup_s;
    rounds = all_rounds;
    mre = median mres;
    checks;
    layers;
    detail =
      [
        ("network", J.Str net.Ctx.label);
        ("pairs", J.Num (float_of_int pairs));
        ("method", J.Str "kruithof");
        ("start_sample", J.Num (float_of_int offset));
        ("windows_per_round", J.Num (float_of_int windows));
        ("jobs1_round_s", J.Num seq_s);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Method comparison: methods                                          *)
(* ------------------------------------------------------------------ *)

(* The paper's two networks plus a sparse-mode synthetic one just past
   the workspace's sparse gate (2450 pairs); Europe alone at smoke
   size. *)
let method_networks ~smoke =
  ("europe", fun () -> Dataset.europe ())
  ::
  (if smoke then []
   else
     [
       ("america", fun () -> Dataset.america ());
       ("pops50", fun () -> Dataset.synthetic ~pops:50 ());
     ])

(* Every registry method, except the dense-only worst-case bounds
   outside Europe: they are refused in sparse mode, and on America their
   two LPs per demand take about 12 s, most of a run.  At smoke size, a
   snapshot prior, an iterative snapshot method and a time-series
   method. *)
let methods_for ~smoke net =
  if smoke then [ "gravity"; "tomogravity_iter"; "fanout" ]
  else
    List.filter
      (fun name -> net = "europe" || Estimator.supports_sparse (Estimator.of_name name))
      (Estimator.all_names ())

(* ["<network>.<method>"] for every solve of a full-size sweep, in
   sweep order. *)
let method_pairs =
  List.concat_map
    (fun (net, _) -> List.map (fun m -> net ^ "." ^ m) (methods_for ~smoke:false net))
    (method_networks ~smoke:false)

type problem = {
  net : string;
  d : Dataset.t;
  snapshot : int;
  loads : Vec.t;
  load_samples : Mat.t;
  truth : Vec.t;
  busy_mean : Vec.t;
}

(* The seed picks the snapshot every method is compared on, and with it
   the measurement window ending there: one of the five busy-period
   samples around the middle one the paper's evaluation uses.  Farther
   out, the iterative methods' work moves by more than a bound from one
   seed to the next. *)
let problem ~seed i (net, build) =
  let d = build () in
  let busy = Array.of_list (Dataset.busy_samples d) in
  let n = Array.length busy in
  let last =
    Stdlib.max (window - 1)
      (Stdlib.min (n - 1) ((n / 2) - 2 + Rng.int (Rng.of_pair seed i) 5))
  in
  let k = busy.(last) in
  let load_samples = Mat.zeros window (Dataset.num_links d) in
  for i = 0 to window - 1 do
    Mat.set_row load_samples i (Dataset.link_loads_at d busy.(last - window + 1 + i))
  done;
  {
    net;
    d;
    snapshot = k;
    loads = Dataset.link_loads_at d k;
    load_samples;
    truth = Dataset.demand_at d k;
    busy_mean = Dataset.busy_mean_demand d;
  }

let run_methods ~smoke ~seed ~seconds ~trace ~jobs =
  let setup_s, problems =
    set_up (fun () -> List.mapi (problem ~seed) (method_networks ~smoke))
  in
  let pool = Pool.create ~jobs in
  let iters = Hashtbl.create 32 and pair_ms = Hashtbl.create 32 in
  let mres = ref [] in
  let round ~sink i =
    Pool.set_sink pool sink;
    let lat = ref [] and digests = ref [] and bad = ref 0 in
    List.iter
      (fun p ->
        (* A fresh workspace per sweep, shared by the network's methods:
           every sweep pays the routing artifacts once, as a one-off
           comparison run does. *)
        let ws = Workspace.create ~pool ~sink p.d.Dataset.routing in
        List.iter
          (fun name ->
            let m = Estimator.of_name name in
            let key = p.net ^ "." ^ name in
            let t0 = now_ns () in
            let estimate =
              try
                Some
                  (Obs.span sink "bench.solve" (fun () ->
                       Estimator.solve m ws ~loads:p.loads ~load_samples:p.load_samples))
              with e ->
                prerr_endline (key ^ ": " ^ Printexc.to_string e);
                None
            in
            let ms =
              if Option.is_none estimate then nan
              else Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6
            in
            lat := ms :: !lat;
            (* From untraced sweeps only: traced FISTA solvers evaluate
               their objective every iteration for the trace record,
               which would inflate their share. *)
            if not sink.Obs.enabled then
              Hashtbl.replace pair_ms key
                (ms +. Option.value ~default:0. (Hashtbl.find_opt pair_ms key));
            Hashtbl.replace iters key
              (Option.value ~default:0 (Workspace.last_iterations ws ~name));
            match Option.bind estimate (check_estimate ~pairs:(Dataset.num_pairs p.d)) with
            | Some h ->
                digests := h :: !digests;
                if i = 0 && not sink.Obs.enabled then begin
                  let truth = if Estimator.uses_time_series m then p.busy_mean else p.truth in
                  mres := Metrics.mre ~truth ~estimate:(Option.get estimate) () :: !mres
                end
            | None ->
                incr bad;
                digests := 0 :: !digests)
          (methods_for ~smoke p.net))
      problems;
    let lat_ms = Array.of_list (List.rev !lat) in
    {
      ops = Array.length lat_ms;
      failed = !bad;
      wall_s = Array.fold_left ( +. ) 0. lat_ms /. 1e3;
      lat_ms;
      digests = Array.of_list (List.rev !digests);
    }
  in
  let m = measure ~seconds ~trace ~op:"bench.solve" round in
  Pool.shutdown pool;
  let mres = Array.of_list !mres in
  let all_rounds = m.untraced @ m.traced in
  let checks =
    [
      ("sweeps reproduce the first", reproducible all_rounds);
      ("solve mre is finite", Array.length mres > 0 && Array.for_all Float.is_finite mres);
    ]
  in
  let layers, checks =
    match m.stats with
    | None -> ([], checks)
    | Some stats ->
        let total = Hashtbl.fold (fun _ v a -> a +. v) pair_ms 0. in
        ( attribution ~stats ~jobs ~m ~probe:no_probe
          @ List.concat_map
              (fun key ->
                [
                  ( "solve_share." ^ key,
                    Option.value ~default:0. (Hashtbl.find_opt pair_ms key) /. total );
                  ("iters." ^ key, float_of_int (Option.value ~default:0 (Hashtbl.find_opt iters key)));
                ])
              method_pairs,
          checks @ [ trace_check stats ] )
  in
  {
    setup_s;
    rounds = all_rounds;
    mre = geomean mres;
    checks;
    layers;
    detail =
      [
        ( "snapshots",
          J.Obj
            (List.map
               (fun p -> (p.d.Dataset.spec.Spec.name, J.Num (float_of_int p.snapshot)))
               problems) );
        ("solves_per_sweep", J.Num (float_of_int (List.length method_pairs)));
        ("sweeps", J.Num (float_of_int (List.length all_rounds)));
      ];
  }
