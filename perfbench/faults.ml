(* Seeded fault scripts for the streaming workloads.

   [script] is a pure function of (seed, topology, ticks, profile): the
   same arguments always give the same [Daemon.scenario].  The first
   [quiet] ticks stay fault-free so every session starts with a full,
   clean measurement window.  Flap events never overlap and each leaves
   at least one tick up before the next, so every scripted failed-link
   set is exactly one event's set — and each is checked with
   [Routing.without_links] when drawn: a set that disconnects the
   network would make [Daemon.run] raise at context creation, outside
   its per-tick handler, and end the whole run. *)

module Daemon = Tmest_daemon.Daemon
module Routing = Tmest_net.Routing
module Topology = Tmest_net.Topology
module Rng = Tmest_stats.Rng

(* Fault-free leading ticks. *)
let quiet = 24

(* A flap event lasts 1 to 3 ticks. *)
let flap_ticks = (1, 3)

type profile = {
  flap_events : int;
  flap_links : int * int;  (** links down per event, inclusive range *)
  poller_drops : int;  (** one-tick outages of a whole poller *)
  resets : int;  (** counter resets on random links *)
}

let range rng (lo, hi) = lo + Rng.int rng (hi - lo + 1)

(* [k] distinct interior links whose joint failure leaves the network
   connected. *)
let rec failed_set rng topo interior k =
  let n = Array.length interior in
  let picks = Array.copy interior in
  for i = 0 to k - 1 do
    let j = i + Rng.int rng (n - i) in
    let tmp = picks.(i) in
    picks.(i) <- picks.(j);
    picks.(j) <- tmp
  done;
  let failed = List.sort compare (Array.to_list (Array.sub picks 0 k)) in
  match Routing.without_links topo ~failed with
  | Some _ -> failed
  | None -> failed_set rng topo interior k

(* [pollers] is the collector's poller count. *)
let script ~seed ~topo ~links ~pollers ~ticks p =
  if ticks <= quiet then invalid_arg "Faults.script: no ticks after the quiet prefix";
  let rng = Rng.create seed in
  let interior =
    Array.of_list
      (List.map (fun l -> l.Topology.link_id) (Topology.interior_links topo))
  in
  (* One equal slot per flap event; the event sits inside its slot with
     at least one clean tick after it. *)
  let span = ticks - quiet in
  let slot = if p.flap_events = 0 then span else span / p.flap_events in
  let flaps =
    List.concat
      (List.init p.flap_events (fun e ->
           let len = Stdlib.min (range rng flap_ticks) (slot - 1) in
           let start = quiet + (e * slot) + Rng.int rng (slot - len) in
           let failed = failed_set rng topo interior (range rng p.flap_links) in
           List.map (fun l -> (l, start, start + len - 1)) failed))
  in
  let tick () = quiet + Rng.int rng span in
  let poller_drops =
    List.init p.poller_drops (fun _ ->
        let k = tick () in
        (Rng.int rng pollers, k, k))
  in
  let resets = List.init p.resets (fun _ -> (Rng.int rng links, tick ())) in
  { Daemon.flaps; poller_drops; resets }

(* The failed-link set at tick [k], computed exactly as the daemon does. *)
let failed_at (s : Daemon.scenario) k =
  List.sort_uniq compare
    (List.filter_map
       (fun (l, k0, k1) -> if k0 <= k && k <= k1 then Some l else None)
       s.Daemon.flaps)

(* Routing epochs the daemon must enter over [ticks]: one, plus one per
   change of the failed-link set. *)
let epochs (s : Daemon.scenario) ~ticks =
  let n = ref 1 in
  for k = 1 to ticks - 1 do
    if failed_at s k <> failed_at s (k - 1) then incr n
  done;
  !n

let drop_ticks (s : Daemon.scenario) =
  List.sort_uniq compare (List.map (fun (_, k, _) -> k) s.Daemon.poller_drops)

let to_json (s : Daemon.scenario) =
  let module J = Tmest_obs.Json in
  let ints l = J.List (List.map (fun i -> J.Num (float_of_int i)) l) in
  J.Obj
    [
      ("flaps", J.List (List.map (fun (l, a, b) -> ints [ l; a; b ]) s.Daemon.flaps));
      ( "poller_drops",
        J.List (List.map (fun (p, a, b) -> ints [ p; a; b ]) s.Daemon.poller_drops) );
      ("resets", J.List (List.map (fun (l, k) -> ints [ l; k ]) s.Daemon.resets));
    ]
