(* Per-layer statistics folded from the obs event stream as it is
   emitted.

   A [Tmest_obs.Recorder] keeps every event, and a traced run emits one
   event per solver iteration and several per pool fan-out — millions
   in a benchmark run.  This sink instead folds spans into per-(domain,
   name) count / total / self time on the fly, counts solver iterations
   and counter samples, and keeps a bounded sample of the raw events
   for schema validation.  The sample stays well-formed: once it is
   full no new span is admitted, but every admitted span's end still
   is, so the sampled trace is properly nested and fully closed. *)

module Obs = Tmest_obs.Obs

type span = { mutable count : int; mutable total_ns : float; mutable self_ns : float }

type frame = {
  name : string;
  start : int64;
  mutable child_ns : float;
  sampled : bool;
  in_op : bool;  (** nested, on its own domain, inside an operation span *)
}

type t = {
  lock : Mutex.t;
  stacks : (int, frame list) Hashtbl.t;
  op : string -> bool;  (** names the workload's operation spans *)
  spans : (int * string, span) Hashtbl.t;
  in_op : (string, span) Hashtbl.t;  (** spans inside operations, all domains *)
  iters : (string, int ref) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
  mutable sample : (int64 * int * Obs.event) list;
  mutable sampled : int;
  mutable errors : string list;
  recorder : Tmest_obs.Recorder.t;
      (** receives the sample at {!validate}; created up front so trace
          timestamps rebase to the start of tracing *)
}

(* Events kept for validation: about 10 MB. *)
let sample_cap = 100_000

let create ~op () =
  {
    lock = Mutex.create ();
    stacks = Hashtbl.create 8;
    op;
    spans = Hashtbl.create 64;
    in_op = Hashtbl.create 64;
    iters = Hashtbl.create 16;
    counters = Hashtbl.create 64;
    sample = [];
    sampled = 0;
    errors = [];
    recorder = Tmest_obs.Recorder.create ~meta:[ ("source", "perfbench") ] ();
  }

let keep t ~t_ns ~tid ev =
  t.sample <- (t_ns, tid, ev) :: t.sample;
  t.sampled <- t.sampled + 1

let bump tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> incr r
  | None -> Hashtbl.add tbl name (ref 1)

let add tbl key ~dur ~self =
  let s =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
        let s = { count = 0; total_ns = 0.; self_ns = 0. } in
        Hashtbl.add tbl key s;
        s
  in
  s.count <- s.count + 1;
  s.total_ns <- s.total_ns +. dur;
  s.self_ns <- s.self_ns +. self

let on_event t ~t_ns ~tid ev =
  let stack () = Option.value ~default:[] (Hashtbl.find_opt t.stacks tid) in
  match ev with
  | Obs.Span_begin { name; _ } ->
      let stack = stack () in
      let sampled = t.sampled < sample_cap in
      if sampled then keep t ~t_ns ~tid ev;
      let in_op = match stack with p :: _ -> p.in_op || t.op p.name | [] -> false in
      Hashtbl.replace t.stacks tid
        ({ name; start = t_ns; child_ns = 0.; sampled; in_op } :: stack)
  | Obs.Span_end { name } -> (
      match stack () with
      | f :: rest when f.name = name ->
          Hashtbl.replace t.stacks tid rest;
          let dur = Int64.to_float (Int64.sub t_ns f.start) in
          let self = dur -. f.child_ns in
          add t.spans (tid, name) ~dur ~self;
          if f.in_op then add t.in_op name ~dur ~self;
          (match rest with p :: _ -> p.child_ns <- p.child_ns +. dur | [] -> ());
          if f.sampled then keep t ~t_ns ~tid ev
      | _ ->
          t.errors <-
            Printf.sprintf "domain %d: span_end %S does not close the open span"
              tid name
            :: t.errors)
  | Obs.Counter { name; _ } ->
      bump t.counters name;
      if t.sampled < sample_cap then keep t ~t_ns ~tid ev
  | Obs.Iter { solver; _ } -> bump t.iters solver

let sink t =
  Obs.make_sink (fun ~t_ns ~tid ev ->
      Mutex.protect t.lock (fun () -> on_event t ~t_ns ~tid ev))

(* Queries run after the traced work has finished (pools shut down), so
   they read without the lock's help being needed; taking it anyway
   keeps a late worker event from racing the fold. *)
let locked t f = Mutex.protect t.lock (fun () -> f t)

type totals = { n : int; total_ms : float; self_ms : float }

let zero = { n = 0; total_ms = 0.; self_ms = 0. }

let sum acc s =
  {
    n = acc.n + s.count;
    total_ms = acc.total_ms +. (s.total_ns /. 1e6);
    self_ms = acc.self_ms +. (s.self_ns /. 1e6);
  }

(* Totals over every span whose name satisfies [pred], restricted to the
   domains satisfying [tid]. *)
let spans ?(tid = fun _ -> true) t pred =
  locked t (fun t ->
      Hashtbl.fold
        (fun (d, name) s acc -> if tid d && pred name then sum acc s else acc)
        t.spans zero)

(* Totals over the spans nested inside operation spans. *)
let spans_in_op t pred =
  locked t (fun t ->
      Hashtbl.fold (fun name s acc -> if pred name then sum acc s else acc) t.in_op zero)

(* Solver iteration records, all solvers. *)
let iterations t = locked t (fun t -> Hashtbl.fold (fun _ r acc -> acc + !r) t.iters 0)

let counter_samples t pred =
  locked t (fun t ->
      Hashtbl.fold
        (fun name r acc -> if pred name then acc + !r else acc)
        t.counters 0)

(* The sampled events, replayed in timestamp order into a recorder and
   checked by the repository's own schema validator, plus the fold's
   own findings: unmatched ends and spans still open. *)
let validate t =
  locked t (fun t ->
      let open_spans =
        Hashtbl.fold
          (fun tid stack acc ->
            List.map (fun f -> Printf.sprintf "domain %d: %S never closed" tid f.name) stack
            @ acc)
          t.stacks []
      in
      match t.errors @ open_spans with
      | e :: _ -> Error e
      | [] -> (
          let events = Array.of_list (List.rev t.sample) in
          (* Stamps are taken before the sink's lock, so two domains can
             append out of stamp order; a stable sort restores global
             order and keeps each domain's own sequence. *)
          Array.stable_sort (fun (a, _, _) (b, _, _) -> Int64.compare a b) events;
          let emit = (Tmest_obs.Recorder.sink t.recorder).Obs.emit in
          Array.iter (fun (t_ns, tid, ev) -> emit ~t_ns ~tid ev) events;
          Tmest_obs.Validate.jsonl (Tmest_obs.Recorder.to_jsonl t.recorder)))
