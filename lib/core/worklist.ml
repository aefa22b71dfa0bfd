(* The exploration kernel: the one breadth-first worklist loop every
   engine runs on (paper section 2 — generation of the configuration
   graph under a pluggable expansion).  Space, Checkpoint, Sleep, the
   race scan's own pass, the witness search and Petri reachability are
   [Make] plus an engine record; the parallel engine's workers share the
   per-pop body.  The loop, its hooks and the truncation drain are
   described in docs/INTERNALS.md §8.1. *)

module Metrics = Cobegin_obs.Metrics
module Probe = Cobegin_obs.Probe
module Journal = Cobegin_obs.Journal

(* Journal breadcrumbs are sampled — one Debug event per
   [journal_every] pops — so a flight-recorder dump shows where the
   engine was without the journal's lock ever entering the hot path
   more than ~0.4% of iterations. *)
let journal_every = 256

(* A live state carries what its expansion needs — typically the
   enabled actions the engine computed to tell Deadlock from Live — so
   they are computed once per pop, not once here and again in the
   expansion. *)
type 'w shape =
  | Error  (** an error configuration: terminal *)
  | Final  (** every process terminated: terminal *)
  | Deadlock  (** not final, nothing enabled: terminal *)
  | Live of 'w  (** something is enabled: expand it *)

(* Telemetry handles of one engine family, [counters prefix]: the
   [<prefix>.expansions] (pops), [.transitions], [.digest_hits] and
   [.admitted] counters and the [.frontier] / [.visited] gauges —
   process-global, and no-ops (one branch) while telemetry is
   disabled. *)
type counters = {
  m_expansions : Metrics.counter;
  m_transitions : Metrics.counter;
  m_digest_hits : Metrics.counter;
  m_admitted : Metrics.counter;
  g_frontier : Metrics.gauge;
  g_visited : Metrics.gauge;
}

let counters prefix =
  let name s = prefix ^ "." ^ s in
  {
    m_expansions = Metrics.counter (name "expansions");
    m_transitions = Metrics.counter (name "transitions");
    m_digest_hits = Metrics.counter (name "digest_hits");
    m_admitted = Metrics.counter (name "admitted");
    g_frontier = Metrics.gauge (name "frontier");
    g_visited = Metrics.gauge (name "visited");
  }

let count counters f =
  match counters with None -> () | Some m -> Metrics.incr (f m)

(* A state and its visited table (configurations keyed by digest,
   markings keyed by themselves). *)
module type STATE = sig
  type t

  module Tbl : Hashtbl.S

  val key : t -> Tbl.key
end

(** What pops produce: terminal states and the fired transitions'
    instrumentation.  A sequential run has one; each parallel worker
    owns its own. *)
type ('s, 'e) acc = {
  mutable finals : 's list;
  mutable deadlocks : 's list;
  mutable errors : 's list;
  mutable log : 'e list;  (** reverse firing order *)
  mutable transitions : int;  (** fired through this accumulator *)
}

(** The whole in-flight state of a sequential run between two pops —
    what a checkpoint saves and restores.  ['tbl] is the visited table. *)
type ('s, 'v, 'e, 'tbl) run = {
  visited : 'tbl;
  queue : ('s * 'v) Queue.t;
  acc : ('s, 'e) acc;
  mutable max_frontier : int;  (** peak queue length *)
  mutable pops : int;
  mutable stop : Budget.reason option;  (** the budget that stopped it *)
}

(** An engine: ['w] is what a live state's shape hands its expansion
    (the enabled actions, say), ['a] an action, ['v] the value the
    visited table records per state (nothing, or a sleep set), ['e] a
    transition's instrumentation. *)
type ('s, 'w, 'a, 'v, 'e, 'tbl) engine = {
  site : string;  (** fault site, hit once per pop *)
  name : string;  (** journal events [<name>.progress] / [<name>.done] *)
  counters : counters option;
  shape : 's -> 'w shape;
  expand : 's -> 'v -> 'w -> 'a list;
      (** the actions to fire at a live state popped with ['v], given
          what [shape] returned for it: a subset of the enabled ones,
          non-empty when any is *)
  fire : 's -> 'a -> 's * 'e;
  reached_with : 'a -> 'v;  (** the visited value of a successor *)
  revisit : recorded:'v -> 'v -> 'v option;
      (** a successor already visited with [recorded]: [Some v] records
          [v] and re-queues it, [None] drops it *)
  keep_log : bool;  (** keep each transition's ['e] in [acc.log] *)
  on_pop : 's -> 'w shape -> unit;
      (** each classified state with its shape: pops and drain *)
  on_fire : unit -> unit;  (** each fired transition *)
  on_boundary : ('s, 'v, 'e, 'tbl) run -> unit;
      (** before each pop, and once when a budget stops the run *)
}

let new_acc () =
  { finals = []; deadlocks = []; errors = []; log = []; transitions = 0 }

module type S = sig
  type state

  module Tbl : Hashtbl.S

  type nonrec 'e acc = (state, 'e) acc
  type nonrec ('v, 'e) run = (state, 'v, 'e, 'v Tbl.t) run
  type nonrec ('w, 'a, 'v, 'e) engine =
    (state, 'w, 'a, 'v, 'e, 'v Tbl.t) engine

  val start : state -> 'v -> ('v, 'e) run
  (** A fresh run: the initial state admitted with its visited value. *)

  val expand_one :
    ('w, 'a, 'v, 'e) engine ->
    'e acc ->
    admit:(state -> 'v -> bool) ->
    state ->
    'v ->
    unit
  (** The per-pop body: show the state to [on_pop], classify it, and
      for a live one fire each action, handing every successor to
      [admit] — [false] stops firing the remaining siblings (the budget
      stopped the run).  The parallel engine's workers call it with a
      sharded admission. *)

  val classify : ('w, 'a, 'v, 'e) engine -> 'e acc -> state -> bool
  (** Show the state to [on_pop] and record it if terminal; [true] when
      it is live.  Alone, it is the drain step. *)

  val run :
    ?probe:Probe.t -> budget:Budget.t -> ('w, 'a, 'v, 'e) engine -> ('v, 'e) run -> unit
  (** Loop until the queue empties or a budget stops the run ([stop]
      records why; never raises on exhaustion), drain, and journal
      [<name>.done]. *)
end

module Make (X : STATE) : S with type state = X.t and module Tbl = X.Tbl =
struct
  type state = X.t

  module Tbl = X.Tbl

  type nonrec 'e acc = (state, 'e) acc
  type nonrec ('v, 'e) run = (state, 'v, 'e, 'v Tbl.t) run
  type nonrec ('w, 'a, 'v, 'e) engine =
    (state, 'w, 'a, 'v, 'e, 'v Tbl.t) engine

  let start s0 v0 =
    let visited = Tbl.create 1024 in
    let queue = Queue.create () in
    Tbl.replace visited (X.key s0) v0;
    Queue.add (s0, v0) queue;
    { visited; queue; acc = new_acc (); max_frontier = 0; pops = 0; stop = None }

  (* Terminal states are recorded; a live one yields its shape's
     payload. *)
  let live eng acc s =
    let shape = eng.shape s in
    eng.on_pop s shape;
    match shape with
    | Error ->
        acc.errors <- s :: acc.errors;
        None
    | Final ->
        acc.finals <- s :: acc.finals;
        None
    | Deadlock ->
        acc.deadlocks <- s :: acc.deadlocks;
        None
    | Live w -> Some w

  let classify eng acc s = Option.is_some (live eng acc s)

  let expand_one eng acc ~admit s v =
    match live eng acc s with
    | None -> ()
    | Some w ->
        (* [admit] returning false breaks out of the expansion: once the
           budget stops the run the remaining successors must not fire,
           or transitions and event logs inflate past the stop *)
        let rec fire_each = function
          | [] -> ()
          | a :: rest ->
              acc.transitions <- acc.transitions + 1;
              eng.on_fire ();
              let s', e = eng.fire s a in
              if eng.keep_log then acc.log <- e :: acc.log;
              if admit s' (eng.reached_with a) then fire_each rest
        in
        fire_each (eng.expand s v w)

  (* Sequential admission: the visited-table probe, the engine's
     revisit rule, and the configuration guard. *)
  let admit ~budget eng st s' v' =
    count eng.counters (fun m -> m.m_transitions);
    let k = X.key s' in
    (match Tbl.find_opt st.visited k with
    | Some recorded -> (
        match eng.revisit ~recorded v' with
        | None -> count eng.counters (fun m -> m.m_digest_hits)
        | Some v ->
            Tbl.replace st.visited k v;
            Queue.add (s', v) st.queue)
    | None -> (
        match Budget.config_guard budget ~configs:(Tbl.length st.visited) with
        | Some r -> st.stop <- Some r
        | None ->
            count eng.counters (fun m -> m.m_admitted);
            Tbl.replace st.visited k v';
            Queue.add (s', v') st.queue));
    st.stop = None

  let run ?probe ~budget eng st =
    let admit = admit ~budget eng st in
    while st.stop = None && not (Queue.is_empty st.queue) do
      let configs = Tbl.length st.visited in
      match Budget.check budget ~configs ~transitions:st.acc.transitions with
      | Some r -> st.stop <- Some r
      | None ->
          eng.on_boundary st;
          Fault.hit eng.site;
          st.pops <- st.pops + 1;
          let frontier = Queue.length st.queue in
          if Journal.enabled () && st.pops mod journal_every = 0 then
            Journal.emit ~level:Journal.Debug (eng.name ^ ".progress")
              [
                ("pops", Journal.Int st.pops);
                ("configurations", Journal.Int configs);
                ("frontier", Journal.Int frontier);
                ("transitions", Journal.Int st.acc.transitions);
              ];
          (match probe with
          | None -> ()
          | Some p ->
              Probe.tick p ~configurations:configs ~frontier
                ~transitions:st.acc.transitions);
          (match eng.counters with
          | None -> ()
          | Some m ->
              Metrics.incr m.m_expansions;
              if Metrics.enabled () then begin
                Metrics.set m.g_frontier frontier;
                Metrics.set m.g_visited configs
              end);
          st.max_frontier <- max st.max_frontier frontier;
          let s, v = Queue.pop st.queue in
          expand_one eng st.acc ~admit s v
    done;
    (* Budget truncation: without the drain a Truncated report would
       count the unpopped frontier as visited but none of it as
       terminal.  The boundary hook sees the state first: the drain is
       not part of a resumable run. *)
    if st.stop <> None then begin
      eng.on_boundary st;
      Queue.iter (fun (s, _) -> ignore (classify eng st.acc s : bool)) st.queue
    end;
    if Journal.enabled () then
      Journal.emit (eng.name ^ ".done")
        [
          ("configurations", Journal.Int (Tbl.length st.visited));
          ("transitions", Journal.Int st.acc.transitions);
          ("complete", Journal.Bool (st.stop = None));
        ]
end
