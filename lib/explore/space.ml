(* The state-space generation engine (paper section 2).

   Breadth-first generation of the configuration graph under a pluggable
   *expansion strategy*: the full strategy fires every enabled process at
   every configuration; the stubborn strategy (Stubborn) fires only a
   persistent subset.  The engine accumulates:

     - counts (configurations, transitions, frontier width),
     - terminal configurations: final (all processes done), deadlocks,
       error configurations,
     - the merged instrumentation log (accesses + allocations), which is
       the input of the section-5 analyses.  *)

open Cobegin_semantics

type stats = {
  configurations : int;
  transitions : int;
  max_frontier : int;
  finals : int;
  deadlocks : int;
  errors : int;
}

type result = {
  stats : stats;
  status : Budget.status;
  final_configs : Config.t list;
  deadlock_configs : Config.t list;
  error_configs : Config.t list;
  log : Step.events;
}

(* Visited sets are keyed by the hash-consed digest (Config.digest):
   interned component ids with a precomputed full-width hash, so probes
   cost a few int comparisons instead of deep structural equality on
   the canonical representation.  The [_digest] variants let engines
   compute the digest once per configuration and thread it through a
   mem/add or find/add pair. *)
module ConfigTbl = struct
  type 'a t = 'a Config.Digest_tbl.t

  let create n : 'a t = Config.Digest_tbl.create n
  let mem tbl c = Config.Digest_tbl.mem tbl (Config.digest c)
  let add tbl c v = Config.Digest_tbl.replace tbl (Config.digest c) v
  let length = Config.Digest_tbl.length
  let find_opt tbl c = Config.Digest_tbl.find_opt tbl (Config.digest c)
  let mem_digest = Config.Digest_tbl.mem
  let add_digest tbl d v = Config.Digest_tbl.replace tbl d v
  let find_digest = Config.Digest_tbl.find_opt
end

(* The exploration kernel over configurations, keyed by digest. *)
module Kernel = Worklist.Make (struct
  type t = Config.t

  module Tbl = Config.Digest_tbl

  let key = Config.digest
end)

(* Telemetry handles: the space.* family, shared with Checkpoint. *)
let counters = Worklist.counters "space"

let shape ctx c : Step.action list Worklist.shape =
  if Config.is_error c then Error
  else if Config.all_terminated c then Final
  else
    match Step.enabled_actions ctx c with
    | [] -> Deadlock
    | actions -> Live actions

(* [expand c enabled] picks the actions to fire from the enabled ones
   [shape] computed: one evaluation of them per pop. *)
let engine ctx ~expand :
    (Step.action list, Step.action, unit, Step.events) Kernel.engine =
  {
    site = "space.pop";
    name = "space";
    counters = Some counters;
    shape = shape ctx;
    expand = (fun c () enabled -> expand c enabled);
    fire = Step.fire_action ctx;
    reached_with = (fun _ -> ());
    revisit = (fun ~recorded:() () -> None);
    keep_log = true;
    on_pop = (fun _ _ -> ());
    on_fire = ignore;
    on_boundary = ignore;
  }

let result_of (st : (_, Step.events) Kernel.run) =
  let acc = st.acc in
  let log = List.rev acc.log in
  {
    status = Budget.status_of st.stop;
    stats =
      {
        configurations = Config.Digest_tbl.length st.visited;
        transitions = acc.transitions;
        max_frontier = st.max_frontier;
        finals = List.length acc.finals;
        deadlocks = List.length acc.deadlocks;
        errors = List.length acc.errors;
      };
    final_configs = acc.finals;
    deadlock_configs = acc.deadlocks;
    error_configs = acc.errors;
    log =
      {
        Step.accesses = List.concat_map (fun e -> e.Step.accesses) log;
        Step.allocs = List.concat_map (fun e -> e.Step.allocs) log;
      };
  }

let run ?(max_configs = 1_000_000) ?budget ?probe ctx eng v0 =
  let budget =
    match budget with Some b -> b | None -> Budget.create ~max_configs ()
  in
  let st = Kernel.start (Step.init ctx) v0 in
  Kernel.run ?probe ~budget eng st;
  result_of st

(* [expand c] returns the actions to fire at [c]; it must return a
   subset of the enabled actions, and must be non-empty whenever some
   action is enabled.  Exhausting the budget stops the generation
   cleanly: everything visited so far is returned, tagged truncated. *)
let explore ?max_configs ?budget ?probe ctx ~expand : result =
  run ?max_configs ?budget ?probe ctx
    (engine ctx ~expand:(fun c _ -> expand c))
    ()

(* Ordinary (full interleaving) generation. *)
let full ?max_configs ?budget ?probe ctx =
  run ?max_configs ?budget ?probe ctx
    (engine ctx ~expand:(fun _ enabled -> enabled))
    ()

(* Canonical set of final stores, for strategy comparisons.  Keyed on
   the hash-consed store id — an int compare per element instead of
   polymorphic [compare] over whole store representations, and immune
   to any structural-compare/physical-sharing subtleties: id equality
   is exactly structural equality of the canonical repr (Store.id).  The
   repr payload is kept for the caller; ids only order and dedup. *)
let final_store_reprs (r : result) =
  List.map (fun c -> (Store.id c.Config.store, c.Config.store)) r.final_configs
  |> List.sort_uniq (fun (i, _) (j, _) -> Int.compare i j)
  |> List.map (fun (_, s) -> Store.repr s)

let pp_stats ppf s =
  Format.fprintf ppf
    "configurations=%d transitions=%d max_frontier=%d finals=%d \
     deadlocks=%d errors=%d"
    s.configurations s.transitions s.max_frontier s.finals s.deadlocks
    s.errors
