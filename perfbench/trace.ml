(* Outside-in per-layer tracing: every layer is timed at the call into
   its public functions, from this benchmark's own code.  Nothing inside
   the library is instrumented.

   [traced_pipeline] re-runs [Pipeline.analyze] stage by stage and
   rebuilds the same report, so its JSON bytes can be compared with the
   untraced run's; [shadow] re-runs [Space.full]'s expansion order with
   each semantic step timed, and its counts must equal [Space.full]'s. *)

open Cobegin_core
module Step = Cobegin_semantics.Step
module Config = Cobegin_semantics.Config
module Space = Cobegin_explore.Space
module Stubborn = Cobegin_explore.Stubborn
module Sleep = Cobegin_explore.Sleep
module Mayaccess = Cobegin_explore.Mayaccess
module Event = Cobegin_analysis.Event
module Race = Cobegin_analysis.Race

(* --- accumulators: total ns and call count per timed call site --- *)

type acc = { mutable ns : int; mutable calls : int }

let accs : (string, acc) Hashtbl.t = Hashtbl.create 64
let counts : (string, int) Hashtbl.t = Hashtbl.create 64

(* Time spent in verification calls made while a traced op is on the
   clock; subtracted from the op's traced time. *)
let excluded_ns = ref 0

(* Zero everything except the sites named in [keep]. *)
let reset ?(keep = []) () =
  let drop tbl =
    Hashtbl.filter_map_inplace (fun k v -> if List.mem k keep then Some v else None) tbl
  in
  drop accs;
  drop counts;
  excluded_ns := 0

let record name ns =
  match Hashtbl.find_opt accs name with
  | Some a ->
      a.ns <- a.ns + ns;
      a.calls <- a.calls + 1
  | None -> Hashtbl.replace accs name { ns; calls = 1 }

let time name f =
  let t0 = Bstat.now_ns () in
  let r = f () in
  record name (Bstat.now_ns () - t0);
  r

let count name n =
  Hashtbl.replace counts name
    (n + Option.value ~default:0 (Hashtbl.find_opt counts name))

let count_of name = Option.value ~default:0 (Hashtbl.find_opt counts name)

(* Mean ns per call; 0 when the site never ran. *)
let mean_ns name =
  match Hashtbl.find_opt accs name with
  | Some a when a.calls > 0 -> float_of_int a.ns /. float_of_int a.calls
  | _ -> 0.

let total_ns name =
  match Hashtbl.find_opt accs name with Some a -> a.ns | None -> 0

let calls name =
  match Hashtbl.find_opt accs name with Some a -> a.calls | None -> 0

let excluded f =
  let r, ns = Bstat.timed f in
  excluded_ns := !excluded_ns + ns;
  r

(* Trace-fidelity failures (shadow counts, rebuilt report bytes). *)
let mismatches : string list ref = ref []
let mismatch m = mismatches := m :: !mismatches

(* --- the shadow of Space.full --- *)

(* Space.explore's loop with [expand = Step.enabled_actions], the same
   budget protocol and expansion order; each call into the semantics
   and the visited set is timed where it is made. *)
let shadow ~budget ctx =
  let t_start = Bstat.now_ns () in
  let visited = Space.ConfigTbl.create 1024 in
  let queue = Queue.create () in
  let finals = ref 0 and deadlocks = ref 0 and errors = ref 0 in
  let transitions = ref 0 and max_frontier = ref 0 and dups = ref 0 in
  let accesses = ref [] and allocs = ref [] in
  let stop = ref None in
  let probe f = time "explore.probe" f in
  let c0 = Step.init ctx in
  let d0 = time "semantics.digest" (fun () -> Config.digest c0) in
  probe (fun () -> Space.ConfigTbl.add_digest visited d0 ());
  Queue.add c0 queue;
  while !stop = None && not (Queue.is_empty queue) do
    match
      Budget.check budget
        ~configs:(Space.ConfigTbl.length visited)
        ~transitions:!transitions
    with
    | Some r -> stop := Some r
    | None -> (
        max_frontier := max !max_frontier (Queue.length queue);
        let c = Queue.pop queue in
        if Config.is_error c then incr errors
        else if Config.all_terminated c then incr finals
        else
          match
            time "semantics.enabled_actions" (fun () ->
                Step.enabled_actions ctx c)
          with
          | [] -> incr deadlocks
          | actions ->
              let rec fire_each = function
                | [] -> ()
                | a :: rest ->
                    incr transitions;
                    let c', evs =
                      time "semantics.fire_action" (fun () ->
                          Step.fire_action ctx c a)
                    in
                    accesses := evs.Step.accesses :: !accesses;
                    allocs := evs.Step.allocs :: !allocs;
                    let d' =
                      time "semantics.digest" (fun () -> Config.digest c')
                    in
                    let seen =
                      probe (fun () ->
                          Space.ConfigTbl.mem_digest visited d'
                          ||
                          match
                            Budget.config_guard budget
                              ~configs:(Space.ConfigTbl.length visited)
                          with
                          | Some r ->
                              stop := Some r;
                              true
                          | None ->
                              Space.ConfigTbl.add_digest visited d' ();
                              false)
                    in
                    if seen then incr dups else Queue.add c' queue;
                    if !stop = None then fire_each rest
              in
              fire_each actions)
  done;
  if !stop <> None then mismatch "shadow: budget stopped the run";
  let configs = Space.ConfigTbl.length visited in
  record "explore.shadow" (Bstat.now_ns () - t_start);
  count "explore.shadow_configs" configs;
  count "explore.shadow_transitions" !transitions;
  count "explore.dups" !dups;
  ( {
      Report.configurations = configs;
      transitions = !transitions;
      max_frontier = !max_frontier;
      finals = !finals;
      deadlocks = !deadlocks;
      errors = !errors;
    },
    {
      Step.accesses = List.concat (List.rev !accesses);
      allocs = List.concat (List.rev !allocs);
    },
    Budget.status_of !stop )

(* Space.full on the same context, timed whole: the shadow's counts must
   equal it exactly, and the wall-time difference is the shadow gap. *)
let shadow_checked ~label ~budget ctx =
  let ((stats : Report.exploration_stats), _, _) as r = shadow ~budget ctx in
  excluded (fun () ->
      let full = time "explore.space_full" (fun () -> Space.full ctx) in
      let s = full.Space.stats in
      if
        (s.configurations, s.transitions, s.finals, s.deadlocks, s.errors)
        <> ( stats.configurations,
             stats.transitions,
             stats.finals,
             stats.deadlocks,
             stats.errors )
      then
        mismatch
          (Printf.sprintf "%s: shadow %d/%d configs/transitions, Space.full %d/%d"
             label stats.configurations stats.transitions s.configurations
             s.transitions));
  r

(* Stubborn exploration with the persistent-set choice timed through
   [Space.explore ~expand]. *)
let stubborn ?budget ctx =
  let mctx = Mayaccess.make_ctx ctx.Step.prog in
  let expand c =
    let chosen =
      time "explore.stubborn.choose" (fun () ->
          Stubborn.choose_expansion mctx ctx c)
    in
    excluded (fun () ->
        count "explore.stubborn.expansions" 1;
        if List.length chosen < List.length (Step.enabled_actions ctx c) then
          count "explore.stubborn.reduced" 1);
    chosen
  in
  let r = Space.explore ?budget ctx ~expand in
  count "explore.configs" r.Space.stats.configurations;
  count "explore.transitions" r.Space.stats.transitions;
  r

let sleep ctx =
  let stats = Sleep.new_stats () in
  let r = time "explore.sleep" (fun () -> Sleep.explore ~stats ctx) in
  count "explore.sleep.pruned" stats.Sleep.pruned_by_sleep;
  count "explore.sleep.explored" stats.Sleep.explored_transitions;
  count "explore.configs" r.Space.stats.configurations;
  count "explore.transitions" r.Space.stats.transitions;
  r

(* --- the pipeline, stage by stage --- *)

let time_check prog = time "lang.check" (fun () -> Cobegin_lang.Check.check_exn prog)

let load_source src =
  let prog =
    time "lang.parse" (fun () -> Cobegin_lang.Parser.parse_string src)
  in
  time_check prog;
  prog

(* [Pipeline.analyze] for an undisturbed run (no faults, journal or
   spans), one timed call per stage.  Returns the rebuilt report. *)
let traced_pipeline ~label (o : Pipeline.options) prog : Report.report =
  time_check prog;
  let prog =
    if o.inline then time "trans.inline" (fun () -> Cobegin_trans.Inline.program prog)
    else prog
  in
  let prog =
    if o.coarsen then
      time "trans.coarsen" (fun () -> Cobegin_trans.Coarsen.program prog)
    else prog
  in
  let budget = Pipeline.budget_of_options o in
  let static =
    if o.lint then
      Some (time "static.lint" (fun () -> Cobegin_static.Lint.run prog))
    else None
  in
  let interference =
    if o.interfere then
      let domain =
        match o.engine with
        | Pipeline.Abstract (d, _) -> d
        | Concrete_full | Concrete_stubborn -> Cobegin_absint.Analyzer.Intervals
      in
      Some
        (time "absint.interfere" (fun () ->
             Cobegin_absint.Interfere.run ~domain ~budget prog))
    else None
  in
  let stats, log, status =
    match o.engine with
    | Concrete_full ->
        let ctx = Step.make_ctx ~model:o.memory_model prog in
        let stats, events, status = shadow_checked ~label ~budget ctx in
        count "explore.configs" stats.configurations;
        count "explore.transitions" stats.transitions;
        (stats, Event.of_concrete events, status)
    | Concrete_stubborn ->
        let r = stubborn ~budget (Step.make_ctx ~model:o.memory_model prog) in
        let s = r.Space.stats in
        ( {
            Report.configurations = s.configurations;
            transitions = s.transitions;
            max_frontier = s.max_frontier;
            finals = s.finals;
            deadlocks = s.deadlocks;
            errors = s.errors;
          },
          Event.of_concrete r.Space.log,
          r.Space.status )
    | Abstract (domain, folding) ->
        let a =
          time "absint.abstract" (fun () ->
              Cobegin_absint.Analyzer.analyze ~domain ~folding ~budget prog)
        in
        ( {
            Report.configurations = a.abstract_configs;
            transitions = 0;
            max_frontier = a.max_frontier;
            finals = a.finals;
            deadlocks = 0;
            errors = a.errors;
          },
          Event.of_abstract a.log,
          a.status )
  in
  let side_effects, deps, lifetimes =
    time "analysis.log" (fun () ->
        let se = Cobegin_analysis.Side_effect.of_program log prog in
        let deps = Cobegin_analysis.Depend.of_log log in
        (se, deps, Cobegin_analysis.Lifetime.of_log log))
  in
  let placements, gc_plan =
    time "apps.placement_ctgc" (fun () ->
        ( Cobegin_apps.Placement.decide lifetimes,
          Cobegin_apps.Ctgc.deallocation_plan lifetimes ))
  in
  let races, status =
    match o.engine with
    | (Concrete_full | Concrete_stubborn) when o.find_races ->
        let r =
          time "analysis.race_find" (fun () ->
              Race.find ~budget (Step.make_ctx ~model:o.memory_model prog))
        in
        (Some r.Race.races, Budget.combine status r.Race.status)
    | _ -> (None, status)
  in
  let critical =
    time "trans.critical" (fun () -> Cobegin_trans.Critical.of_program prog)
  in
  {
    Report.program = prog;
    engine_used = o.engine;
    memory_model = o.memory_model;
    stats;
    status;
    budget =
      Budget.snapshot budget ~configs:stats.configurations
        ~transitions:stats.transitions;
    stage_failures = [];
    recovery = [];
    degraded = false;
    log;
    side_effects;
    deps;
    lifetimes;
    placements;
    gc_plan;
    races;
    critical;
    static;
    interference;
    telemetry = [];
  }

(* [traced_pipeline] with its own time, net of verification, recorded as
   the denominator of the race share. *)
let pipeline ~label o prog =
  let ex0 = !excluded_ns in
  let r, ns = Bstat.timed (fun () -> traced_pipeline ~label o prog) in
  record "traced.pipeline" (ns - (!excluded_ns - ex0));
  r
