(* The exploration kernel: every engine runs the same worklist loop, so
   the behaviours the separate loops had drifted apart on now agree —
   checkpointed runs are as observable as plain ones, every engine's
   budget counts fired transitions, and the pipeline's race scan rides
   on the main exploration instead of running a second one. *)

open Helpers
open Cobegin_core
open Cobegin_explore
module Step = Cobegin_semantics.Step
module Race = Cobegin_analysis.Race
module Metrics = Cobegin_obs.Metrics
module Journal = Cobegin_obs.Journal

let phil3_src = Option.get (Cobegin_models.Corpus.find "phil3")

(* The space.* counters and the space.done event of one run of [f]. *)
let space_telemetry f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Journal.start ~capacity:4096 ~clock:(fun () -> 0.0) ();
  Fun.protect
    ~finally:(fun () ->
      Journal.stop ();
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      ignore (f () : Space.result);
      let counters =
        List.filter
          (fun (name, _) -> String.starts_with ~prefix:"space." name)
          (Metrics.snapshot ()).Metrics.s_counters
      in
      let done_events =
        List.filter_map
          (fun (e : Journal.event) ->
            if e.e_name = "space.done" then Some e.e_fields else None)
          (Journal.ring_events ())
      in
      (List.sort compare counters, done_events))

let with_chaos spec f =
  (match Fault.parse spec with
  | Ok plan -> Fault.install plan
  | Error e -> Alcotest.failf "bad test chaos spec %S: %s" spec e);
  Fun.protect ~finally:Fault.clear f

let suite =
  [
    case "a checkpointed run reports Space.full's counters and space.done"
      (fun () ->
        let plain_counters, plain_done =
          space_telemetry (fun () -> Space.full (ctx_of phil3_src))
        in
        let path = Filename.temp_file "cobegin-kernel" ".ckpt" in
        let ckpt_counters, ckpt_done =
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              space_telemetry (fun () ->
                  Checkpoint.full
                    ~cadence:{ Checkpoint.every_configs = 64; every_s = None }
                    ~path (ctx_of phil3_src)))
        in
        List.iter
          (fun name ->
            check_bool (name ^ " counted") true
              (List.assoc_opt name plain_counters <> None))
          [ "space.expansions"; "space.transitions"; "space.digest_hits" ];
        check_bool "same space.* counters" true (plain_counters = ckpt_counters);
        check_int "one space.done each" 1 (List.length ckpt_done);
        check_bool "same space.done fields" true (plain_done = ckpt_done));
    case "Race.find's transition budget counts fired transitions, not pops"
      (fun () ->
        let full = Space.full (ctx_of phil3_src) in
        let pops = full.Space.stats.Space.configurations in
        check_bool "more transitions than pops" true
          (full.Space.stats.Space.transitions > pops + 1);
        (* every configuration is popped once: a pop-counting budget of
           pops + 1 would let the scan complete *)
        let budget = Budget.create ~max_transitions:(pops + 1) () in
        let r = Race.find ~budget (ctx_of phil3_src) in
        check_bool "truncated by the transition budget" true
          (r.Race.status = Budget.Truncated (Budget.Transitions (pops + 1))));
    case "the pipeline's race scan observes the one full exploration"
      (fun () ->
        List.iter
          (fun (name, src) ->
            let prog = parse src in
            List.iter
              (fun model ->
                let expected =
                  (Race.find (Step.make_ctx ~model prog)).Race.races
                in
                List.iter
                  (fun jobs ->
                    let label =
                      Printf.sprintf "%s/%s/jobs %d" name
                        (Step.model_name model) jobs
                    in
                    let options =
                      {
                        Pipeline.default_options with
                        memory_model = model;
                        find_races = true;
                        jobs;
                      }
                    in
                    (* a scan of its own would pop, crash on the first
                       pop and show up in the hit counts *)
                    let r, hits =
                      with_chaos "crash@races.pop:1" (fun () ->
                          let r = Pipeline.analyze ~options prog in
                          (r, Fault.hits ()))
                    in
                    check_bool (label ^ ": no races.pop hit") true
                      (List.assoc_opt "races.pop" hits = None);
                    check_bool (label ^ ": no recovery") true
                      (r.Pipeline.recovery = []);
                    check_bool (label ^ ": complete") true
                      (r.Pipeline.status = Budget.Complete);
                    check_bool (label ^ ": Race.find's races") true
                      (match r.Pipeline.races with
                      | Some races -> Race.RaceSet.equal races expected
                      | None -> false))
                  [ 1; 4 ])
              [ Step.Sc; Step.Tso; Step.Pso ])
          Cobegin_models.Corpus.all);
    case "a stubborn pipeline still runs the race scan's own pass" (fun () ->
        let prog = parse phil3_src in
        let options =
          {
            Pipeline.default_options with
            engine = Pipeline.Concrete_stubborn;
            find_races = true;
          }
        in
        let hits =
          with_chaos "delay@races.pop:1000000=1ms" (fun () ->
              ignore (Pipeline.analyze ~options prog : Pipeline.report);
              Fault.hits ())
        in
        check_bool "races.pop hit" true
          (List.assoc_opt "races.pop" hits <> None));
  ]
