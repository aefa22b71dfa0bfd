(* The repository benchmark: one workload per run, every verdict checked
   against the oracle, end-to-end metrics (--trace 0) or per-layer
   metrics (--trace 1) printed as the last stdout line.  See README.md
   for the workloads, the metrics and which layer moves which number. *)

open Cobegin_core
module Metrics = Cobegin_obs.Metrics
module Intern = Cobegin_semantics.Intern
module Step = Cobegin_semantics.Step
module Space = Cobegin_explore.Space
module Stubborn = Cobegin_explore.Stubborn
module Sleep = Cobegin_explore.Sleep
module Serve = Cobegin_serve.Serve
module Cache = Cobegin_serve.Cache
module Sjson = Cobegin_serve.Sjson

(* --- failure accounting (shared by the serve client domains) --- *)

let lock = Mutex.create ()
let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

let op_done = function
  | None -> Mutex.protect lock (fun () -> incr attempted)
  | Some msg ->
      Mutex.protect lock (fun () ->
          incr attempted;
          incr failed;
          if List.length !failures < 20 then failures := msg :: !failures)

let guard f = try f () with e -> Some (Printexc.to_string e)
let secs = Bstat.secs_of_ns
let ms_of_ns ns = float_of_int ns /. 1e6
let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

let intern_entries () =
  let g = Intern.global () in
  Intern.distinct_procs g + Intern.distinct_stores g

(* Several set-ups per run, each from the seed alone; the run keeps the
   last and reports the median time. *)
let repeat_setup ?(discard = ignore) n f =
  let rec go i times =
    let v, ns = Bstat.timed f in
    let times = secs ns :: times in
    if i = n then (v, Bstat.median times)
    else begin
      discard v;
      go (i + 1) times
    end
  in
  go 1 []

(* Whole passes over [ops] until [seconds] have gone by (at least one
   pass).  [run op] returns the op's timed ns; the result holds each
   pass's latencies. *)
let run_passes ?(between = ignore) ~seconds ops run =
  let deadline = Bstat.now_ns () + int_of_float (seconds *. 1e9) in
  let passes = ref [] in
  while !passes = [] || Bstat.now_ns () < deadline do
    passes := List.map run ops :: !passes;
    between ()
  done;
  List.rev !passes

let sum = List.fold_left ( + ) 0

(* Traced ÷ untraced time of a pass, each the median over its passes. *)
let overhead ~traced ~untraced =
  let med ps = Bstat.median (List.map (fun p -> float_of_int (sum p)) ps) in
  ratio (med traced) (med untraced)

(* A closed loop in one thread.  Each op's latency is its fast decile
   over the passes (the 10th percentile of its samples), and one pass
   made of those latencies is the single window: its rate is ops per
   second of busy time (the oracle's checks run outside it), its
   percentiles are over the ops.  Each op's samples are spread over the
   whole run, so each op finds the host's fast moments on its own. *)
let pass_windows passes =
  let per_op = Array.of_list (List.map Array.of_list passes) in
  let fast =
    List.init (Array.length per_op.(0)) (fun i ->
        int_of_float
          (Bstat.percentile
             (Array.to_list (Array.map (fun p -> float_of_int p.(i)) per_op))
             10.))
  in
  Printf.eprintf "passes: %d (each op's latency: 10th percentile of its samples)\n"
    (Array.length per_op);
  [ (secs (sum fast), fast) ]

(* End-to-end metrics from measurement windows (seconds, latencies in
   ns), at the reference speed.  Each metric is the median across the
   run's windows: the window rates and each window latency
   percentile. *)
let e2e ~setup_s ~windows ~rss_mb =
  let across f = Bstat.median (List.map f windows) in
  let per_s (w, lat) = float_of_int (List.length lat) /. w in
  let pct p (_, lat) = Bstat.percentile (List.map ms_of_ns lat) p in
  let n = Bstat.median (List.map (fun (_, l) -> float_of_int (List.length l)) windows) in
  let beyond p = Bstat.beyond (int_of_float n) p in
  Printf.eprintf
    "samples: %d windows, median %.0f ops each (p90 rests on %d, p99 on %d beyond it)\n"
    (List.length windows) n (beyond 90.) (beyond 99.);
  Printf.eprintf "windows (ops/s,p50,p90,p99 ms): %s\n%!"
    (String.concat " "
       (List.map
          (fun w -> Printf.sprintf "%.6g,%.6g,%.6g,%.6g" (per_s w) (pct 50. w) (pct 90. w) (pct 99. w))
          windows));
  let rate = across per_s in
  [
    ("setup_s", "s", setup_s);
    ("verdicts_per_s", "1/s", rate);
    ("requests_per_s", "1/s", rate);
    ("latency_p50_ms", "ms", across (pct 50.));
    ("latency_p90_ms", "ms", across (pct 90.));
    ("latency_p99_ms", "ms", across (pct 99.));
    ("peak_rss_mb", "MiB", rss_mb);
  ]

(* --- per-layer metrics, from Trace's accumulators --- *)

(* Values the workload measured itself (serve daemon counters, ratios of
   whole phases); absent means the layer is not on the workload's path. *)
let extra : (string, float) Hashtbl.t = Hashtbl.create 16
let set_extra k v = Hashtbl.replace extra k v
let get_extra k = Option.value ~default:0. (Hashtbl.find_opt extra k)

let counter name =
  Option.value ~default:0
    (List.assoc_opt name (Metrics.snapshot ()).Metrics.s_counters)

let layer_metrics ~passes =
  let us n = Trace.mean_ns n /. 1e3 and ms n = Trace.mean_ns n /. 1e6 in
  let per_pass n = fratio (Trace.count_of n) passes in
  let hits = counter "intern.memo_hits" and misses = counter "intern.memo_misses" in
  let pruned = Trace.count_of "explore.sleep.pruned" in
  [
    ("lang.parse_us", "us", us "lang.parse");
    ("lang.check_us", "us", us "lang.check");
    ("trans.coarsen_us", "us", us "trans.coarsen");
    ("static.lint_us", "us", us "static.lint");
    ("absint.interfere_us", "us", us "absint.interfere");
    ("absint.abstract_ms", "ms", ms "absint.abstract");
    ("semantics.enabled_actions_ns", "ns", Trace.mean_ns "semantics.enabled_actions");
    ("semantics.fire_action_ns", "ns", Trace.mean_ns "semantics.fire_action");
    ("semantics.digest_ns", "ns", Trace.mean_ns "semantics.digest");
    ("semantics.intern_memo_hit_ratio", "ratio", fratio hits (hits + misses));
    ("semantics.intern_pool_entries", "count", get_extra "semantics.intern_pool_entries");
    ("semantics.intern_pool_growth", "count", get_extra "semantics.intern_pool_growth");
    ("explore.probe_ns", "ns", Trace.mean_ns "explore.probe");
    ( "explore.ns_per_config", "ns",
      fratio (Trace.total_ns "explore.shadow") (Trace.count_of "explore.shadow_configs") );
    ("explore.configs", "count", per_pass "explore.configs");
    ("explore.transitions", "count", per_pass "explore.transitions");
    ( "explore.dup_ratio", "ratio",
      fratio (Trace.count_of "explore.dups") (Trace.count_of "explore.shadow_transitions") );
    ("explore.stubborn.choose_ns", "ns", Trace.mean_ns "explore.stubborn.choose");
    ( "explore.stubborn.chosen_ratio", "ratio",
      fratio (Trace.count_of "explore.stubborn.reduced")
        (Trace.count_of "explore.stubborn.expansions") );
    ( "explore.sleep.pruned_ratio", "ratio",
      fratio pruned (pruned + Trace.count_of "explore.sleep.explored") );
    ( "explore.shadow_gap", "ratio",
      let full = Trace.total_ns "explore.space_full" in
      fratio (Trace.total_ns "explore.shadow" - full) full );
    ("analysis.race_find_ms", "ms", ms "analysis.race_find");
    ( "analysis.race_share", "ratio",
      fratio (Trace.total_ns "analysis.race_find") (Trace.total_ns "traced.pipeline") );
    ("analysis.race_pairs_scanned", "count", fratio (counter "race.pairs_scanned") passes);
    ("analysis.log_us", "us", us "analysis.log");
    ("apps.placement_ctgc_us", "us", us "apps.placement_ctgc");
    ("core.pipeline_ms", "ms", ms "core.pipeline");
    ("core.report_json_us", "us", us "core.report_json");
    ( "core.report_bytes", "bytes",
      fratio (Trace.count_of "core.report_bytes") (Trace.calls "core.report_json") );
    ("core.run_key_us", "us", us "core.run_key");
    ("serve.handle_hit_us", "us", us "serve.handle_hit");
    ("serve.handle_miss_ms", "ms", ms "serve.handle_miss");
    ("serve.sjson_parse_us", "us", us "serve.sjson_parse");
    ("serve.cache_find_us", "us", us "serve.cache_find");
    ("serve.cache_store_us", "us", us "serve.cache_store");
    ("serve.hit_ratio", "ratio", get_extra "serve.hit_ratio");
    ("serve.evictions", "count", get_extra "serve.evictions");
    ("serve.ping_rtt_us", "us", get_extra "serve.ping_rtt_us");
    ("serve.wait_ms", "ms", get_extra "serve.wait_ms");
    ("serve.wait_hit_ms", "ms", get_extra "serve.wait_hit_ms");
    ("serve.wait_miss_ms", "ms", get_extra "serve.wait_miss_ms");
    ("serve.coarsen_rekeyed", "count", get_extra "serve.coarsen_rekeyed");
    ("obs.trace_overhead", "ratio", get_extra "obs.trace_overhead");
    ("obs.journal_bytes", "bytes", get_extra "obs.journal_bytes");
  ]

(* The end-to-end metrics of an in-process workload.  The host's speed
   is calibrated between passes, and every timing, set-up included, is
   read at the reference speed (see [Bstat.speed_scale]); the raw
   figures go to stderr. *)
let in_process_e2e ~setup_s ~seconds ops run =
  let calib = ref [] in
  let passes =
    run_passes ~between:(fun () -> calib := Bstat.calibrate () :: !calib) ~seconds ops run
  in
  let k = Bstat.speed_scale !calib in
  set_extra "host.speed_scale" k;
  let windows = pass_windows passes in
  Printf.eprintf
    "speed scale: %.6g (calibration fast decile %.6g ms over %d samples); \
     unscaled: setup %.6g s, pass %.6g s\n"
    k (Bstat.calibration_reference_ns /. k /. 1e6) (List.length !calib) setup_s
    (fst (List.hd windows));
  let scaled ns = int_of_float (Float.round (float_of_int ns *. k)) in
  e2e ~setup_s:(setup_s *. k)
    ~windows:(List.map (fun (w, lat) -> (w *. k, List.map scaled lat)) windows)
    ~rss_mb:(Bstat.peak_rss_mb 0)

(* Starts the traced phase: per-layer accumulators (but for [keep]) and
   the library's counters from zero. *)
let begin_traced ?keep () =
  Trace.reset ?keep ();
  Metrics.reset ();
  Metrics.set_enabled true

(* --- analyze-corpus --- *)

let analyze_corpus ~oracle ~seed ~seconds ~trace =
  let pool0 = intern_entries () in
  let options = Inputs.corpus_options in
  (* set-up ends with one pass over the inputs, so the interner's pools
     are filled before the first measured op *)
  let inputs, setup_s =
    repeat_setup 9 (fun () ->
        let inputs = Inputs.analyze_inputs (Random.State.make [| seed |]) in
        List.iter
          (fun (_, src) -> ignore (Report.to_json (Pipeline.analyze_source ~options src)))
          inputs;
        inputs)
  in
  let digests = Hashtbl.create 64 in
  let check name (r : Report.report) json =
    let facts = Oracle.report_facts r in
    let d = Digest.string json in
    Oracle.first_error
      [
        (fun () ->
          if Inputs.is_generated name then Oracle.generated_rule ~program:name facts
          else Oracle.check oracle (Oracle.pipeline_key name "corpus") facts);
        (fun () -> Oracle.e19_rule ~program:name ~model:Step.Sc facts);
        (fun () ->
          match Hashtbl.find_opt digests name with
          | None ->
              Hashtbl.replace digests name d;
              None
          | Some d0 when d0 = d -> None
          | Some _ -> Some (name ^ ": report bytes differ between passes"));
      ]
  in
  let run (name, src) =
    let t0 = Bstat.now_ns () in
    match Pipeline.analyze_source ~options src with
    | exception e ->
        op_done (Some (name ^ ": " ^ Printexc.to_string e));
        Bstat.now_ns () - t0
    | r ->
        let t1 = Bstat.now_ns () in
        let json = Report.to_json r in
        let t2 = Bstat.now_ns () in
        Trace.record "core.pipeline" (t1 - t0);
        Trace.record "core.report_json" (t2 - t1);
        Trace.count "core.report_bytes" (String.length json);
        op_done (guard (fun () -> check name r json));
        t2 - t0
  in
  if not trace then begin
    in_process_e2e ~setup_s ~seconds inputs run
  end
  else begin
    let passes = run_passes ~seconds:(seconds /. 2.) inputs run in
    (* the untraced timings of the pipeline and report stay in force *)
    begin_traced ~keep:[ "core.pipeline"; "core.report_json"; "core.report_bytes" ] ();
    let traced (name, src) =
      let ex0 = !Trace.excluded_ns in
      let json, ns =
        Bstat.timed (fun () ->
            let prog = Trace.load_source src in
            Report.to_json (Trace.pipeline ~label:name options prog))
      in
      if Hashtbl.find_opt digests name <> Some (Digest.string json) then
        Trace.mismatch (name ^ ": traced report differs from Pipeline.analyze");
      let traced_ns = ns - (!Trace.excluded_ns - ex0) in
      (* sleep sets are off the pipeline's path: their pruning is
         measured on the same programs, outside the traced op *)
      let stats = Sleep.new_stats () in
      ignore (Sleep.explore ~stats (Step.make_ctx (Pipeline.load_source src)) : Space.result);
      Trace.count "explore.sleep.pruned" stats.Sleep.pruned_by_sleep;
      Trace.count "explore.sleep.explored" stats.Sleep.explored_transitions;
      traced_ns
    in
    let traced_passes = run_passes ~seconds:(seconds /. 2.) inputs traced in
    let tpasses = List.length traced_passes in
    set_extra "obs.trace_overhead" (overhead ~traced:traced_passes ~untraced:passes);
    set_extra "semantics.intern_pool_entries" (float_of_int (intern_entries ()));
    set_extra "semantics.intern_pool_growth"
      (float_of_int (intern_entries () - pool0));
    layer_metrics ~passes:tpasses
  end

(* --- explore-statespace --- *)

let run_engine (c : Inputs.case) engine =
  let ctx = Step.make_ctx ~model:c.model c.prog in
  match engine with
  | Inputs.Full -> Space.full ctx
  | Stubborn -> Stubborn.explore ctx
  | Sleep -> Sleep.explore ctx

let explore_statespace ~oracle ~seed ~seconds ~trace =
  let pool0 = intern_entries () in
  let ops, setup_s =
    repeat_setup 51 (fun () -> Inputs.explore_ops (Random.State.make [| seed |]))
  in
  (* final stores of the full engine, the reference the reduced engines
     must reproduce *)
  let reference = Hashtbl.create 8 in
  let finals_of (c : Inputs.case) =
    match Hashtbl.find_opt reference c.case with
    | Some f -> f
    | None ->
        let f = Space.final_store_reprs (run_engine c Inputs.Full) in
        Hashtbl.replace reference c.case f;
        f
  in
  let check (c : Inputs.case) engine (r : Space.result) =
    let facts = Oracle.space_facts r in
    let key = Oracle.explore_key c.case in
    Oracle.first_error
      [
        (fun () ->
          match engine with
          | Inputs.Full ->
              Hashtbl.replace reference c.case (Space.final_store_reprs r);
              Oracle.check oracle key facts
          | Stubborn | Sleep ->
              Oracle.check oracle
                ~only:[ "complete"; "has_errors"; "has_deadlocks" ]
                key facts);
        (fun () -> Oracle.e19_rule ~program:c.program ~model:c.model facts);
        (fun () ->
          if Space.final_store_reprs r = finals_of c then None
          else
            Some
              (Printf.sprintf "%s/%s: final stores differ from the full engine"
                 c.case (Inputs.engine_name engine)));
      ]
  in
  let run ((c : Inputs.case), engine) =
    match Bstat.timed (fun () -> run_engine c engine) with
    | exception e ->
        op_done (Some (c.case ^ ": " ^ Printexc.to_string e));
        0
    | r, ns ->
        op_done (guard (fun () -> check c engine r));
        ns
  in
  if not trace then begin
    in_process_e2e ~setup_s ~seconds ops run
  end
  else begin
    let passes = run_passes ~seconds:(seconds /. 2.) ops run in
    begin_traced ();
    let traced ((c : Inputs.case), engine) =
      let ex0 = !Trace.excluded_ns in
      let ctx = Step.make_ctx ~model:c.model c.prog in
      let (), ns =
        Bstat.timed (fun () ->
            match engine with
            | Inputs.Full ->
                let stats, _, _ =
                  Trace.shadow_checked ~label:c.case
                    ~budget:(Budget.create ~max_configs:1_000_000 ())
                    ctx
                in
                Trace.count "explore.configs" stats.configurations;
                Trace.count "explore.transitions" stats.transitions
            | Stubborn -> ignore (Trace.stubborn ctx : Space.result)
            | Sleep -> ignore (Trace.sleep ctx : Space.result))
      in
      ns - (!Trace.excluded_ns - ex0)
    in
    let traced_passes = run_passes ~seconds:(seconds /. 2.) ops traced in
    let tpasses = List.length traced_passes in
    set_extra "obs.trace_overhead" (overhead ~traced:traced_passes ~untraced:passes);
    set_extra "semantics.intern_pool_entries" (float_of_int (intern_entries ()));
    set_extra "semantics.intern_pool_growth"
      (float_of_int (intern_entries () - pool0));
    layer_metrics ~passes:tpasses
  end

(* --- serve-mixed --- *)

let tmp_dir = Filename.concat ".perfbench_tmp" (string_of_int (Unix.getpid ()))
let socket = Filename.concat tmp_dir "s.sock"
let journal = Filename.concat tmp_dir "journal.jsonl"
let ping_line = {|{"op":"ping"}|}
let daemons : int list ref = ref []

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let start_daemon coanalyze =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process coanalyze
      [|
        coanalyze; "serve"; socket; "-j"; "2"; "--cache-cap";
        string_of_int Inputs.serve_capacity; "--log"; journal;
      |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  daemons := pid :: !daemons;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Serve.request ~socket ping_line with
    | _ -> ()
    | exception (Unix.Unix_error _ | End_of_file) ->
        if Unix.gettimeofday () > deadline then failwith "daemon never answered ping";
        Unix.sleepf 0.001;
        wait ()
  in
  wait ();
  pid

(* Stops a daemon and reaps it: shutdown request, then SIGKILL if it has
   not exited within ten seconds. *)
let stop_daemon pid =
  (try ignore (Serve.request ~socket {|{"op":"shutdown"}|} : string)
   with Unix.Unix_error _ | End_of_file -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  daemons := List.filter (( <> ) pid) !daemons

let cleanup_tmp () =
  List.iter stop_daemon !daemons;
  if Sys.file_exists tmp_dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat tmp_dir f)) (Sys.readdir tmp_dir);
    Unix.rmdir tmp_dir;
    try Unix.rmdir (Filename.dirname tmp_dir) with Unix.Unix_error _ -> ()
  end

let hit_prefix = {|{"ok":true,"cache":"hit",|}

let is_hit resp =
  String.length resp > String.length hit_prefix
  && String.sub resp 0 (String.length hit_prefix) = hit_prefix

(* The reply's run key and exit code, from its fixed prefix. *)
let reply_header resp =
  Scanf.sscanf resp {|{"ok":true,"cache":"%[a-z]","key":"%[0-9a-f]","exit_code":%d,|}
    (fun _ key code -> (key, code))

let embedded_exit_code report =
  let pat = {|"exit_code":|} in
  let n = String.length pat in
  let rec find i =
    if i + n > String.length report then failwith "report lacks exit_code"
    else if String.sub report i n = pat then Scanf.sscanf (String.sub report (i + n) 8) "%d" Fun.id
    else find (i + 1)
  in
  find 0

let serve_mixed ~oracle ~coanalyze ~seed ~seconds ~trace =
  mkdir_p tmp_dir;
  let setup () =
    let rng = Random.State.make [| seed |] in
    let catalog = Inputs.catalog rng in
    let stream = Inputs.stream rng (Array.length catalog) in
    (catalog, stream, start_daemon coanalyze)
  in
  let (catalog, stream, pid), setup_s =
    repeat_setup 5 ~discard:(fun (_, _, pid) -> stop_daemon pid) setup
  in
  (* Per run key, the digest of its first reply: every later reply under
     that key must carry the same bytes, hit or miss. *)
  let replies = Hashtbl.create 256 in
  let check (e : Inputs.entry) resp =
    if String.length resp < 11 || String.sub resp 0 11 <> {|{"ok":true,|} then
      Some (e.program ^ "/" ^ e.variant ^ ": " ^ resp)
    else
      let key, code = reply_header resp in
      let report = Option.get (Serve.response_report_raw resp) in
      let d = Digest.string report in
      let first_for_key =
        Mutex.protect lock (fun () ->
            match Hashtbl.find_opt replies key with
            | None ->
                Hashtbl.replace replies key d;
                None
            | Some d0 -> Some d0)
      in
      Oracle.first_error
        [
          (fun () ->
            if embedded_exit_code report = code then None
            else Some (e.program ^ ": reply and report exit codes differ"));
          (fun () ->
            match first_for_key with
            | Some d0 ->
                if d0 = d then None
                else Some (e.program ^ "/" ^ e.variant ^ ": reply bytes changed")
            | None ->
                let facts = Oracle.json_facts report in
                Oracle.first_error
                  [
                    (fun () ->
                      if Inputs.is_generated e.program then
                        Oracle.generated_rule ~program:e.program facts
                      else
                        Oracle.check oracle
                          (Oracle.pipeline_key e.program e.variant)
                          facts);
                    (fun () ->
                      (* abstract errors are may-errors, outside the rule *)
                      if e.variant = "abstract" then None
                      else Oracle.e19_rule ~program:e.program ~model:Step.Sc facts);
                  ]);
        ]
  in
  let cursor = Atomic.make 0 in
  (* The clients run in one-second windows.  Between windows they stop,
     so the daemon is idle while the host's speed is calibrated (the
     fastest of three samples); the cache keeps its state across
     windows.  Each window is (wall ns, latencies, calibration ns). *)
  let phase ~seconds =
    let deadline = Bstat.now_ns () + int_of_float (seconds *. 1e9) in
    let rec go acc =
      if Bstat.now_ns () >= deadline && Atomic.get cursor >= 1000 then List.rev acc
      else begin
        let w_start = Bstat.now_ns () in
        let w_end = w_start + 1_000_000_000 in
        let client () =
          let lat = ref [] in
          while Bstat.now_ns () < w_end do
            let i = stream.(Atomic.fetch_and_add cursor 1 mod Array.length stream) in
            let e = catalog.(i) in
            match Bstat.timed (fun () -> Serve.request ~socket e.line) with
            | exception ex -> op_done (Some (Printexc.to_string ex))
            | resp, ns ->
                lat := (ns, is_hit resp) :: !lat;
                op_done (guard (fun () -> check e resp))
          done;
          !lat
        in
        let doms = List.init 2 (fun _ -> Domain.spawn client) in
        let lat = List.concat_map Domain.join doms in
        let w = Bstat.now_ns () - w_start in
        let c = List.fold_left min max_int (List.init 3 (fun _ -> Bstat.calibrate ())) in
        go ((w, lat, c) :: acc)
      end
    in
    go []
  in
  let daemon_stats () =
    match Sjson.parse (Serve.request ~socket {|{"op":"stats"}|}) with
    | Ok j ->
        let int k = Option.value ~default:0 (Option.bind (Sjson.member k j) Sjson.to_int) in
        (int "hits", int "misses", int "entries")
    | Error e -> failwith ("stats reply: " ^ e)
  in
  let ws = phase ~seconds:(if trace then seconds /. 2. else seconds) in
  let lat = List.concat_map (fun (_, l, _) -> l) ws in
  let rss_mb = Bstat.peak_rss_mb pid in
  (* the coarsen re-keying defect: one request line sent twice *)
  let probe_key () =
    let line = Serve.analyze_line ?options_json:Inputs.coarsen_probe (Inputs.corpus_source "fig8") in
    fst (reply_header (Serve.request ~socket line))
  in
  set_extra "serve.coarsen_rekeyed" (if probe_key () <> probe_key () then 1. else 0.);
  if not trace then begin
    stop_daemon pid;
    (* each window at the reference speed by its own calibration, since
       the host's speed drifts within a run too *)
    let scale (w, l, c) =
      let k = Bstat.calibration_reference_ns /. float_of_int c in
      let scaled ns = int_of_float (Float.round (float_of_int ns *. k)) in
      (k, (secs (scaled w), List.map (fun (ns, _) -> scaled ns) l))
    in
    let ks, windows = List.split (List.map scale ws) in
    let k = Bstat.median ks in
    set_extra "host.speed_scale" k;
    Printf.eprintf "speed scale: median %.6g over %d windows (%.6g-%.6g); unscaled: setup %.6g s\n"
      k (List.length ks) (List.fold_left min infinity ks) (List.fold_left max 0. ks) setup_s;
    e2e ~setup_s:(setup_s *. k) ~windows ~rss_mb
  end
  else begin
    let pings =
      List.init 200 (fun _ ->
          snd (Bstat.timed (fun () -> Serve.request ~socket ping_line)))
    in
    let hits, misses, entries = daemon_stats () in
    stop_daemon pid;
    let requests = List.length lat in
    set_extra "serve.ping_rtt_us"
      (float_of_int (List.fold_left ( + ) 0 pings) /. 200. /. 1e3);
    set_extra "serve.hit_ratio" (fratio hits (hits + misses));
    set_extra "serve.evictions" (float_of_int (misses - entries));
    set_extra "obs.journal_bytes"
      (fratio (Unix.stat journal).Unix.st_size requests);
    (* in-process replay of the stream's first requests: handle_line
       untraced, then the same requests decomposed *)
    let n = min 1500 (Array.length stream) in
    let pool0 = intern_entries () in
    let replay () =
      let t =
        Serve.make
          { Serve.socket; capacity = Inputs.serve_capacity; cache_dir = None;
            pool = 1; defaults = Pipeline.default_options; spans = None }
      in
      Array.init n (fun k ->
          let (resp, _), ns =
            Bstat.timed (fun () -> Serve.handle_line t catalog.(stream.(k)).line)
          in
          (is_hit resp, ns))
    in
    (* the first replay fills this process's interner, as the daemon's
       was filled before the requests it is compared with *)
    ignore (replay ());
    let untraced = replay () in
    let untraced_ns = ref 0 in
    Array.iter
      (fun (hit, ns) ->
        untraced_ns := !untraced_ns + ns;
        Trace.record (if hit then "serve.handle_hit" else "serve.handle_miss") ns)
      untraced;
    let untraced_tags = Array.map fst untraced in
    let mean_of hit =
      let l = List.filter_map (fun (ns, h) -> if h = hit then Some ns else None) lat in
      fratio (sum l) (List.length l)
    in
    let e2e_hit = mean_of true and e2e_miss = mean_of false in
    let e2e_all = fratio (sum (List.map fst lat)) requests in
    let handle_hit = Trace.mean_ns "serve.handle_hit"
    and handle_miss = Trace.mean_ns "serve.handle_miss" in
    set_extra "serve.wait_hit_ms" ((e2e_hit -. handle_hit) /. 1e6);
    set_extra "serve.wait_miss_ms" ((e2e_miss -. handle_miss) /. 1e6);
    set_extra "serve.wait_ms" ((e2e_all -. fratio !untraced_ns n) /. 1e6);
    begin_traced ~keep:[ "serve.handle_hit"; "serve.handle_miss" ] ();
    let cache = Cache.create ~capacity:Inputs.serve_capacity () in
    for k = 0 to n - 1 do
      let e = catalog.(stream.(k)) in
      let label = e.program ^ "/" ^ e.variant in
      let ex0 = !Trace.excluded_ns in
      let hit, ns =
        Bstat.timed (fun () ->
            let req =
              Trace.time "serve.sjson_parse" (fun () -> Result.get_ok (Sjson.parse e.line))
            in
            let options =
              Result.get_ok
                (Serve.options_of_json ~defaults:Pipeline.default_options
                   (Option.value ~default:Sjson.Null (Sjson.member "options" req)))
            in
            let src = Option.get (Option.bind (Sjson.member "program" req) Sjson.to_string) in
            let prog = Trace.load_source src in
            let key = Trace.time "core.run_key" (fun () -> Pipeline.run_key options prog) in
            match Trace.time "serve.cache_find" (fun () -> Cache.find cache key) with
            | Some _ -> true
            | None ->
                let r = Trace.pipeline ~label options prog in
                let json = Trace.time "core.report_json" (fun () -> Report.to_json r) in
                Trace.count "core.report_bytes" (String.length json);
                let exit_code = Report.report_exit_code r in
                Trace.excluded (fun () ->
                    (* the reference analyzes the program the traced run
                       transformed: a second transform would draw fresh
                       statement labels *)
                    let untraced =
                      Trace.time "core.pipeline" (fun () ->
                          Pipeline.analyze
                            ~options:{ options with coarsen = false; inline = false }
                            r.Report.program)
                    in
                    if Report.to_json untraced <> json then
                      Trace.mismatch (label ^ ": traced report differs from Pipeline.analyze"));
                Trace.time "serve.cache_store" (fun () ->
                    Cache.store cache key { Cache.exit_code; report = json });
                false)
      in
      Trace.record "traced.op" (ns - (!Trace.excluded_ns - ex0));
      if hit <> untraced_tags.(k) then
        Trace.mismatch (label ^ ": replayed hit/miss differs from handle_line")
    done;
    (* coarsening is off the request mix (see Inputs.variants); its
       cost is timed on the catalog's programs *)
    Array.iter
      (fun (e : Inputs.entry) ->
        if e.variant = "default" then
          let prog = Pipeline.load_source e.source in
          ignore (Trace.time "trans.coarsen" (fun () -> Cobegin_trans.Coarsen.program prog)))
      catalog;
    set_extra "obs.trace_overhead"
      (fratio (Trace.total_ns "traced.op") !untraced_ns);
    set_extra "semantics.intern_pool_entries" (float_of_int (intern_entries ()));
    set_extra "semantics.intern_pool_growth"
      (float_of_int (intern_entries () - pool0));
    layer_metrics ~passes:1
  end

(* --- expected answers --- *)

let write_expected path =
  let buf = Buffer.create 16384 in
  let entry first key facts =
    Printf.bprintf buf "%s\n    %S: {%s}" (if first then "" else ",") key
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) facts))
  in
  let only keys facts = List.filter (fun (k, _) -> List.mem k keys) facts in
  Buffer.add_string buf "{\n  \"pipeline\": {";
  let first = ref true in
  let emit key facts =
    entry !first key facts;
    first := false
  in
  List.iter
    (fun (name, src) ->
      let facts o = Oracle.report_facts (Pipeline.analyze_source ~options:o src) in
      emit (name ^ "/corpus") (facts Inputs.corpus_options);
      let full = ref [] in
      List.iter
        (fun (variant, options_json) ->
          let f = facts (Inputs.variant_options options_json) in
          if variant = "default" then full := f;
          match variant with
          | "stubborn" ->
              (* a reduction may visit fewer states: pin its verdicts to
                 the full engine's, not its counts *)
              emit (name ^ "/" ^ variant)
                (only [ "exit_code"; "complete" ] f
                @ only [ "has_errors"; "has_deadlocks" ] !full)
          | "abstract" -> emit (name ^ "/" ^ variant) (only [ "exit_code"; "complete" ] f)
          | _ -> emit (name ^ "/" ^ variant) f)
        Inputs.variants)
    Cobegin_models.Corpus.all;
  Buffer.add_string buf "\n  },\n  \"explore\": {";
  first := true;
  List.iter
    (fun (c : Inputs.case) -> emit c.case (Oracle.space_facts (run_engine c Inputs.Full)))
    (Inputs.explore_cases ());
  Buffer.add_string buf "\n  }\n}\n";
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

(* --- main --- *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload analyze-corpus|explore-statespace|serve-mixed \
     --seed N --seconds S --trace 0|1 --coanalyze EXE --expected FILE\n\
    \       perfbench.exe --write-expected FILE";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  match List.assoc_opt "write-expected" o with
  | Some path -> write_expected path
  | None ->
      let workload = get "workload" in
      let seed = int_of_string (get "seed") in
      let seconds = float_of_string (get "seconds") in
      let trace = get "trace" = "1" in
      let oracle = Oracle.load (get "expected") in
      at_exit cleanup_tmp;
      let metrics =
        match workload with
        | "analyze-corpus" -> analyze_corpus ~oracle ~seed ~seconds ~trace
        | "explore-statespace" -> explore_statespace ~oracle ~seed ~seconds ~trace
        | "serve-mixed" ->
            serve_mixed ~oracle ~coanalyze:(get "coanalyze") ~seed ~seconds ~trace
        | w ->
            prerr_endline ("unknown workload " ^ w);
            exit 2
      in
      cleanup_tmp ();
      List.iter (fun m -> prerr_endline ("FAILED " ^ m)) (List.rev !failures);
      List.iter (fun m -> prerr_endline ("TRACE MISMATCH " ^ m)) (List.rev !Trace.mismatches);
      let correct = !failed = 0 && !Trace.mismatches = [] in
      Printf.printf
        {|{"env":%s,"workload":"%s","seed":%d,"trace":%b,"failed_ratio":%s,"speed_scale":%s,"serve_coarsen_rekeyed":%s}|}
        (Bstat.env_json ()) workload seed trace
        (Bstat.json_float (fratio !failed (max 1 !attempted)))
        (match Hashtbl.find_opt extra "host.speed_scale" with
        | Some k -> Bstat.json_float k
        | None -> "null")
        (Bstat.json_float (get_extra "serve.coarsen_rekeyed"));
      print_newline ();
      print_endline
        (Bstat.result_line ~correct ~attempted:!attempted ~failed:!failed metrics);
      if not correct then exit 1
