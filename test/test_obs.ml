(* Telemetry (lib/obs): spans nest and export valid Chrome trace JSON,
   counters are monotone and reset cleanly, histograms bucket on the
   log scale, probes fire on the configured cadence under a fake clock,
   and — the contract the engines rely on — everything is a cheap no-op
   while telemetry is disabled. *)

open Helpers
module Metrics = Cobegin_obs.Metrics
module Span = Cobegin_obs.Span
module Probe = Cobegin_obs.Probe

(* [json_valid] and [contains] moved to Helpers — the report/manifest/
   journal suites validate their artifacts through the same checker. *)

(* Run [f] with telemetry enabled and fresh values, restoring the
   disabled default afterwards so other suites see pristine state. *)
let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

let span_tests =
  [
    case "spans nest: parent ids follow the open stack" (fun () ->
        let now = ref 0.0 in
        let t = Span.create ~clock:(fun () -> !now) () in
        let outer = Span.enter t "outer" in
        now := 1.0;
        let inner = Span.enter t "inner" in
        now := 2.0;
        Span.exit t inner;
        now := 5.0;
        Span.exit t outer;
        let evs = Span.events t in
        check_int "two events" 2 (List.length evs);
        let inner_ev = List.nth evs 0 and outer_ev = List.nth evs 1 in
        check_string "inner first (completion order)" "inner"
          inner_ev.Span.ev_name;
        check_string "outer second" "outer" outer_ev.Span.ev_name;
        check_int "inner's parent is outer" outer_ev.Span.ev_id
          inner_ev.Span.ev_parent;
        check_int "outer is a root" (-1) outer_ev.Span.ev_parent;
        check_bool "inner duration" true (inner_ev.Span.ev_dur = 1.0);
        check_bool "outer duration" true (outer_ev.Span.ev_dur = 5.0));
    case "exit closes the spans still open inside" (fun () ->
        let now = ref 0.0 in
        let t = Span.create ~clock:(fun () -> !now) () in
        let outer = Span.enter t "outer" in
        let _inner = Span.enter t "inner" in
        now := 3.0;
        Span.exit t outer;
        check_int "both completed" 2 (Span.event_count t);
        (* closing again is a no-op *)
        Span.exit t outer;
        check_int "still two" 2 (Span.event_count t));
    case "with_span records even when f raises" (fun () ->
        let t = Span.create ~clock:(fun () -> 0.0) () in
        (try Span.with_span t "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        check_int "recorded" 1 (Span.event_count t);
        check_string "named" "boom"
          (List.hd (Span.events t)).Span.ev_name);
    case "trace export is valid JSON carrying every span" (fun () ->
        let now = ref 0.0 in
        let t = Span.create ~clock:(fun () -> !now) () in
        Span.with_span t "parse \"quoted\"" (fun () ->
            now := 0.5;
            Span.with_span t "explore" (fun () -> now := 1.5));
        let json = Span.to_trace_json t in
        check_bool "valid JSON" true (json_valid json);
        check_bool "has traceEvents" true (contains json "\"traceEvents\"");
        List.iter
          (fun name -> check_bool name true (contains json name))
          [ "explore"; "ph" ]);
    case "durations lists completed spans in completion order" (fun () ->
        let now = ref 0.0 in
        let t = Span.create ~clock:(fun () -> !now) () in
        Span.with_span t "a" (fun () -> now := 2.0);
        Span.with_span t "b" (fun () -> now := 3.0);
        match Span.durations t with
        | [ ("a", da); ("b", db) ] ->
            check_bool "a took 2s" true (da = 2.0);
            check_bool "b took 1s" true (db = 1.0)
        | _ -> Alcotest.fail "wrong shape");
    case "one shared recorder: each domain gets its own stack and lane"
      (fun () ->
        let t = Span.create ~clock:(fun () -> 0.0) () in
        let worker i () =
          Span.with_span t (Printf.sprintf "worker%d" i) (fun () ->
              Span.with_span t "inner" ignore)
        in
        let domains = Array.init 3 (fun i -> Domain.spawn (worker i)) in
        Array.iter Domain.join domains;
        let evs = Span.events t in
        check_int "3 domains x 2 spans" 6 (List.length evs);
        (* each inner's parent is its own domain's worker span, and the
           lanes (ev_domain) are distinct per worker *)
        let lanes =
          List.filter_map
            (fun ev ->
              if ev.Span.ev_name <> "inner" then Some ev.Span.ev_domain
              else None)
            evs
          |> List.sort_uniq Int.compare
        in
        check_int "3 distinct lanes" 3 (List.length lanes);
        List.iter
          (fun ev ->
            if ev.Span.ev_name = "inner" then begin
              let parent =
                List.find (fun p -> p.Span.ev_id = ev.Span.ev_parent) evs
              in
              check_int "parent on same lane" ev.Span.ev_domain
                parent.Span.ev_domain;
              check_bool "parent is a worker span" true
                (String.length parent.Span.ev_name > 6
                && String.sub parent.Span.ev_name 0 6 = "worker")
            end)
          evs;
        let json = Span.to_trace_json t in
        check_bool "trace valid" true (json_valid json);
        check_bool "tid lanes present" true (contains json "\"tid\":"));
  ]

let metrics_tests =
  [
    case "counters are monotone and reset to zero" (fun () ->
        with_metrics (fun () ->
            let c = Metrics.counter "test.counter" in
            Metrics.incr c;
            Metrics.incr c;
            Metrics.add c 3;
            check_int "5 after 2 incr + add 3" 5 (Metrics.counter_value c);
            (try
               Metrics.add c (-1);
               Alcotest.fail "negative add must raise"
             with Invalid_argument _ -> ());
            Metrics.reset ();
            check_int "reset" 0 (Metrics.counter_value c);
            (* the handle survives the reset *)
            Metrics.incr c;
            check_int "live after reset" 1 (Metrics.counter_value c)));
    case "find-or-create: same name, same handle" (fun () ->
        with_metrics (fun () ->
            let a = Metrics.counter "test.shared" in
            let b = Metrics.counter "test.shared" in
            Metrics.incr a;
            check_int "visible through both" 1 (Metrics.counter_value b)));
    case "histogram buckets on the log scale" (fun () ->
        check_int "0 -> bucket 0" 0 (Metrics.bucket_of 0);
        check_int "1 -> lower 1" 1 (Metrics.bucket_lower (Metrics.bucket_of 1));
        check_int "2 -> lower 2" 2 (Metrics.bucket_lower (Metrics.bucket_of 2));
        check_int "3 -> lower 2" 2 (Metrics.bucket_lower (Metrics.bucket_of 3));
        check_int "4 -> lower 4" 4 (Metrics.bucket_lower (Metrics.bucket_of 4));
        check_int "1000 -> lower 512" 512
          (Metrics.bucket_lower (Metrics.bucket_of 1000));
        with_metrics (fun () ->
            let h = Metrics.histogram "test.hist" in
            List.iter (Metrics.observe h) [ 1; 2; 3; 4; 1000 ];
            let snap = Metrics.snapshot () in
            let hs = List.assoc "test.hist" snap.Metrics.s_histograms in
            check_int "count" 5 hs.Metrics.hs_count;
            check_int "sum" 1010 hs.Metrics.hs_sum;
            check_int "max" 1000 hs.Metrics.hs_max;
            check_int "bucket 2 holds 2 and 3" 2
              (List.assoc 2 hs.Metrics.hs_buckets);
            check_int "bucket 512 holds 1000" 1
              (List.assoc 512 hs.Metrics.hs_buckets)));
    case "snapshot JSON is valid" (fun () ->
        with_metrics (fun () ->
            Metrics.incr (Metrics.counter "test.c");
            Metrics.set (Metrics.gauge "test.g") 7;
            Metrics.observe (Metrics.histogram "test.h") 42;
            check_bool "valid" true
              (json_valid (Metrics.to_json (Metrics.snapshot ())))));
    case "histogram hammered from 4 domains loses no observation" (fun () ->
        with_metrics (fun () ->
            let h = Metrics.histogram "test.hammer" in
            let per_domain = 10_000 in
            let worker () =
              for i = 1 to per_domain do
                Metrics.observe h (i land 1023)
              done
            in
            let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
            Array.iter Domain.join domains;
            let snap = Metrics.snapshot () in
            let hs = List.assoc "test.hammer" snap.Metrics.s_histograms in
            check_int "count" (4 * per_domain) hs.Metrics.hs_count;
            let expected_sum =
              let s = ref 0 in
              for i = 1 to per_domain do
                s := !s + (i land 1023)
              done;
              4 * !s
            in
            check_int "sum" expected_sum hs.Metrics.hs_sum));
    case "disabled: mutations are no-ops and allocate nothing" (fun () ->
        Metrics.set_enabled false;
        Metrics.reset ();
        let c = Metrics.counter "test.noop" in
        let g = Metrics.gauge "test.noop.g" in
        let h = Metrics.histogram "test.noop.h" in
        let before = Gc.minor_words () in
        for i = 1 to 100_000 do
          Metrics.incr c;
          Metrics.set g i;
          Metrics.observe h i
        done;
        let allocated = Gc.minor_words () -. before in
        check_int "counter untouched" 0 (Metrics.counter_value c);
        check_int "gauge untouched" 0 (Metrics.gauge_value g);
        (* 300k guarded no-ops must not allocate per call; leave slack
           for the Gc.minor_words calls themselves *)
        check_bool
          (Printf.sprintf "allocation-free (%.0f words)" allocated)
          true (allocated < 1_000.));
  ]

let probe_tests =
  [
    case "fires every N configurations" (fun () ->
        let fired = ref [] in
        let p =
          Probe.make ~every_configs:100 ~every_s:1e9
            ~clock:(fun () -> 0.0)
            (fun s -> fired := s.Probe.p_configurations :: !fired)
        in
        for c = 1 to 350 do
          Probe.tick p ~configurations:c ~frontier:1 ~transitions:(2 * c)
        done;
        check_int "three samples" 3 (Probe.fired p);
        check_bool "at 100/200/300" true
          (List.rev !fired = [ 100; 200; 300 ]));
    case "fires on elapsed time under a fake clock" (fun () ->
        let now = ref 0.0 in
        let fired = ref 0 in
        let p =
          Probe.make ~every_configs:max_int ~every_s:10.0 ~check_every:1
            ~clock:(fun () -> !now)
            (fun _ -> incr fired)
        in
        Probe.tick p ~configurations:1 ~frontier:1 ~transitions:1;
        check_int "not yet" 0 !fired;
        now := 11.0;
        Probe.tick p ~configurations:2 ~frontier:1 ~transitions:2;
        check_int "fired once" 1 !fired;
        now := 15.0;
        Probe.tick p ~configurations:3 ~frontier:1 ~transitions:3;
        check_int "interval restarts at the last firing" 1 !fired;
        now := 21.5;
        Probe.tick p ~configurations:4 ~frontier:1 ~transitions:4;
        check_int "fired again" 2 !fired);
    case "samples carry rate, pools and budget headroom" (fun () ->
        let captured = ref None in
        let b = Budget.create ~max_configs:1000 () in
        let p =
          Probe.make ~every_configs:10 ~every_s:1e9
            ~clock:
              (let now = ref 0.0 in
               fun () ->
                 now := !now +. 1.0;
                 !now)
            ~pools:(fun () -> [ ("widgets", 7) ])
            ~budget:b
            (fun s -> captured := Some s)
        in
        Probe.tick p ~configurations:50 ~frontier:5 ~transitions:100;
        match !captured with
        | None -> Alcotest.fail "no sample"
        | Some s ->
            check_bool "rate positive" true (s.Probe.p_rate > 0.);
            check_bool "pools injected" true
              (s.Probe.p_pools = [ ("widgets", 7) ]);
            check_bool "headroom has the configs limit" true
              (List.exists
                 (fun h ->
                   h.Budget.h_consumed = 50. && h.Budget.h_limit = 1000.)
                 s.Probe.p_headroom);
            check_bool "sample JSON valid" true
              (json_valid (Probe.sample_to_json s)));
    case "jsonl sink writes one valid object per line" (fun () ->
        let path = Filename.temp_file "obs" ".jsonl" in
        let oc = open_out path in
        let p =
          Probe.make ~every_configs:10 ~every_s:1e9
            ~clock:(fun () -> 0.0)
            (Probe.jsonl_sink oc)
        in
        for c = 1 to 30 do
          Probe.tick p ~configurations:c ~frontier:1 ~transitions:c
        done;
        close_out oc;
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        close_in ic;
        Sys.remove path;
        check_int "three lines" 3 (List.length !lines);
        List.iter
          (fun l -> check_bool "line valid" true (json_valid l))
          !lines);
  ]

let pipeline_tests =
  [
    case "pipeline spans cover every stage; report carries max_frontier"
      (fun () ->
        let open Cobegin_core in
        let spans = Span.create () in
        let options =
          { Pipeline.default_options with find_races = true }
        in
        let report =
          Pipeline.analyze ~options ~spans
            (parse Cobegin_models.Figures.fig2)
        in
        let stages = List.map fst report.Pipeline.telemetry in
        List.iter
          (fun s ->
            check_bool ("stage " ^ s) true (List.mem s stages))
          [ "exploration"; "side-effects"; "dependences"; "races" ];
        check_bool "max_frontier populated" true
          (report.Pipeline.stats.Pipeline.max_frontier >= 1);
        check_bool "trace from pipeline spans is valid JSON" true
          (json_valid (Span.to_trace_json spans)));
    case "a reused recorder reports only the new run's stages" (fun () ->
        let open Cobegin_core in
        let spans = Span.create () in
        let prog = parse Cobegin_models.Figures.fig2 in
        let r1 = Pipeline.analyze ~spans prog in
        let r2 = Pipeline.analyze ~spans prog in
        check_int "same stage count both runs"
          (List.length r1.Pipeline.telemetry)
          (List.length r2.Pipeline.telemetry);
        check_int "recorder accumulated both"
          (2 * List.length r1.Pipeline.telemetry)
          (Span.event_count spans));
    case "two runs in one process: Metrics.reset scopes counters per run"
      (fun () ->
        (* the serve-daemon bugfix pinned: without the per-request
           reset, the second run's snapshot reports the sum of both *)
        with_metrics (fun () ->
            let open Cobegin_core in
            let prog = parse Cobegin_models.Figures.fig2 in
            let expansions = Metrics.counter "space.expansions" in
            let _ = Pipeline.analyze prog in
            let first = Metrics.counter_value expansions in
            check_bool "first run counted" true (first > 0);
            let _ = Pipeline.analyze prog in
            check_int "without reset, runs accumulate" (2 * first)
              (Metrics.counter_value expansions);
            Metrics.reset ();
            let _ = Pipeline.analyze prog in
            check_int "after reset, the snapshot is one run's worth" first
              (Metrics.counter_value expansions)));
    case "Span.reset scopes a reused recorder per run" (fun () ->
        let open Cobegin_core in
        let spans = Span.create () in
        let prog = parse Cobegin_models.Figures.fig2 in
        let r1 = Pipeline.analyze ~spans prog in
        Span.reset spans;
        let r2 = Pipeline.analyze ~spans prog in
        check_int "recorder holds only the second run"
          (List.length r2.Pipeline.telemetry)
          (Span.event_count spans);
        check_int "reports see one run each"
          (List.length r1.Pipeline.telemetry)
          (List.length r2.Pipeline.telemetry);
        (* ids keep ascending across resets, so traces stay mergeable *)
        let min_id =
          List.fold_left
            (fun acc e -> min acc e.Span.ev_id)
            max_int (Span.events spans)
        in
        check_bool "ids continue after reset" true
          (min_id >= List.length r1.Pipeline.telemetry));
    case "engines tick a probe during exploration" (fun () ->
        let open Cobegin_explore in
        let fired = ref 0 in
        let p =
          Probe.make ~every_configs:10 ~every_s:1e9 (fun _ -> incr fired)
        in
        let r = Space.full ~probe:p (ctx_of Cobegin_models.Figures.fig5) in
        check_bool "explored something" true
          (r.Space.stats.Space.configurations > 20);
        check_bool "probe fired" true (!fired > 0));
  ]

let json_tests =
  [
    case "JSON numbers render exactly" (fun () ->
        let float = Cobegin_obs.Obs_json.float in
        check_string "a 512 MiB heap cap in words" "67108864" (float 67108864.);
        check_string "a count past a million" "1000001" (float (1e6 +. 1.));
        check_string "a short fraction" "0.1" (float 0.1);
        check_string "NaN is null, not 0" "null" (float Float.nan);
        check_string "an infinity is null" "null" (float Float.infinity);
        List.iter
          (fun f ->
            check_bool (Printf.sprintf "%h round-trips" f) true
              (float_of_string (float f) = f))
          [ 1.0 /. 3.0; 1234.5678901; 1e-7; 6.02214076e23; -2.5; 1e300 ]);
  ]

let suite =
  span_tests @ metrics_tests @ probe_tests @ pipeline_tests @ json_tests
