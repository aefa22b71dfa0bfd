(* Clock, order statistics, process memory, the environment record and
   the result line. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns /. 1e9

(* [timed f] runs [f] and returns its result with its duration in ns. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Nearest-rank percentile of an unsorted sample, [p] in (0, 100]. *)
let percentile samples p =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median samples = percentile samples 50.

(* Samples beyond the nearest-rank percentile [p] of [n] samples, so a
   reported tail says how many observations it rests on. *)
let beyond n p =
  n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

(* The host's speed.  On a shared host the speed of a core drifts by
   more than the benchmark's bounds, for longer than a run, and all of
   a run's timings move with it.  [calibrate] times a fixed piece of
   work of the analyzer's own kind (hashing, sorting, list and string
   allocation) that no change to the program touches.  A timing taken
   while the calibration takes [c] ns is restated at the reference
   speed, the one at which it takes [calibration_reference_ns], by
   multiplying it by [calibration_reference_ns /. c]. *)
let calibration_work () =
  let n = 10_000 in
  let h = Hashtbl.create 16 in
  for i = 0 to n do
    Hashtbl.replace h ((i * 7919) land 0xffff) (string_of_int i)
  done;
  let a =
    Array.init n (fun i -> float_of_int (((i * 1103515245) + 12345) land 0xfffff))
  in
  Array.sort Float.compare a;
  let l = List.init n (fun i -> (i, Hashtbl.find_opt h i)) in
  ignore (Sys.opaque_identity (List.rev l))

let calibrate () = snd (timed calibration_work)
let calibration_reference_ns = 6_000_000.

(* The factor for a run whose [calibrate] times are [samples], taken at
   their fast decile as the run's own timings are. *)
let speed_scale samples =
  calibration_reference_ns /. percentile (List.map float_of_int samples) 10.

(* Peak resident set (VmHWM) of a process, in MiB, from /proc. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
  in
  go ()

(* Numbers from different machines or builds are never comparable: every
   result carries where it was measured. *)
let env_json () =
  Printf.sprintf {|{"nproc":%d,"ocaml":"%s","dune_profile":"%s"}|}
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Build_profile.name

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "json_float: non-finite metric"

(* The last stdout line: exactly [correct], [attempted], [failed] and
   [metrics], each metric as {"value":..,"unit":..}. *)
let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} name (json_float v)
          unit_)
      metrics
  in
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    correct attempted failed (String.concat "," m)
