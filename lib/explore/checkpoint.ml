(* Checkpointed state-space generation (see checkpoint.mli).

   The engine is Space.full's kernel run with a save hooked on the
   iteration boundary — the determinism contract depends on it: a
   pop-count cadence picks the same save points on every run, and a
   resumed run replays the exact suffix of an uninterrupted one, so the
   final counts are identical.

   On-disk format: a magic string, then a Marshal'd header (format
   version + full-width hash of the marshaled program), then a
   Marshal'd payload.  The payload stores the visited set as digests
   plus a snapshot of the intern pools behind them (Intern.snapshot):
   digests are ids into process-local pools, so the restoring process
   re-interns the snapshotted representations and remaps every saved
   digest (Config.digest_of_ids) before use.  Frontier and terminal
   configurations are marshaled structurally; they also carry the
   writer's interned ids and recorded edges (on processes, stores,
   environments and the counter map), so the restoring process rebuilds
   each one through Config.forget_ids and digests it afresh.

   Writes go to a temp file renamed into place, so a crash mid-write
   leaves the previous checkpoint intact, never a torn file. *)

open Cobegin_semantics
module Metrics = Cobegin_obs.Metrics
module Journal = Cobegin_obs.Journal

let m_saves = Metrics.counter "checkpoint.saves"
let m_restores = Metrics.counter "checkpoint.restores"
let h_save_ms = Metrics.histogram "checkpoint.save_ms"
let h_restore_ms = Metrics.histogram "checkpoint.restore_ms"

exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some ("corrupt checkpoint: " ^ msg)
    | _ -> None)

type cadence = { every_configs : int; every_s : float option }

let default_cadence = { every_configs = 4096; every_s = None }

let magic = "COBEGIN-CKPT\n"

(* Version 2: configurations may carry per-process store buffers
   (TSO/PSO), and the identity hash binds the memory model alongside
   the program.  Version 3: the terminals, counters and event log are
   the exploration kernel's accumulator record.  Version 4: process
   representations in the pool snapshot key the procedure string and
   pending-return destinations structurally.  Version 5: environments
   carry a cached pool id and stores a cached hash, which changes the
   marshaled shape of every configuration; a version-4 file read as
   version 5 would be type confusion.  Version 6: processes and stores
   carry their own ids, and stores, environments and counter maps the
   edge that derived them; the process pool snapshots through its
   int-keyed parts.  Older files are refused with [Corrupt]. *)
let version = 6

type header = { hd_version : int; hd_program_hash : int }

(* The in-flight state of the BFS between two pops: the kernel's run
   state, its visited table and queue flattened to lists. *)
type payload = {
  ck_pools : Intern.snapshot;
  ck_visited : Config.digest list;
  ck_frontier : Config.t list; (* queue front first *)
  ck_acc : Step.events Space.Kernel.acc;
  ck_max_frontier : int;
}

(* The identity a checkpoint is bound to: resuming under a different
   program — or the same program under a different memory model —
   would silently mix state spaces. *)
let program_hash (ctx : Step.ctx) =
  Cobegin_hash.combine
    (Cobegin_hash.hash_string (Marshal.to_string ctx.Step.prog []))
    (Cobegin_hash.hash_string (Step.model_name ctx.Step.model))

(* The kernel's run state is the live state of a checkpointed run. *)
type live = (unit, Step.events) Space.Kernel.run

let save ~path ctx (live : live) =
  Fault.hit "checkpoint.save";
  let t0 = Unix.gettimeofday () in
  let payload =
    {
      ck_pools = Intern.snapshot (Intern.global ());
      ck_visited =
        Config.Digest_tbl.fold (fun d () acc -> d :: acc) live.visited [];
      ck_frontier = List.of_seq (Seq.map fst (Queue.to_seq live.queue));
      ck_acc = live.acc;
      ck_max_frontier = live.max_frontier;
    }
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc magic;
     Marshal.to_channel oc
       { hd_version = version; hd_program_hash = program_hash ctx }
       [];
     Marshal.to_channel oc payload [];
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  Metrics.incr m_saves;
  Metrics.observe h_save_ms
    (int_of_float ((Unix.gettimeofday () -. t0) *. 1000.));
  if Journal.enabled () then
    Journal.emit "checkpoint.saved"
      [
        ("path", Journal.Str path);
        ("configurations", Journal.Int (List.length payload.ck_visited));
        ("frontier", Journal.Int (List.length payload.ck_frontier));
        ("transitions", Journal.Int payload.ck_acc.transitions);
      ]

let load_payload ~path ctx : payload =
  let ic =
    try open_in_bin path
    with Sys_error e -> raise (Corrupt ("cannot open: " ^ e))
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let m =
        try really_input_string ic (String.length magic)
        with End_of_file -> raise (Corrupt "truncated (no magic)")
      in
      if m <> magic then raise (Corrupt "not a cobegin checkpoint");
      let hd =
        try (Marshal.from_channel ic : header)
        with End_of_file | Failure _ -> raise (Corrupt "truncated header")
      in
      if hd.hd_version <> version then
        raise
          (Corrupt
             (Printf.sprintf "format version %d, this build reads %d"
                hd.hd_version version));
      if hd.hd_program_hash <> program_hash ctx then
        raise (Corrupt "written for a different program");
      try (Marshal.from_channel ic : payload)
      with End_of_file | Failure _ -> raise (Corrupt "truncated payload"))

let live_of_payload (p : payload) =
  let t0 = Unix.gettimeofday () in
  let rm = Intern.restore (Intern.global ()) p.ck_pools in
  let remap_digest (d : Config.digest) =
    Config.digest_of_ids
      ~d_procs:(Array.map (fun i -> rm.Intern.rm_procs.(i)) d.Config.d_procs)
      ~d_store:rm.Intern.rm_stores.(d.Config.d_store)
      ~d_counters:rm.Intern.rm_counters.(d.Config.d_counters)
      ~d_error:
        (if d.Config.d_error < 0 then -1
         else rm.Intern.rm_errors.(d.Config.d_error))
  in
  let visited = Config.Digest_tbl.create 1024 in
  List.iter
    (fun d -> Config.Digest_tbl.replace visited (remap_digest d) ())
    p.ck_visited;
  let queue = Queue.create () in
  (* the writer's ids and edges number its pools, and warm pools here
     number the same components differently *)
  List.iter (fun c -> Queue.add (Config.forget_ids c, ()) queue) p.ck_frontier;
  let acc = p.ck_acc in
  let acc =
    {
      acc with
      finals = List.map Config.forget_ids acc.finals;
      deadlocks = List.map Config.forget_ids acc.deadlocks;
      errors = List.map Config.forget_ids acc.errors;
    }
  in
  Metrics.incr m_restores;
  Metrics.observe h_restore_ms
    (int_of_float ((Unix.gettimeofday () -. t0) *. 1000.));
  if Journal.enabled () then
    Journal.emit "checkpoint.restored"
      [
        ("configurations", Journal.Int (List.length p.ck_visited));
        ("frontier", Journal.Int (List.length p.ck_frontier));
        ("transitions", Journal.Int p.ck_acc.transitions);
      ];
  ({
     visited;
     queue;
     acc;
     max_frontier = p.ck_max_frontier;
     pops = 0;
     stop = None;
   }
    : live)

(* The full engine with a save every [cadence.every_configs] pops (and
   every [every_s] seconds, when set) at the kernel's iteration
   boundary — before the pop it precedes, so "resume from the last
   save" replays whole iterations, never half-fired expansions.  A
   truncated run saves its pure in-flight state at the stop, before
   the drain: the drain classifies the frontier without popping it,
   and a resumed run will re-classify those same configurations
   itself. *)
let run ?(max_configs = 1_000_000) ?budget ?probe ~cadence ~path ctx live :
    Space.result =
  let budget =
    match budget with Some b -> b | None -> Budget.create ~max_configs ()
  in
  let since_save = ref 0 in
  let last_save = ref (Unix.gettimeofday ()) in
  let on_boundary (st : live) =
    if st.stop <> None then save ~path ctx st
    else begin
      let time_due =
        match cadence.every_s with
        | Some s -> Unix.gettimeofday () -. !last_save >= s
        | None -> false
      in
      if !since_save >= cadence.every_configs || time_due then begin
        save ~path ctx st;
        since_save := 0;
        last_save := Unix.gettimeofday ()
      end;
      incr since_save
    end
  in
  Space.Kernel.run ?probe ~budget
    {
      (Space.engine ctx ~expand:(fun _ enabled -> enabled)) with
      site = "checkpoint.pop";
      on_boundary;
    }
    live;
  Space.result_of live

let full ?max_configs ?budget ?probe ?(cadence = default_cadence) ~path ctx =
  run ?max_configs ?budget ?probe ~cadence ~path ctx
    (Space.Kernel.start (Step.init ctx) ())

let resume ?max_configs ?budget ?probe ?(cadence = default_cadence) ~path ctx
    =
  let live = live_of_payload (load_payload ~path ctx) in
  (* The caller's budget typically dates from process startup, and its
     deadline is an absolute instant fixed at creation — by the time
     the snapshot above is loaded and re-interned, part (or all) of a
     --timeout grant would already be spent.  A resumed run gets the
     full timeout from the point the BFS actually restarts. *)
  Option.iter Budget.refresh_deadline budget;
  run ?max_configs ?budget ?probe ~cadence ~path ctx live
