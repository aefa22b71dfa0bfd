(* Hash-consed digests (Intern / Config.digest): equality semantics
   across interleavings, digest-vs-repr cardinality, distribution of the
   full-width hash, the truncated-generic-hash regressions, and the
   interned-id cache configurations carry. *)

open Cobegin_semantics
open Helpers

let diamond_src =
  "proc main() { var x = 0; var y = 0; cobegin { x = 1; } { y = 2; } \
   coend; }"

(* Step through the sequential prefix until several processes run. *)
let rec advance ctx c =
  match Step.enabled_processes ctx c with
  | [ p ] when Config.num_procs c = 1 -> advance ctx (fst (Step.fire ctx c p))
  | ps -> (c, ps)

let fire_pid ctx c pid =
  let p =
    List.find
      (fun (q : Proc.t) -> q.Proc.pid = pid)
      (Step.enabled_processes ctx c)
  in
  fst (Step.fire ctx c p)

(* Manual BFS that keys the visited set by [Config.repr] (ground truth)
   and inserts every newly visited configuration's digest on the side:
   equal cardinality means digests are injective on distinct reprs. *)
let bfs_digests src =
  let ctx = ctx_of src in
  let reprs = Hashtbl.create 64 in
  let digests = Config.Digest_tbl.create 64 in
  let queue = Queue.create () in
  let visit c =
    let r = Config.repr c in
    if not (Hashtbl.mem reprs r) then begin
      Hashtbl.replace reprs r ();
      Config.Digest_tbl.replace digests (Config.digest c) ();
      Queue.add c queue
    end
  in
  visit (Step.init ctx);
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    List.iter
      (fun p -> visit (fst (Step.fire ctx c p)))
      (Step.enabled_processes ctx c)
  done;
  ( Hashtbl.length reprs,
    Config.Digest_tbl.length digests,
    Config.Digest_tbl.fold (fun d () acc -> d :: acc) digests [] )

let digest_tests =
  [
    case "two interleavings of independent writes reach equal digests"
      (fun () ->
        let ctx = ctx_of diamond_src in
        let c, ps = advance ctx (Step.init ctx) in
        match ps with
        | p1 :: p2 :: _ ->
            let c12 = fire_pid ctx (fire_pid ctx c p1.Proc.pid) p2.Proc.pid in
            let c21 = fire_pid ctx (fire_pid ctx c p2.Proc.pid) p1.Proc.pid in
            check_bool "reprs equal (ground truth)" true
              (Config.repr c12 = Config.repr c21);
            check_bool "digests equal" true
              (Config.digest_equal (Config.digest c12) (Config.digest c21));
            check_int "hashes equal"
              (Config.digest_hash (Config.digest c12))
              (Config.digest_hash (Config.digest c21));
            check_bool "Config.equal agrees" true (Config.equal c12 c21)
        | _ -> Alcotest.fail "expected two forked processes");
    case "digest cardinality matches repr cardinality (fig5, peterson)"
      (fun () ->
        List.iter
          (fun (name, src) ->
            let nr, nd, _ = bfs_digests src in
            check_int (name ^ " cardinality") nr nd)
          [
            ("fig5", Cobegin_models.Figures.fig5);
            ("peterson", Cobegin_models.Protocols.peterson);
            ("phil-2", Cobegin_models.Philosophers.program ~rounds:1 2);
          ]);
    case "interning is idempotent across re-serialization" (fun () ->
        let ctx = ctx_of diamond_src in
        let c0 = Step.init ctx in
        let st = Intern.global () in
        List.iter
          (fun p ->
            let p' = Proc.forget_ids p in
            check_bool "same key" true (Proc.key p = Proc.key p');
            check_int "same proc id" (Proc.id p) (Proc.id p'))
          (Config.processes c0);
        let n = Intern.distinct_procs st in
        check_int "same store id" (Store.id c0.Config.store)
          (Store.id (Store.forget_id c0.Config.store));
        check_int "error None is -1" (-1) (Intern.error_id st None);
        ignore (Config.digest (Config.forget_ids c0) : Config.digest);
        check_int "re-interning adds nothing" n (Intern.distinct_procs st))
  ]

let distribution_tests =
  [
    case "full-width hash spreads the philosophers state space" (fun () ->
        let _, n, digests =
          bfs_digests (Cobegin_models.Philosophers.program 3)
        in
        let m =
          let rec up k = if k >= 2 * n then k else up (2 * k) in
          up 64
        in
        let buckets = Array.make m 0 in
        List.iter
          (fun d ->
            let i = Config.digest_hash d land (m - 1) in
            buckets.(i) <- buckets.(i) + 1)
          digests;
        let worst = Array.fold_left max 0 buckets in
        (* at load factor <= 1/2 a healthy hash keeps chains tiny; the
           truncated generic hash produced chains of hundreds here *)
        check_bool
          (Printf.sprintf "max bucket %d <= 8 over %d states" worst n)
          true (worst <= 8));
    case "marking hash is sensitive beyond the generic-hash horizon"
      (fun () ->
        let a = Array.make 20 1 in
        let b = Array.copy a in
        b.(15) <- 2;
        check_bool "generic hash collides (the bug)" true
          (Hashtbl.hash (Array.to_list a) = Hashtbl.hash (Array.to_list b));
        check_bool "full-width hash differs" true
          (Cobegin_hash.hash_int_array a <> Cobegin_hash.hash_int_array b));
  ]

(* Ids carried by components: a digest resolves only what the step
   changed, a derived id (through an edge memo) never differs from the
   pool's, and a checkpoint written under another process's numbering
   resumes exactly. *)

(* The deltas of the named telemetry counters over [f ()]. *)
let counter_deltas names f =
  let module M = Cobegin_obs.Metrics in
  let cs = List.map M.counter names in
  let was = M.enabled () in
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () -> M.set_enabled was)
    (fun () ->
      let before = List.map M.counter_value cs in
      f ();
      List.map2 (fun c b -> M.counter_value c - b) cs before)

(* The intern.memo_* counter deltas over [f ()]: (hits, misses). *)
let memo_deltas f =
  match counter_deltas [ "intern.memo_hits"; "intern.memo_misses" ] f with
  | [ hits; misses ] -> (hits, misses)
  | _ -> assert false

(* Breadth-first over every configuration reachable under [model],
   calling [f] on every successor fired, revisits included, with its
   first digest — the one computed from the ids its parent passed on. *)
let iter_reached ~model src f =
  let ctx = Step.make_ctx ~model (parse src) in
  let seen = Config.Digest_tbl.create 1024 in
  let queue = Queue.create () in
  let visit c =
    let d = Config.digest c in
    f c d;
    if not (Config.Digest_tbl.mem seen d) then begin
      Config.Digest_tbl.replace seen d ();
      if not (Config.is_error c) then Queue.add c queue
    end
  in
  visit (Step.init ctx);
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    List.iter
      (fun a -> visit (fst (Step.fire_action ctx c a)))
      (Step.enabled_actions ctx c)
  done;
  Config.Digest_tbl.length seen

let exe = "../bin/coanalyze.exe"

(* Another process explores [src] under [model] with checkpoints and is
   killed by an injected crash; this process, whose interner has seen
   the rest of the corpus first, resumes the file and must get
   [Space.full]'s counts. *)
let resume_in_warm_interner ~model name src =
  let tmp = Filename.temp_file "cobegin-intern" ".cob" in
  let ckpt = Filename.temp_file "cobegin-intern" ".ckpt" in
  let ctx_of src = Step.make_ctx ~model (parse src) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ tmp; ckpt ])
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc -> output_string oc src);
      (* the other process numbers the model's components from 0 *)
      let argv =
        [| exe; "explore"; tmp; "--memory-model"; Step.model_name model;
           "--checkpoint"; ckpt; "--checkpoint-every"; "100";
           "--chaos"; "crash@checkpoint.pop:300" |]
      in
      let out, inp, err =
        Unix.open_process_args_full exe argv (Unix.environment ())
      in
      close_out inp;
      ignore (In_channel.input_all out : string);
      ignore (In_channel.input_all err : string);
      (match Unix.close_process_full (out, inp, err) with
      | Unix.WEXITED 3 -> ()
      | _ -> Alcotest.failf "%s: expected the injected kill (exit 3)" name);
      List.iter
        (fun (other, src) ->
          if other <> name then ignore (Cobegin_explore.Space.full (ctx_of src)))
        Cobegin_models.Corpus.all;
      let resumed = Cobegin_explore.Checkpoint.resume ~path:ckpt (ctx_of src) in
      let clean = Cobegin_explore.Space.full (ctx_of src) in
      check_int (name ^ " configurations")
        clean.Cobegin_explore.Space.stats.configurations
        resumed.Cobegin_explore.Space.stats.configurations;
      check_bool (name ^ ": every resumed count equals Space.full's") true
        (resumed.Cobegin_explore.Space.stats
       = clean.Cobegin_explore.Space.stats))

let cache_tests =
  [
    case "a one-process successor of a digested parent misses once"
      (fun () ->
        let ctx =
          ctx_of
            "proc main() { cobegin { skip; skip; } { skip; skip; } coend; }"
        in
        let c, ps = advance ctx (Step.init ctx) in
        ignore (Config.digest c : Config.digest);
        let c', _ = Step.fire ctx c (List.hd ps) in
        check_int "no process forked or ended" (Config.num_procs c)
          (Config.num_procs c');
        let hits, misses =
          memo_deltas (fun () -> ignore (Config.digest c' : Config.digest))
        in
        check_int "one pool intern: the process that moved" 1 misses;
        check_int "the other processes, the store and the counters reused"
          (Config.num_procs c' + 1)
          hits;
        let _, misses =
          memo_deltas (fun () -> ignore (Config.digest c' : Config.digest))
        in
        check_int "a repeated digest interns nothing" 0 misses);
    case "cached digests equal cache-free ones on the corpus (SC/TSO/PSO)"
      (fun () ->
        (* every successor fired, its ids derived from its parent's
           through the edge memos — cold, then warm — against a copy
           with every id and edge forgotten, resolved by the pools *)
        let hits =
          counter_deltas
            [ "intern.store_edge_hits"; "intern.env_edge_hits" ]
            (fun () ->
              List.iter
                (fun model ->
                  List.iter
                    (fun (name, src) ->
                      for _ = 1 to 2 do
                        let n =
                          iter_reached ~model src (fun c d ->
                              if
                                not
                                  (Config.digest_equal d
                                     (Config.digest (Config.forget_ids c)))
                              then
                                Alcotest.failf "%s/%s: cached digest differs"
                                  name (Step.model_name model))
                        in
                        check_bool (name ^ " explored") true (n > 0)
                      done)
                    Cobegin_models.Corpus.all)
                Step.[ Sc; Tso; Pso ])
        in
        List.iter2
          (fun what n -> check_bool (what ^ " edge-memo hits") true (n > 0))
          [ "store"; "env" ] hits);
    case "a checkpoint resumes exactly in a process with a warm interner"
      (fun () ->
        (* phil3 under SC, and peterson under PSO, whose saved frontier
           holds buffered processes: their environments come back with
           the writer's ids and must be rebuilt *)
        List.iter
          (fun (name, model) ->
            resume_in_warm_interner ~model name
              (Option.get (Cobegin_models.Corpus.find name)))
          Step.[ ("phil3", Sc); ("peterson", Pso) ]);
  ]

(* Hash-consed environments and self-hashing stores: ids follow the
   bindings and the cells, never the order they were built in, and a
   step that binds nothing interns no environment. *)

let env_interns f =
  match counter_deltas [ "intern.env_interns" ] f with
  | [ n ] -> n
  | _ -> assert false

let loc ?(pid = []) site =
  { Value.l_pid = pid; l_site = site; l_seq = 0; l_off = 0 }

(* Bind sequences over three names and three locations: short enough
   that two random ones often bind equally, by different orders and
   with shadowing. *)
let bind_seq =
  QCheck2.Gen.(
    list_size (int_range 0 6)
      (pair (oneofl [ "a"; "b"; "c" ]) (int_range 0 2)))

let env_of seq =
  List.fold_left (fun e (x, site) -> Env.bind x (loc site) e) Env.empty seq

let hashcons_tests =
  [
    qtest ~count:500 "equal env ids iff equal bindings"
      QCheck2.Gen.(pair bind_seq bind_seq)
      (fun (s1, s2) ->
        let e1 = env_of s1 and e2 = env_of s2 in
        Env.id e1 = Env.id e2 = (Env.bindings e1 = Env.bindings e2)
        && Env.id (env_of (List.rev s1))
           = Env.id (Env.of_bindings (Env.bindings (env_of (List.rev s1)))));
    case "stores equal in cells get one store id" (fun () ->
        let a = loc 1 and b = loc 2 and c = loc ~pid:[ (7, 0) ] 3 in
        let v n = Value.Vint n in
        let birth = Pstring.empty in
        let s1 =
          Store.empty
          |> Store.alloc ~birth a (v 0)
          |> Store.alloc ~birth b (v 2)
          |> Store.set a (v 1)
        in
        (* other order, other metadata, a cell allocated and freed *)
        let s2 =
          Store.empty
          |> Store.alloc ~heap:true ~exposed:true
               ~birth:[ Pstring.Fbranch { cob = 4; idx = 1; inst = 9 } ]
               b (v 2)
          |> Store.alloc ~birth c (v 5)
          |> Store.set a (v 1)
          |> Store.register_block c 1
          |> Store.free (Value.LocSet.singleton c)
        in
        let s3 = Store.set b (v 3) s1 in
        check_bool "same cells (ground truth)" true
          (Store.repr s1 = Store.repr s2);
        check_int "same hash" (Store.hash s1) (Store.hash s2);
        check_bool "Store.equal" true (Store.equal s1 s2);
        check_int "one store id" (Store.id s1) (Store.id s2);
        check_bool "a changed cell is another store" true
          (Store.id s1 <> Store.id s3);
        check_int "setting it back is the first store again"
          (Store.id s1)
          (Store.id (Store.set b (v 2) s3)));
    case "a step that leaves a process's env unchanged interns no env"
      (fun () ->
        let ctx =
          ctx_of
            "proc main() { var x = 0; cobegin { x = 1; var y = 2; y = 3; } \
             { skip; } coend; }"
        in
        let c, ps = advance ctx (Step.init ctx) in
        ignore (Config.digest c : Config.digest);
        let writer =
          List.find
            (fun (p : Proc.t) ->
              match Proc.next_stmt p with
              | Some { Cobegin_lang.Ast.kind = Cobegin_lang.Ast.Sassign _; _ } ->
                  true
              | _ -> false)
            ps
        in
        let c', _ = Step.fire ctx c writer in
        check_int "an assignment keeps the env: nothing to intern" 0
          (env_interns (fun () -> ignore (Config.digest c' : Config.digest)));
        let p' = Option.get (Config.find_proc writer.Proc.pid c') in
        let c'', _ = Step.fire ctx c' p' in
        check_bool "a declaration interns the env it builds" true
          (env_interns (fun () -> ignore (Config.digest c'' : Config.digest))
          > 0));
  ]

let repr_audit_tests =
  [
    case "statement labels stay unique across the coarsened corpus"
      (fun () ->
        List.iter
          (fun (name, src) ->
            let p = Cobegin_trans.Coarsen.program (parse src) in
            let ls = Cobegin_lang.Ast.labels p in
            check_int
              (name ^ ": labels unique after coarsening")
              (List.length ls)
              (List.length (List.sort_uniq compare ls)))
          Cobegin_models.Corpus.all);
    case "pending returns distinguish call site and destination" (fun () ->
        let open Cobegin_lang in
        let mk ~site ~dest =
          Proc.item_repr (Proc.Iret { dest; saved_env = Env.empty; site })
        in
        check_bool "sites distinguish" true
          (mk ~site:1 ~dest:None <> mk ~site:2 ~dest:None);
        check_bool "destinations distinguish" true
          (mk ~site:1 ~dest:(Some (Ast.Lvar "x"))
          <> mk ~site:1 ~dest:(Some (Ast.Lvar "y")));
        check_bool "missing vs present destination" true
          (mk ~site:1 ~dest:None <> mk ~site:1 ~dest:(Some (Ast.Lvar "x"))));
  ]

(* Derived ids: components made from a parent with a known id by a few
   edits resolve through an edge memo, and must get the pool's id —
   the same id whatever edges led to the same contents. *)

let v n = Value.Vint n

(* A store with a known id and some cells, to derive from. *)
let base_store () =
  let birth = Pstring.empty in
  let s =
    Store.empty
    |> Store.alloc ~birth (loc 1) (v 0)
    |> Store.alloc ~birth (loc 2) (v 0)
  in
  ignore (Store.id s : int);
  s

let store_ids_agree what s1 s2 =
  check_int (what ^ ": one id") (Store.id s1) (Store.id s2);
  check_int (what ^ ": the pool's id") (Store.id (Store.forget_id s1))
    (Store.id s1)

let env_ids_agree what e1 e2 =
  check_int (what ^ ": one id") (Env.id e1) (Env.id e2);
  check_int (what ^ ": the pool's id")
    (Env.id (Env.of_bindings (Env.bindings e1)))
    (Env.id e1)

let derived_tests =
  [
    case "stores reaching equal cells along different edges get one id"
      (fun () ->
        let s0 = base_store () in
        let a = loc 1 and b = loc 2 and c = loc 3 in
        store_ids_agree "set order"
          (s0 |> Store.set a (v 1) |> Store.set b (v 2))
          (s0 |> Store.set b (v 2) |> Store.set a (v 1));
        store_ids_agree "overwritten write"
          (s0 |> Store.set a (v 7) |> Store.set a (v 1))
          (Store.set a (v 1) s0);
        store_ids_agree "alloc and free order"
          (s0
          |> Store.alloc ~heap:true ~birth:Pstring.empty c (v 3)
          |> Store.free (Value.LocSet.singleton c)
          |> Store.set a (v 1))
          (Store.set a (v 1) s0);
        store_ids_agree "metadata only"
          (Store.alloc ~heap:true ~exposed:true
             ~birth:[ Pstring.Fbranch { cob = 4; idx = 1; inst = 9 } ]
             c (v 3) s0
          |> Store.register_block c 1)
          (Store.set c (v 3) s0);
        store_ids_agree "a write of the value already there" s0
          (Store.set a (v 0) s0);
        check_bool "different values are different stores" true
          (Store.id (Store.set a (v 1) s0) <> Store.id (Store.set a (v 2) s0));
        check_bool "different cells are different stores" true
          (Store.id (Store.set a (v 1) s0) <> Store.id (Store.set b (v 1) s0)));
    case "envs reaching equal bindings along different edges get one id"
      (fun () ->
        let e0 = Env.bind "x" (loc 1) Env.empty in
        ignore (Env.id e0 : int);
        env_ids_agree "bind order"
          (e0 |> Env.bind "y" (loc 2) |> Env.bind "z" (loc 3))
          (e0 |> Env.bind "z" (loc 3) |> Env.bind "y" (loc 2));
        env_ids_agree "shadowing bind"
          (e0 |> Env.bind "x" (loc 5) |> Env.bind "y" (loc 2))
          (e0 |> Env.bind "y" (loc 2) |> Env.bind "x" (loc 5));
        env_ids_agree "rebinding to the start"
          (e0 |> Env.bind "x" (loc 4) |> Env.bind "x" (loc 1))
          e0;
        check_bool "different locations are different envs" true
          (Env.id (Env.bind "y" (loc 2) e0) <> Env.id (Env.bind "y" (loc 3) e0));
        check_bool "different names are different envs" true
          (Env.id (Env.bind "y" (loc 2) e0) <> Env.id (Env.bind "z" (loc 2) e0)));
    case "counter maps reaching equal counts along different edges get one id"
      (fun () ->
        let c0 =
          Config.make ~procs:Config.PidMap.empty ~store:Store.empty
            ~counters:Config.CounterMap.empty ~error:None
        in
        let bump (pid, site) c = snd (Config.next_seq ~pid ~site c) in
        let counters c = (Config.digest c).Config.d_counters in
        let c1 = bump ([], 1) c0 in
        ignore (counters c1 : int);
        let p = [ (3, 0) ] in
        let agree what x y =
          check_int (what ^ ": one id") (counters x) (counters y);
          check_int (what ^ ": the pool's id")
            (counters (Config.forget_ids x))
            (counters x)
        in
        agree "bump order"
          (c1 |> bump (p, 2) |> bump ([], 2))
          (c1 |> bump ([], 2) |> bump (p, 2));
        agree "bumps of one key, two ways"
          (c1 |> bump ([], 1) |> bump (p, 2))
          (c1 |> bump (p, 2) |> bump ([], 1));
        check_bool "different pids are different maps" true
          (counters (bump (p, 2) c1) <> counters (bump ([], 2) c1));
        check_bool "a second bump is another map" true
          (counters (bump ([], 1) c1) <> counters c1));
  ]

let suite =
  digest_tests @ distribution_tests @ cache_tests @ hashcons_tests
  @ repr_audit_tests @ derived_tests
