(* Hash-consed interning of configuration components (see intern.mli).

   Processes, stores and environments carry their own ids and pools
   (Proc.id, Store.id, Env.id).  This module holds the two components a
   configuration keeps as plain data — the allocation-counter map and
   the error marker — and the snapshot/restore of every pool. *)

module H = Cobegin_hash

module CounterMap = Map.Make (struct
  type t = Value.pid * int (* (pid, site) *)

  let compare (p1, s1) (p2, s2) =
    let c = Value.compare_pid p1 p2 in
    if c <> 0 then c else Int.compare s1 s2
end)

let hash_counter_key (pid, site) = H.combine (Value.hash_pid pid) site

module Counter_pool = H.Pool (struct
  type t = int CounterMap.t

  let equal = CounterMap.equal Int.equal

  let hash m =
    CounterMap.fold (fun k n h -> H.combine h (H.combine (hash_counter_key k) n)) m 0x5c
end)

(* A counter map derived by bumps of (pid, site) keys. *)
module Counter_memo = H.Memo (struct
  type t = Value.pid * int

  let equal (p1, s1) (p2, s2) = s1 = s2 && Value.compare_pid p1 p2 = 0
  let hash = hash_counter_key
end)

module String_pool = H.Pool (struct
  type t = string

  let equal = String.equal
  let hash = H.hash_string
end)

(* Each pool and memo serializes its own lookups (Cobegin_hash), so the
   interner needs no lock of its own. *)
type state = {
  counters : Counter_pool.t;
  counter_edges : Counter_memo.t;
  errors : String_pool.t;
}

(* Eager, not lazy: Lazy.force from several domains at once raises
   [Lazy.Undefined] on the losers, and the parallel engine digests from
   every worker. *)
let the_global =
  {
    counters = Counter_pool.create 64;
    counter_edges = Counter_memo.create 64;
    errors = String_pool.create 16;
  }

let global () = the_global

let counters_id st ?(edge = H.no_edge) m =
  Counter_memo.resolve st.counter_edges edge ~hit:ignore (fun () ->
      Counter_pool.intern st.counters m)

let error_id st = function
  | None -> -1
  | Some msg -> String_pool.intern st.errors msg

let distinct_procs _ = Proc.distinct ()
let distinct_stores _ = Store.distinct ()

(* --- snapshot / restore (checkpointing) ---

   A snapshot is the deep canonical representations of every pool,
   indexed by id: processes as Proc.repr, stores as sorted cells,
   because environment ids number this process's environment pool only.
   Restoring re-interns them into the (possibly already populated) pools
   and returns the old-id → new-id maps, so digests serialized
   alongside a snapshot can be rebuilt against the restoring process's
   pools.  Restoring into fresh pools is the identity remap (reprs are
   re-interned in saved-id order); restoring into warm ones still
   yields valid, stable ids — only the numbers change, and the remap
   records how. *)

type snapshot = {
  sn_procs : Proc.repr array;
  sn_stores : (Value.loc * Value.t) list array;
  sn_counters : ((Value.pid * int) * int) list array;
  sn_errors : string array;
}

let snapshot st =
  {
    sn_procs = Proc.interned ();
    sn_stores = Store.interned ();
    sn_counters =
      Array.map CounterMap.bindings (Counter_pool.by_id st.counters);
    sn_errors = String_pool.by_id st.errors;
  }

type remap = {
  rm_procs : int array;
  rm_stores : int array;
  rm_counters : int array;
  rm_errors : int array;
}

(* Interning is idempotent, so components already in the pools just
   resolve to their existing ids; saved-id order makes a fresh pool's
   remap the identity. *)
let restore st snap =
  let store_of cells =
    List.fold_left (fun s (l, v) -> Store.set l v s) Store.empty cells
  in
  {
    rm_procs = Array.map Proc.id_of_repr snap.sn_procs;
    rm_stores = Array.map (fun cells -> Store.id (store_of cells)) snap.sn_stores;
    rm_counters =
      Array.map
        (fun bs -> Counter_pool.intern st.counters (CounterMap.of_seq (List.to_seq bs)))
        snap.sn_counters;
    rm_errors = Array.map (String_pool.intern st.errors) snap.sn_errors;
  }
