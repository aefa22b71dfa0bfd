(* Hash-consed interning of configuration components (see intern.mli).

   Layout: one Pool per component kind under a full-width structural
   hash.  Processes key on the shallow Proc.key (environments by their
   Env.id), stores on the store itself (its cached Store.hash and
   Store.equal), counters on their sorted bindings.  A configuration
   carries the ids of its already-interned components (Config), so only
   the components a step changed reach this module. *)

module H = Cobegin_hash

module CounterMap = Map.Make (struct
  type t = Value.pid * int (* (pid, site) *)

  let compare (p1, s1) (p2, s2) =
    let c = Value.compare_pid p1 p2 in
    if c <> 0 then c else Int.compare s1 s2
end)

(* --- full-width hashes over the pool keys --- *)

let hash_pstring_frame = function
  | Pstring.Fcall { proc; site; inst } ->
      H.combine 0x31 (H.combine (H.hash_string proc) (H.combine site inst))
  | Pstring.Fbranch { cob; idx; inst } ->
      H.combine 0x32 (H.combine cob (H.combine idx inst))

(* A pending return's destination is not hashed: within one program the
   call site determines it, and equality still compares it. *)
let hash_item_key = function
  | Proc.Rstmt label -> H.combine 0x21 label
  | Proc.Rpop env -> H.combine 0x22 env
  | Proc.Rret (site, _, env) -> H.combine 0x23 (H.combine site env)
  | Proc.Rjoin (cob, children) ->
      H.combine 0x24 (H.combine cob (H.hash_list Value.hash_pid children))

let hash_buf entries =
  H.hash_list
    (fun (l, v) -> H.combine (Value.hash_loc l) (Value.hash_value v))
    entries

let hash_proc_key (k : Proc.key) =
  H.combine
    (Value.hash_pid k.Proc.r_pid)
    (H.combine k.Proc.r_env
       (H.combine
          (H.hash_list hash_item_key k.Proc.r_stack)
          (H.combine
             (H.hash_list hash_pstring_frame k.Proc.r_pstr)
             (hash_buf k.Proc.r_buf))))

let hash_counter_bindings bs =
  H.hash_list
    (fun ((pid, site), n) -> H.combine (Value.hash_pid pid) (H.combine site n))
    bs

(* --- pools --- *)

module Proc_pool = H.Pool (struct
  type t = Proc.key

  let equal = ( = )
  let hash = hash_proc_key
end)

module Store_pool = H.Pool (struct
  type t = Store.t

  let equal = Store.equal
  let hash = Store.hash
end)

module Counter_pool = H.Pool (struct
  type t = ((Value.pid * int) * int) list

  let equal = ( = )
  let hash = hash_counter_bindings
end)

module String_pool = H.Pool (struct
  type t = string

  let equal = String.equal
  let hash = H.hash_string
end)

(* Each pool serializes its own id assignment (Cobegin_hash.Pool), so
   the interner needs no lock of its own. *)
type state = {
  procs : Proc_pool.t;
  stores : Store_pool.t;
  counters : Counter_pool.t;
  errors : String_pool.t;
}

let create () =
  {
    procs = Proc_pool.create 1024;
    stores = Store_pool.create 1024;
    counters = Counter_pool.create 64;
    errors = String_pool.create 16;
  }

(* Eager, not lazy: Lazy.force from several domains at once raises
   [Lazy.Undefined] on the losers, and the parallel engine digests from
   every worker. *)
let the_global = create ()
let global () = the_global

let proc_id st p = Proc_pool.intern st.procs (Proc.key p)
let store_id st s = Store_pool.intern st.stores s
let counters_id st m = Counter_pool.intern st.counters (CounterMap.bindings m)

let error_id st = function
  | None -> -1
  | Some msg -> String_pool.intern st.errors msg

let distinct_procs st = Proc_pool.size st.procs
let distinct_stores st = Store_pool.size st.stores

(* --- snapshot / restore (checkpointing) ---

   A snapshot is the deep canonical representations of every pool,
   indexed by id: process keys and stores are turned back into
   Proc.repr and sorted cells, because environment ids number this
   process's environment pool only.  Restoring re-interns them into a
   (possibly already populated) interner and returns the old-id →
   new-id maps, so digests serialized alongside a snapshot can be
   rebuilt against the restoring process's pools.  Restoring into a fresh interner is the
   identity remap (reprs are re-interned in saved-id order); restoring
   into a warm one still yields valid, stable ids — only the numbers
   change, and the remap records how. *)

type snapshot = {
  sn_procs : Proc.repr array;
  sn_stores : (Value.loc * Value.t) list array;
  sn_counters : ((Value.pid * int) * int) list array;
  sn_errors : string array;
}

let pool_array (type k) (entries : (k * int) list) : k array =
  match entries with
  | [] -> [||]
  | (k0, _) :: _ ->
      let a = Array.make (List.length entries) k0 in
      List.iter (fun (k, id) -> a.(id) <- k) entries;
      a

(* The environments are listed after the process keys, so every
   environment id a listed key holds is covered. *)
let snapshot st =
  let procs = pool_array (Proc_pool.entries st.procs) in
  let envs = Env.interned () in
  {
    sn_procs = Array.map (Proc.repr_of_key ~env:(Array.get envs)) procs;
    sn_stores = Array.map Store.repr (pool_array (Store_pool.entries st.stores));
    sn_counters = pool_array (Counter_pool.entries st.counters);
    sn_errors = pool_array (String_pool.entries st.errors);
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
    rm_procs =
      Array.map
        (fun r -> Proc_pool.intern st.procs (Proc.key_of_repr r))
        snap.sn_procs;
    rm_stores =
      Array.map
        (fun cells -> Store_pool.intern st.stores (store_of cells))
        snap.sn_stores;
    rm_counters = Array.map (Counter_pool.intern st.counters) snap.sn_counters;
    rm_errors = Array.map (String_pool.intern st.errors) snap.sn_errors;
  }
