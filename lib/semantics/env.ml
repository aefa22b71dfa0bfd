(* Environments map variable names to locations.  Blocks save and restore
   environments (see Proc.Ipop), giving lexical block scoping; cobegin
   branches inherit the spawning environment, which is how concurrent
   threads come to share variables.

   Environments are hash-consed lazily: [id] is the binding map's number
   in a process-wide pool, -1 until a digest first asks for it.  A step
   that does not bind passes the environment on physically, id and all,
   so a process's environment and the ones its stack saved are resolved
   once per binding, not once per digest.  A binding made on an
   environment whose id is known (or on one derived from such by a few
   binds) records the edge (Cobegin_hash.derive), so [id] resolves it
   through the edge memo without hashing the map. *)

module SM = Map.Make (String)
module H = Cobegin_hash

type t = {
  map : Value.loc SM.t;
  mutable id : int;
  edge : (string * Value.loc) H.edge;
}

let make map = { map; id = -1; edge = H.no_edge }
let empty = make SM.empty
let find x e = SM.find_opt x e.map

let bind x loc e =
  let map = SM.add x loc e.map in
  if map == e.map then e
  else { map; id = -1; edge = H.derive ~id:e.id e.edge (x, loc) }

let bindings e = SM.bindings e.map

let of_bindings bs =
  make (List.fold_left (fun m (x, l) -> SM.add x l m) SM.empty bs)

let forget_id e = make e.map

(* The pool is never cleared, like Intern's: an id, once handed out,
   stays valid for the life of the process. *)
module Pool = H.Pool (struct
  type t = Value.loc SM.t

  let equal = SM.equal (fun l1 l2 -> Value.compare_loc l1 l2 = 0)

  let hash m =
    SM.fold
      (fun x l h -> H.combine h (H.combine (H.hash_string x) (Value.hash_loc l)))
      m 0x3b1
end)

module Memo = H.Memo (struct
  type t = string * Value.loc

  let equal (x1, l1) (x2, l2) =
    String.equal x1 x2 && (l1 == l2 || Value.compare_loc l1 l2 = 0)

  let hash (x, l) = H.combine (H.hash_string x) (Value.hash_loc l)
end)

let pool = Pool.create 1024
let memo = Memo.create 1024
let m_interns = Cobegin_obs.Metrics.counter "intern.env_interns"
let m_edge_hits = Cobegin_obs.Metrics.counter "intern.env_edge_hits"

let count_hit () = Cobegin_obs.Metrics.incr m_edge_hits
let resolve e = Memo.resolve memo e.edge ~hit:count_hit (fun () -> Pool.intern pool e.map)

(* Two domains may fill one environment's id at once: both get the same
   id, so either write is right. *)
let id e =
  if e.id >= 0 then e.id
  else begin
    Cobegin_obs.Metrics.incr m_interns;
    let id = resolve e in
    e.id <- id;
    id
  end

let interned () = Array.mapi (fun id map -> { (make map) with id }) (Pool.by_id pool)

(* Locations reachable directly from an environment (its frame of named
   variables). *)
let locations e =
  SM.fold (fun _ l acc -> Value.LocSet.add l acc) e.map Value.LocSet.empty

let pp ppf e =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (x, l) -> Format.fprintf ppf "%s↦%a" x Value.pp_loc l))
    (bindings e)
