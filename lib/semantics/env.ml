(* Environments map variable names to locations.  Blocks save and restore
   environments (see Proc.Ipop), giving lexical block scoping; cobegin
   branches inherit the spawning environment, which is how concurrent
   threads come to share variables.

   Environments are hash-consed lazily: [id] is the binding map's number
   in a process-wide pool, -1 until a digest first asks for it.  A step
   that does not bind passes the environment on physically, id and all,
   so a process's environment and the ones its stack saved are hashed
   once per binding, not once per digest. *)

module SM = Map.Make (String)
module H = Cobegin_hash

type t = { map : Value.loc SM.t; mutable id : int }

let make map = { map; id = -1 }
let empty = make SM.empty
let find x e = SM.find_opt x e.map

let bind x loc e =
  let map = SM.add x loc e.map in
  if map == e.map then e else make map

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

let pool = Pool.create 1024
let m_interns = Cobegin_obs.Metrics.counter "intern.env_interns"

(* Two domains may fill one environment's id at once: both get the same
   id from the pool, so either write is right (as with Config.ids). *)
let id e =
  if e.id >= 0 then e.id
  else begin
    Cobegin_obs.Metrics.incr m_interns;
    let id = Pool.intern pool e.map in
    e.id <- id;
    id
  end

let interned () =
  let entries = Pool.entries pool in
  let a = Array.make (List.length entries) empty in
  List.iter (fun (map, id) -> a.(id) <- { map; id }) entries;
  a

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
