(* Process states.  A process is its fork path (pid), its current
   environment, its procedure string, a continuation stack of work
   items, and — under relaxed memory models — a FIFO store buffer of
   writes it has issued but not yet made globally visible.  Statements
   are items; [Ipop] restores the environment at block exit; [Iret]
   marks a pending procedure return; [Ijoin] waits for the children of a
   cobegin.

   A process carries its own interned id, filled lazily by [id], plus
   the ids of its parts: the pid, the procedure string and the buffer
   (each kept by [update] while that part is physically unchanged) and
   the ids of its stack's suffixes.  The process pool keys on those
   ints alone. *)

open Cobegin_lang
module H = Cobegin_hash

type item =
  | Istmt of Ast.stmt
  | Ipop of Env.t
  | Iret of { dest : Ast.lvalue option; saved_env : Env.t; site : int }
  | Ijoin of { cob : int; children : Value.pid list }

(* [sids] are the interned ids of [sbase]'s suffixes, top first: always
   a consistent pair, published together so a concurrent reader never
   sees one without the other.  A derived process inherits its parent's
   pair, so the suffix the step left physically in place keeps its ids
   and only the pushed items are interned. *)
type scache = { sbase : item list; sids : int list }

type t = {
  pid : Value.pid;
  env : Env.t;
  stack : item list;
  pstr : Pstring.t;
  buf : (Value.loc * Value.t) list;
      (* store buffer, oldest write first; always [] under SC *)
  mutable id : int;
  mutable pid_id : int;
  mutable pstr_id : int;
  mutable buf_id : int;
  mutable scache : scache;
}

let no_scache = { sbase = []; sids = [] }

let make ?(buf = []) ~pid ~env ~stack ~pstr () =
  {
    pid;
    env;
    stack;
    pstr;
    buf;
    id = -1;
    pid_id = -1;
    pstr_id = -1;
    buf_id = -1;
    scache = no_scache;
  }

let update ?(env : Env.t option) ?stack ?pstr ?buf p =
  let env = match env with Some e -> e | None -> p.env in
  let stack = match stack with Some s -> s | None -> p.stack in
  let pstr = match pstr with Some s -> s | None -> p.pstr in
  let buf = match buf with Some b -> b | None -> p.buf in
  if env == p.env && stack == p.stack && pstr == p.pstr && buf == p.buf then p
  else
    {
      p with
      env;
      stack;
      pstr;
      buf;
      id = -1;
      pstr_id = (if pstr == p.pstr then p.pstr_id else -1);
      buf_id = (if buf == p.buf then p.buf_id else -1);
    }

(* Canonical forms of a process, over a form ['e] of its environments:
   statement items are identified by label; the procedure string and
   the store buffer (order-significant) are kept verbatim — both are
   pure data, so nothing is printed.  [repr] keeps each environment's
   sorted bindings: the deep ground truth, and what checkpoints save.
   [key] keeps its Env.id.  Equal bindings have equal ids, so the two
   agree, and [id] agrees with both. *)
type 'e item_form =
  | Rstmt of int
  | Rpop of 'e
  | Rret of int * Ast.lvalue option * 'e
  | Rjoin of int * Value.pid list

type 'e form = {
  r_pid : Value.pid;
  r_env : 'e;
  r_stack : 'e item_form list;
  r_pstr : Pstring.t;
  r_buf : (Value.loc * Value.t) list;
}

type item_repr = (string * Value.loc) list item_form
type repr = (string * Value.loc) list form
type key = int form

let item_form env = function
  | Istmt s -> Rstmt s.Ast.label
  | Ipop e -> Rpop (env e)
  | Iret { dest; saved_env; site } -> Rret (site, dest, env saved_env)
  | Ijoin { cob; children } -> Rjoin (cob, children)

let form env p =
  {
    r_pid = p.pid;
    r_env = env p.env;
    r_stack = List.map (item_form env) p.stack;
    r_pstr = p.pstr;
    r_buf = p.buf;
  }

let item_repr = item_form Env.bindings
let repr = form Env.bindings
let key = form Env.id

(* --- the pools behind [id] ---

   Parts a step rarely changes (pids, procedure strings, buffers, call
   destinations, join children) are interned by value.  A stack is
   interned one cell at a time: a cell's key is its item's ints plus
   the id of the stack below it.  A process is then five ints.  Every
   pool is process-wide and never cleared. *)

module Pid_pool = H.Pool (struct
  type t = Value.pid

  let equal a b = Value.compare_pid a b = 0
  let hash = Value.hash_pid
end)

module Children_pool = H.Pool (struct
  type t = Value.pid list

  let equal = List.equal (fun a b -> Value.compare_pid a b = 0)
  let hash = H.hash_list Value.hash_pid
end)

let hash_frame = function
  | Pstring.Fcall { proc; site; inst } ->
      H.combine 0x31 (H.combine (H.hash_string proc) (H.combine site inst))
  | Pstring.Fbranch { cob; idx; inst } ->
      H.combine 0x32 (H.combine cob (H.combine idx inst))

module Pstr_pool = H.Pool (struct
  type t = Pstring.t

  let equal = Pstring.equal
  let hash = H.hash_list hash_frame
end)

module Buf_pool = H.Pool (struct
  type t = (Value.loc * Value.t) list

  let equal =
    List.equal (fun (l1, v1) (l2, v2) ->
        Value.compare_loc l1 l2 = 0 && Value.equal_value v1 v2)

  let hash =
    H.hash_list (fun (l, v) -> H.combine (Value.hash_loc l) (Value.hash_value v))
end)

(* Destinations are small ASTs met only when a call is pushed. *)
module Dest_pool = H.Pool (struct
  type t = Ast.lvalue option

  let equal = ( = )
  let hash = Hashtbl.hash
end)

(* Stacks and processes key on five ints (Cobegin_hash.Ipool).  A stack
   cell is [tag] (the item kind), three ints (label; env id; site,
   caller env id and destination id; cob and children id) and the id of
   the stack below (-1: empty).  A process is the ids of its pid, env,
   stack, procedure string and buffer. *)
let pids = Pid_pool.create 64
let children = Children_pool.create 16
let pstrs = Pstr_pool.create 256
let bufs = Buf_pool.create 256
let dests = Dest_pool.create 16
let cells = H.Ipool.create 256
let procs = H.Ipool.create 256

let cell_id env_id ~rest = function
  | Rstmt label -> H.Ipool.intern cells 0 label 0 0 rest
  | Rpop e -> H.Ipool.intern cells 1 (env_id e) 0 0 rest
  | Rret (site, dest, e) ->
      H.Ipool.intern cells 2 site (env_id e) (Dest_pool.intern dests dest) rest
  | Rjoin (cob, ch) ->
      H.Ipool.intern cells 3 cob (Children_pool.intern children ch) 0 rest

let top = function [] -> -1 | s :: _ -> s

let rec drop k l = if k <= 0 then l else drop (k - 1) (List.tl l)

let push_cell item below =
  cell_id Env.id ~rest:(top below) (item_form Fun.id item) :: below

(* The suffix ids of [p.stack]: the longest suffix physically shared
   with the cached base keeps its ids, and only the items above it are
   interned, bottom first.  A pop, and a pop followed by one push, are
   recognized without measuring the lists. *)
let suffix_ids stack sbase sids =
  match (sbase, sids, stack) with
  | _ :: below, _ :: below_ids, _ when stack == below -> below_ids
  | _ :: below, _ :: below_ids, item :: rest when rest == below ->
      push_cell item below_ids
  | _ ->
      let n = List.length stack and m = List.length sbase in
      let k = min n m in
      let rec common s b ids =
        if s == b then (s, ids)
        else
          match (s, b, ids) with
          | _ :: s', _ :: b', _ :: ids' -> common s' b' ids'
          | _ -> ([], [])
      in
      let shared, ids =
        common (drop (n - k) stack) (drop (m - k) sbase) (drop (m - k) sids)
      in
      let rec push s =
        if s == shared then ids
        else match s with item :: rest -> push_cell item (push rest) | [] -> ids
      in
      push stack

let stack_id p =
  let sc = p.scache in
  if sc.sbase == p.stack then top sc.sids
  else begin
    let sids = suffix_ids p.stack sc.sbase sc.sids in
    p.scache <- { sbase = p.stack; sids };
    top sids
  end

(* Two domains may fill one process's ids at once: each part's id is
   determined by its value, so either write is right. *)
let id p =
  if p.id >= 0 then p.id
  else begin
    let k_pid =
      if p.pid_id >= 0 then p.pid_id
      else
        let i = Pid_pool.intern pids p.pid in
        p.pid_id <- i;
        i
    in
    let k_pstr =
      if p.pstr_id >= 0 then p.pstr_id
      else
        let i = Pstr_pool.intern pstrs p.pstr in
        p.pstr_id <- i;
        i
    in
    let k_buf =
      if p.buf_id >= 0 then p.buf_id
      else
        let i = Buf_pool.intern bufs p.buf in
        p.buf_id <- i;
        i
    in
    let k_stack = stack_id p in
    let k_env = Env.id p.env in
    let id = H.Ipool.intern procs k_pid k_env k_stack k_pstr k_buf in
    p.id <- id;
    id
  end

let distinct () = H.Ipool.size procs

(* The id a process with representation [r] gets. *)
let id_of_repr (r : repr) =
  let env_id bs = Env.id (Env.of_bindings bs) in
  H.Ipool.intern procs
    (Pid_pool.intern pids r.r_pid)
    (env_id r.r_env)
    (List.fold_right (fun item rest -> cell_id env_id ~rest item) r.r_stack (-1))
    (Pstr_pool.intern pstrs r.r_pstr)
    (Buf_pool.intern bufs r.r_buf)

(* Every pooled process back in its deep form, indexed by id.  The other
   listings are taken after the process listing, so they cover every id
   a listed process holds. *)
let interned () =
  let keys = H.Ipool.by_id procs in
  let pids = Pid_pool.by_id pids
  and pstrs = Pstr_pool.by_id pstrs
  and bufs = Buf_pool.by_id bufs
  and dests = Dest_pool.by_id dests
  and children = Children_pool.by_id children
  and cells = H.Ipool.by_id cells
  and envs = Env.interned () in
  let env i = Env.bindings envs.(i) in
  let rec stack i =
    if i < 0 then []
    else
      let x = cells.(i) in
      let item =
        match x.(0) with
        | 0 -> Rstmt x.(1)
        | 1 -> Rpop (env x.(1))
        | 2 -> Rret (x.(1), dests.(x.(3)), env x.(2))
        | _ -> Rjoin (x.(1), children.(x.(2)))
      in
      item :: stack x.(4)
  in
  Array.map
    (fun k ->
      {
        r_pid = pids.(k.(0));
        r_env = env k.(1);
        r_stack = stack k.(2);
        r_pstr = pstrs.(k.(3));
        r_buf = bufs.(k.(4));
      })
    keys

let forget_ids p =
  make ~buf:p.buf ~pid:p.pid ~env:(Env.forget_id p.env)
    ~stack:
      (List.map
         (function
           | Ipop e -> Ipop (Env.forget_id e)
           | Iret r -> Iret { r with saved_env = Env.forget_id r.saved_env }
           | (Istmt _ | Ijoin _) as i -> i)
         p.stack)
    ~pstr:p.pstr ()

(* The statement the process will execute next, if its top item is one. *)
let next_stmt p =
  match p.stack with Istmt s :: _ -> Some s | _ -> None

let is_terminated p = p.stack = [] && p.buf = []

let pp_item ppf = function
  | Istmt s -> Format.fprintf ppf "stmt:%d" s.Ast.label
  | Ipop _ -> Format.pp_print_string ppf "pop"
  | Iret _ -> Format.pp_print_string ppf "ret"
  | Ijoin { cob; _ } -> Format.fprintf ppf "join:%d" cob

let pp ppf p =
  Format.fprintf ppf "@[<h>[%a] %a | stack: %a%a@]" Value.pp_pid p.pid
    Pstring.pp p.pstr
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_item)
    p.stack
    (fun ppf -> function
      | [] -> ()
      | buf -> Format.fprintf ppf " | buf: %d pending" (List.length buf))
    p.buf
