(* Process states.  A process is its fork path (pid), its current
   environment, its procedure string, a continuation stack of work
   items, and — under relaxed memory models — a FIFO store buffer of
   writes it has issued but not yet made globally visible.  Statements
   are items; [Ipop] restores the environment at block exit; [Iret]
   marks a pending procedure return; [Ijoin] waits for the children of a
   cobegin. *)

open Cobegin_lang

type item =
  | Istmt of Ast.stmt
  | Ipop of Env.t
  | Iret of { dest : Ast.lvalue option; saved_env : Env.t; site : int }
  | Ijoin of { cob : int; children : Value.pid list }

type t = {
  pid : Value.pid;
  env : Env.t;
  stack : item list;
  pstr : Pstring.t;
  buf : (Value.loc * Value.t) list;
      (* store buffer, oldest write first; always [] under SC *)
}

let make ?(buf = []) ~pid ~env ~stack ~pstr () =
  { pid; env; stack; pstr; buf }

(* Canonical forms of a process, over a form ['e] of its environments:
   statement items are identified by label; the procedure string and
   the store buffer (order-significant) are kept verbatim — both are
   pure data, so nothing is printed.  [repr] keeps each environment's
   sorted bindings: the deep ground truth, and what checkpoints save.
   [key] keeps its Env.id: the shallow identity the intern pool keys
   on, so hashing and comparing a key touches a few ints, not binding
   lists.  Equal bindings have equal ids, so the two agree. *)
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

let map_envs f r =
  {
    r with
    r_env = f r.r_env;
    r_stack =
      List.map
        (function
          | Rstmt l -> Rstmt l
          | Rpop e -> Rpop (f e)
          | Rret (site, dest, e) -> Rret (site, dest, f e)
          | Rjoin (cob, children) -> Rjoin (cob, children))
        r.r_stack;
  }

let item_repr = item_form Env.bindings
let repr = form Env.bindings
let key = form Env.id
let key_of_repr = map_envs (fun bs -> Env.id (Env.of_bindings bs))
let repr_of_key ~env = map_envs (fun id -> Env.bindings (env id))

let forget_ids p =
  {
    p with
    env = Env.forget_id p.env;
    stack =
      List.map
        (function
          | Ipop e -> Ipop (Env.forget_id e)
          | Iret r -> Iret { r with saved_env = Env.forget_id r.saved_env }
          | (Istmt _ | Ijoin _) as i -> i)
        p.stack;
  }

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
