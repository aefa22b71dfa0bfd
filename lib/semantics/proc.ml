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

let item_equal i1 i2 =
  match (i1, i2) with
  | Istmt s1, Istmt s2 -> s1.Ast.label = s2.Ast.label
  | Ipop e1, Ipop e2 -> Env.equal e1 e2
  | Iret r1, Iret r2 ->
      r1.dest = r2.dest && r1.site = r2.site
      && Env.equal r1.saved_env r2.saved_env
  | Ijoin j1, Ijoin j2 ->
      j1.cob = j2.cob
      && List.equal (fun a b -> Value.compare_pid a b = 0) j1.children j2.children
  | (Istmt _ | Ipop _ | Iret _ | Ijoin _), _ -> false

let buf_entry_equal (l1, v1) (l2, v2) =
  Value.compare_loc l1 l2 = 0 && Value.compare_value v1 v2 = 0

let equal p1 p2 =
  Value.compare_pid p1.pid p2.pid = 0
  && Env.equal p1.env p2.env
  && List.equal item_equal p1.stack p2.stack
  && Pstring.equal p1.pstr p2.pstr
  && List.equal buf_entry_equal p1.buf p2.buf

(* A canonical, hashable digest of a process: statement items are
   identified by label; environments by their sorted bindings; the
   procedure string and the store buffer (order-significant) are kept
   verbatim — both are pure data, so nothing is printed. *)
type item_repr =
  | Rstmt of int
  | Rpop of (string * Value.loc) list
  | Rret of int * Ast.lvalue option * (string * Value.loc) list
  | Rjoin of int * Value.pid list

let item_repr = function
  | Istmt s -> Rstmt s.Ast.label
  | Ipop e -> Rpop (Env.bindings e)
  | Iret { dest; saved_env; site } -> Rret (site, dest, Env.bindings saved_env)
  | Ijoin { cob; children } -> Rjoin (cob, children)

type repr = {
  r_pid : Value.pid;
  r_env : (string * Value.loc) list;
  r_stack : item_repr list;
  r_pstr : Pstring.t;
  r_buf : (Value.loc * Value.t) list;
}

let repr p =
  {
    r_pid = p.pid;
    r_env = Env.bindings p.env;
    r_stack = List.map item_repr p.stack;
    r_pstr = p.pstr;
    r_buf = p.buf;
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
