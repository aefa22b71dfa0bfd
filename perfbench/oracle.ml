(* The verdict oracle: the committed expected answers (expected.json)
   plus the rules every answer must satisfy whatever its pinned counts.
   Every check runs outside the timed region; a mismatch is a failed
   op. *)

open Cobegin_core
module Sjson = Cobegin_serve.Sjson
module Space = Cobegin_explore.Space
module Step = Cobegin_semantics.Step

(* A verdict as named integer facts, so pinned entries, in-process
   reports and the daemon's report JSON compare the same way. *)
type facts = (string * int) list

let of_bool b = if b then 1 else 0

let counts ~complete ~configurations ~transitions ~finals ~deadlocks ~errors =
  [
    ("complete", of_bool complete);
    ("configurations", configurations);
    ("transitions", transitions);
    ("finals", finals);
    ("deadlocks", deadlocks);
    ("errors", errors);
    ("has_deadlocks", of_bool (deadlocks > 0));
    ("has_errors", of_bool (errors > 0));
  ]

let report_facts (r : Report.report) : facts =
  let s = r.Report.stats in
  ("exit_code", Report.report_exit_code r)
  :: ( "races",
       match r.Report.races with
       | None -> -1
       | Some rs -> Cobegin_analysis.Race.RaceSet.cardinal rs )
  :: counts
       ~complete:(Budget.is_complete r.Report.status)
       ~configurations:s.configurations ~transitions:s.transitions
       ~finals:s.finals ~deadlocks:s.deadlocks ~errors:s.errors

let space_facts (r : Space.result) : facts =
  let s = r.Space.stats in
  counts
    ~complete:(Budget.is_complete r.Space.status)
    ~configurations:s.configurations ~transitions:s.transitions
    ~finals:s.finals ~deadlocks:s.deadlocks ~errors:s.errors

(* The same facts read back from a report's JSON (the daemon's reply). *)
let json_facts report_json : facts =
  let ( |> ) o f = Option.bind o f in
  let get path =
    let rec go j = function
      | [] -> Some j
      | k :: rest -> Sjson.member k j |> fun j -> go j rest
    in
    match Sjson.parse report_json with
    | Error e -> failwith ("report JSON: " ^ e)
    | Ok j -> go j path
  in
  let int path =
    match get path |> Sjson.to_int with
    | Some i -> i
    | None -> failwith ("report JSON lacks " ^ String.concat "." path)
  in
  let stat k = int [ "stats"; k ] in
  let complete =
    get [ "status"; "complete" ] |> Sjson.to_bool = Some true
  in
  ("exit_code", int [ "exit_code" ])
  :: ( "races",
       match get [ "races" ] with
       | Some (Sjson.List l) -> List.length l
       | _ -> -1 )
  :: counts ~complete ~configurations:(stat "configurations")
       ~transitions:(stat "transitions") ~finals:(stat "finals")
       ~deadlocks:(stat "deadlocks") ~errors:(stat "errors")

(* --- expected answers --- *)

type t = { pinned : (string, facts) Hashtbl.t }

let load path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let pinned = Hashtbl.create 256 in
  (match Sjson.parse text with
  | Ok (Sjson.Obj sections) ->
      List.iter
        (fun (sname, section) ->
          match section with
          | Sjson.Obj entries ->
              List.iter
                (fun (key, v) ->
                  match v with
                  | Sjson.Obj fs ->
                      Hashtbl.replace pinned (sname ^ ":" ^ key)
                        (List.map
                           (fun (k, x) ->
                             match Sjson.to_int x with
                             | Some i -> (k, i)
                             | None -> failwith (path ^ ": non-integer " ^ k))
                           fs)
                  | _ -> failwith (path ^ ": entry " ^ key ^ " is not an object"))
                entries
          | _ -> ())
        sections
  | Ok _ -> failwith (path ^ ": not an object")
  | Error e -> failwith (path ^ ": " ^ e));
  { pinned }

(* [check ?only t key actual] compares the pinned facts of [key] (those
   named in [only], when given); [None] when they all agree. *)
let check ?only t key (actual : facts) =
  match Hashtbl.find_opt t.pinned key with
  | None -> Some (Printf.sprintf "%s: no expected answer" key)
  | Some expected ->
      let wanted k = match only with None -> true | Some o -> List.mem k o in
      List.find_map
        (fun (k, v) ->
          if not (wanted k) then None
          else
            match List.assoc_opt k actual with
            | Some a when a = v -> None
            | Some a -> Some (Printf.sprintf "%s: %s = %d, expected %d" key k a v)
            | None -> Some (Printf.sprintf "%s: no fact %s" key k))
        expected

(* --- rules that hold whatever the pins say --- *)

(* E19: mutual exclusion breaks exactly for the unfenced protocols under
   the store-buffer models. *)
let e19_rule ~program ~model (actual : facts) =
  let e19 = [ "peterson"; "dekker"; "peterson_fenced"; "dekker_fenced" ] in
  if not (List.mem program e19) then None
  else
    let expect = model <> Step.Sc && (program = "peterson" || program = "dekker") in
    if (List.assoc "errors" actual > 0) = expect then None
    else
      Some
        (Printf.sprintf "E19: %s under %s has %d errors" program
           (Step.model_name model) (List.assoc "errors" actual))

(* Generated programs terminate on every interleaving and cannot
   deadlock. *)
let generated_rule ~program (actual : facts) =
  if
    List.assoc "complete" actual = 1
    && List.assoc "deadlocks" actual = 0
    && List.assoc "errors" actual = 0
  then None
  else Some (program ^ ": generated program not clean")

let first_error checks = List.find_map (fun c -> c ()) checks

(* Names of pinned entries. *)
let pipeline_key program variant = "pipeline:" ^ program ^ "/" ^ variant
let explore_key case = "explore:" ^ case

