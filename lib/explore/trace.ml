(* Witness traces: breadth-first search for a configuration satisfying a
   predicate, keeping parent links so the schedule (sequence of pids) that
   reaches it can be reported.  Used by the race reporter and by tests
   that need a concrete interleaving exhibiting an outcome. *)

open Cobegin_semantics

type witness = {
  schedule : Value.pid list; (* pids fired, in order *)
  target : Config.t;
  explored : int;
}

(* The kernel over processes (not flushes), with each configuration's
   parent link as its visited value; the predicate observes pops, and
   the drain of a budget-stopped search still tests the queued
   frontier. *)
let search ?(max_configs = 200_000) ctx ~(pred : Config.t -> bool) :
    witness option =
  let found = ref None in
  let on_pop c _ =
    if pred c then begin
      found := Some c;
      raise Exit
    end
  in
  let st = Space.Kernel.start (Step.init ctx) None in
  (try
     Space.Kernel.run ~budget:(Budget.create ~max_configs ())
       {
         site = "trace.pop";
         name = "trace";
         counters = None;
         shape = Space.shape ctx;
         expand =
           (fun c _ _ ->
             List.map (fun p -> (c, p)) (Step.enabled_processes ctx c));
         fire = (fun c (_, p) -> Step.fire ctx c p);
         reached_with = (fun (c, p) -> Some (c, p.Proc.pid));
         revisit = (fun ~recorded:_ _ -> None);
         keep_log = false;
         on_pop;
         on_fire = ignore;
         on_boundary = ignore;
       }
       st
   with Exit -> ());
  let rec schedule c acc =
    match Config.Digest_tbl.find_opt st.visited (Config.digest c) with
    | Some (Some (parent, pid)) -> schedule parent (pid :: acc)
    | Some None | None -> acc
  in
  Option.map
    (fun c ->
      {
        schedule = schedule c [];
        target = c;
        explored = Config.Digest_tbl.length st.visited;
      })
    !found

(* Convenience: a schedule reaching an error configuration. *)
let error_witness ?max_configs ctx =
  search ?max_configs ctx ~pred:Config.is_error

(* A schedule reaching a final configuration whose store satisfies [pred]. *)
let final_witness ?max_configs ctx ~pred =
  search ?max_configs ctx ~pred:(fun c ->
      Config.all_terminated c && pred c.Config.store)

let pp_witness ppf w =
  Format.fprintf ppf "@[<v>schedule (%d steps, %d configs explored):@ %a@]"
    (List.length w.schedule) w.explored
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " → ")
       Value.pp_pid)
    w.schedule
