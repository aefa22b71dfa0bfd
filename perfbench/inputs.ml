(* The inputs of each workload, made from the seed alone. *)

open Cobegin_core
module Step = Cobegin_semantics.Step
module Space = Cobegin_explore.Space
module Corpus = Cobegin_models.Corpus
module Generator = Cobegin_models.Generator
module Philosophers = Cobegin_models.Philosophers

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Generated programs are kept to a band of state-space sizes: a seed
   that drew a program with thousands of configurations would move a
   whole run by itself, and the spread between seeds would measure the
   generator, not the analyzer.  A fixed pool of candidates is drawn and
   explored whatever the seed, so set-up does the same work; the few
   seeds whose pool holds too few programs in the band draw on, one
   candidate at a time, until it does. *)
let gen_cfg = { Generator.default_cfg with stmts_per_branch = 3 }
let gen_band = (60, 120)
let candidates_per_program = 8
let max_extra_draws = 1000

let generated rng ~count =
  let lo, hi = gen_band in
  let in_band (_, src) =
    let r =
      Space.full ~max_configs:(hi + 1) (Step.make_ctx (Pipeline.load_source src))
    in
    Budget.is_complete r.Space.status
    && r.Space.stats.configurations >= lo
    && r.Space.stats.configurations <= hi
  in
  let draw _ =
    let seed = Random.State.bits rng in
    (Printf.sprintf "gen-%d" seed, Generator.source ~cfg:gen_cfg ~seed ())
  in
  let rec fill kept extra =
    if List.length kept >= count then List.filteri (fun i _ -> i < count) kept
    else if extra = max_extra_draws then
      failwith "generator: too few candidates in the size band"
    else
      let c = draw () in
      fill (if in_band c then kept @ [ c ] else kept) (extra + 1)
  in
  fill (List.filter in_band (List.init (count * candidates_per_program) draw)) 0

let is_generated name = String.length name > 4 && String.sub name 0 4 = "gen-"

(* --- analyze-corpus --- *)

(* What [coanalyze analyze --races --lint --interfere --json] runs. *)
let corpus_options =
  {
    Pipeline.default_options with
    Pipeline.find_races = true;
    lint = true;
    interfere = true;
  }

let analyze_inputs rng = shuffle rng (Corpus.all @ generated rng ~count:6)

(* --- explore-statespace --- *)

type engine = Full | Stubborn | Sleep

let engine_name = function
  | Full -> "full"
  | Stubborn -> "stubborn"
  | Sleep -> "sleep"

type case = {
  case : string;
  program : string;  (** corpus model name *)
  model : Step.model;
  prog : Cobegin_lang.Ast.program;
}

let corpus_source name =
  match Corpus.find name with
  | Some s -> s
  | None -> failwith ("no corpus model " ^ name)

let explore_cases () =
  List.map
    (fun (program, src, model) ->
      {
        case = program ^ "/" ^ Step.model_name model;
        program;
        model;
        prog = Pipeline.load_source src;
      })
    [
      ("phil3r2", Philosophers.program ~rounds:2 3, Step.Sc);
      ("phil4", Philosophers.program 4, Step.Sc);
      ("peterson", corpus_source "peterson", Step.Tso);
      ("peterson", corpus_source "peterson", Step.Pso);
      ("dekker", corpus_source "dekker", Step.Tso);
      ("dekker", corpus_source "dekker", Step.Pso);
    ]

let explore_ops rng =
  let cases = explore_cases () in
  shuffle rng
    (List.concat_map
       (fun c -> List.map (fun e -> (c, e)) [ Full; Stubborn; Sleep ])
       cases)

(* --- serve-mixed --- *)

(* Request option variants, as the client sends them.  Coarsening is
   not in the mix: [Coarsen] builds its atomic blocks with [Ast.mk],
   which draws statement labels from a process-global counter, so the
   daemon derives a new run key for every coarsen request (it never
   hits), and two workers coarsening at once can give one key two
   different reports.  [coarsen_probe] measures that defect instead. *)
let variants =
  [
    ("default", None);
    ("races", Some {|{"races":true}|});
    ("stubborn", Some {|{"engine":"stubborn"}|});
    ("abstract", Some {|{"engine":"abstract"}|});
    ("lint", Some {|{"lint":true}|});
  ]

let coarsen_probe = Some {|{"lint":true,"coarsen":true}|}

(* What the daemon decodes a variant's options to. *)
let variant_options options_json =
  let json =
    match options_json with
    | None -> Cobegin_serve.Sjson.Null
    | Some o -> Result.get_ok (Cobegin_serve.Sjson.parse o)
  in
  Result.get_ok
    (Cobegin_serve.Serve.options_of_json ~defaults:Pipeline.default_options
       json)

type entry = {
  program : string;  (** corpus name or gen-SEED *)
  variant : string;
  source : string;
  line : string;  (** the request line *)
  options : Pipeline.options;  (** what the daemon decodes the line to *)
}

(* The LRU holds fewer entries than the catalog, so the Zipf tail keeps
   missing and evicting. *)
let serve_capacity = 40
let zipf_s = 1.0
let stream_length = 200_000

(* Requests are drawn in blocks holding every entry its Zipf share of
   times (at least once), each block in a seeded order: a seed changes
   the order of requests, not how often a costly entry misses, which an
   independent draw would leave to chance. *)
let block = 2000

(* The popularity order is fixed (its own constant seed), so a seed
   changes which requests are drawn, not which programs are hot: a
   heavy model ranked first would make a run hit-only. *)
let rank_seed = 0x5eed

let catalog rng =
  let programs = Corpus.all @ generated rng ~count:4 in
  let entries =
    List.concat_map
      (fun (program, source) ->
        List.map
          (fun (variant, options_json) ->
            {
              program;
              variant;
              source;
              line = Cobegin_serve.Serve.analyze_line ?options_json source;
              options = variant_options options_json;
            })
          variants)
      programs
  in
  Array.of_list (shuffle (Random.State.make [| rank_seed |]) entries)

(* Zipf(s) draws over catalog ranks 0..n-1. *)
let stream rng n =
  let w = List.init n (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
  let total = List.fold_left ( +. ) 0. w in
  let one_block =
    List.concat
      (List.mapi
         (fun r x ->
           List.init
             (max 1 (int_of_float (Float.round (float_of_int block *. x /. total))))
             (fun _ -> r))
         w)
  in
  let blocks = (stream_length / List.length one_block) + 1 in
  Array.of_list (List.concat (List.init blocks (fun _ -> shuffle rng one_block)))
