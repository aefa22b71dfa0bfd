(* The command-line front end, driven as a process: every subcommand's
   manual must render cleanly, and the examples it shows must work when
   copied. *)

open Helpers

let exe = "../bin/coanalyze.exe"

let subcommands =
  [ "analyze"; "explore"; "races"; "interfere"; "parallel"; "examples";
    "serve"; "client" ]

(* Run the CLI with [args]; stdout and stderr, whole. *)
let run args =
  let argv = Array.of_list (exe :: args) in
  let out, inp, err =
    Unix.open_process_args_full exe argv (Unix.environment ())
  in
  close_out inp;
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  ignore (Unix.close_process_full (out, inp, err) : Unix.process_status);
  (stdout, stderr)

(* The whitespace-separated word of [text] starting with [prefix],
   without trailing punctuation. *)
let word_with_prefix prefix text =
  String.split_on_char '\n' text
  |> List.concat_map (String.split_on_char ' ')
  |> List.find_opt (String.starts_with ~prefix)
  |> Option.map (fun w ->
         let n = String.length w in
         if n > 0 && (w.[n - 1] = '.' || w.[n - 1] = ',') then
           String.sub w 0 (n - 1)
         else w)

let suite =
  [
    case "every subcommand's --help renders without an error" (fun () ->
        List.iter
          (fun sub ->
            let out, err = run [ sub; "--help=plain" ] in
            check_string (sub ^ ": nothing on stderr") "" err;
            check_bool (sub ^ ": a manual on stdout") true
              (String.length out > 0))
          subcommands);
    case "the --chaos example in the manual parses as a fault plan" (fun () ->
        let with_chaos =
          List.filter
            (fun sub ->
              let out, _ = run [ sub; "--help=plain" ] in
              match word_with_prefix "crash@" out with
              | None -> false
              | Some spec -> (
                  match Fault.parse spec with
                  | Ok _ -> true
                  | Error e ->
                      Alcotest.failf "%s: example %S does not parse: %s" sub
                        spec e))
            subcommands
        in
        check_bool "some subcommand documents --chaos" true
          (List.mem "analyze" with_chaos));
  ]
