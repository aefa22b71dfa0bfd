(* Minimal JSON emission helpers shared by the telemetry sinks and the
   report: a Buffer-based escaper and an exact number renderer — no
   external dependency. *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let string s =
  let buf = Buffer.create (String.length s + 2) in
  escape_into buf s;
  Buffer.contents buf

(* Floats are rendered exactly: an integral value as an integer (a
   512 MiB heap cap is 67108864 words, a count stays a count), any
   other finite value in the shortest form that parses back to the same
   float, and NaN or an infinity — which JSON cannot express — as
   [null]. *)
let float f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.0f" f
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    shortest 15
