type t = {
  path : string;
  text : string;
  lines : string array; (* line i (1-based) at lines.(i - 1) *)
  ast : (Parsetree.structure, string * int) result Lazy.t;
}

let parse ~path text =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception Syntaxerr.Error err ->
      let loc = Syntaxerr.location_of_error err in
      Error ("syntax error", loc.Location.loc_start.Lexing.pos_lnum)
  | exception exn -> Error (Printexc.to_string exn, 1)

let of_string ~path text =
  {
    path;
    text;
    lines = Array.of_list (String.split_on_char '\n' text);
    ast = lazy (parse ~path text);
  }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Ok (of_string ~path text)
  | exception Sys_error msg -> Error msg

let ast t = Lazy.force t.ast

let line t i = if i >= 1 && i <= Array.length t.lines then t.lines.(i - 1) else ""

(* Annotation discipline: a justification comment must sit within [within]
   lines above the annotated construct (default 10, wide enough for one
   comment to cover a short loop body, tight enough to stay local). *)
let marker_window = 10

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  nn > 0
  &&
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let has_marker_above ?(within = marker_window) t ~marker ~line:ln =
  let lo = max 1 (ln - within) in
  let rec go i = i <= ln && (contains ~needle:marker (line t i) || go (i + 1)) in
  go lo
