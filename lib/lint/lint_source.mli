(** A source file under analysis: raw text, split lines and a lazily parsed
    parsetree (via [compiler-libs]; no ppx).  The passes read the typedtree
    from the [.cmt]; the parsetree only decides whether the file gets a
    ["parse"] finding, and the raw text carries the annotation comments. *)

type t = {
  path : string;
  text : string;
  lines : string array;
  ast : (Parsetree.structure, string * int) result Lazy.t;
}

val load : string -> (t, string) result

val ast : t -> (Parsetree.structure, string * int) result
(** The parsetree, or [(message, line)] on a syntax error. *)

val line : t -> int -> string
(** 1-based; returns [""] out of range. *)

val marker_window : int
(** How many lines above a construct an annotation comment may sit (10). *)

val has_marker_above : ?within:int -> t -> marker:string -> line:int -> bool
(** True when some line in [[line - within, line]] contains [marker] —
    the mechanism behind [(* SAFETY: ... *)] and [(* DOMAIN-SAFE: ... *)]. *)
