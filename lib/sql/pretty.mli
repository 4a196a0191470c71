(** Render SQL ASTs back to text (used by the CLI and round-trip tests:
    [parse (print (parse s))] must equal [parse s]). *)

val select_to_string : Sql_ast.select -> string
val script_to_string : Sql_ast.script -> string
