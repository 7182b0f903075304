(** The catalog: tables with rows and secondary indexes, plus view
    definitions.  Names are case-insensitive.  A built index is cached
    beside the row array it indexes ({!indexed}) and built lazily on
    first use. *)

open Rfview_relalg
module Ast := Rfview_sql.Ast

exception Catalog_error of string

(** {1 Row arrays with their indexes} *)

(** A relation together with the indexes built over its rows.  Rows are
    never mutated in place: a mutation installs a fresh [indexed], so a
    cached index always describes the array beside it.  Safe to share
    across domains. *)
type indexed

(** A fresh value with an empty index cache. *)
val indexed : Relation.t -> indexed

val relation : indexed -> Relation.t

(** The [kind] index on [column], built on first request and cached
    beside the rows; [None] when the relation has no such column. *)
val index : indexed -> column:string -> Index.kind -> Index.t option

type index_def = {
  index_name : string;
  column : string;
  kind : Index.kind;
}

type table = {
  table_name : string;
  schema : Schema.t;
  mutable data : indexed;  (** the rows and their built indexes *)
  mutable indexes : index_def list;
}

type view = {
  view_name : string;
  materialized : bool;
  definition : Ast.query;
  mutable contents : indexed option;  (** [Some] for materialized views *)
  mutable stale : bool;
      (** quarantined: maintenance faulted, contents lag the base table
          until the next read triggers a full refresh *)
}

type t

val create : unit -> t

(** {1 Tables} *)

val find_table : t -> string -> table option

(** @raise Catalog_error if unknown. *)
val table : t -> string -> table

(** @raise Catalog_error if the name is taken. *)
val create_table : t -> name:string -> schema:Schema.t -> table

val drop_table : t -> name:string -> if_exists:bool -> unit

(** The current contents. *)
val table_relation : table -> Relation.t

val rows : table -> Row.t array

(** Replace the rows (and with them every built index). *)
val set_rows : table -> Row.t array -> unit

(** {1 Indexes} *)

(** @raise Catalog_error on unknown table/column or duplicate name. *)
val create_index :
  t -> name:string -> table:string -> column:string -> kind:Index.kind -> unit

(** {1 Views} *)

val find_view : t -> string -> view option

(** @raise Catalog_error if unknown. *)
val view : t -> string -> view

(** @raise Catalog_error if the name is taken. *)
val create_view : t -> name:string -> materialized:bool -> definition:Ast.query -> view

val drop_view : t -> name:string -> if_exists:bool -> unit
val all_views : t -> view list
val all_tables : t -> table list

(** {1 Undo-log hooks}

    Re-bind or unbind a captured record wholesale; only the statement
    rollback in [Database] may call these. *)

val restore_table : t -> table -> unit
val forget_table : t -> string -> unit
val restore_view : t -> view -> unit
val forget_view : t -> string -> unit
