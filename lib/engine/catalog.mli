(** The catalog: tables with rows and secondary indexes, plus view
    definitions.  Names are case-insensitive.  A table's rows and its
    indexes are one persistent {!Store.t}, maintained by every DML
    statement; a view's contents may be rendered lazily, and its indexes
    are built on first use and cached beside the contents ({!indexed}). *)

open Rfview_relalg
module Ast := Rfview_sql.Ast

exception Catalog_error of string

(** {1 View contents with their indexes} *)

(** A relation together with the indexes built over its rows.  Rows are
    never mutated in place: a mutation installs a fresh [indexed], so a
    cached index always describes the array beside it.  The relation is
    either eager or a deferred rendering: a render function over frozen
    state, run by the first reader ({!relation} or {!index}) and
    memoized.  Safe to share across domains: concurrent first readers
    wait for one render, and an eager value is read without a lock. *)
type indexed

(** A fresh eager value with an empty index cache. *)
val indexed : Relation.t -> indexed

(** A fresh deferred value: [render ()] must return a relation of
    [schema], built from state that no later write changes.  It runs at
    most once, on the first read, on the reader's domain. *)
val deferred : Schema.t -> (unit -> Relation.t) -> indexed

(** The schema, known without rendering. *)
val schema : indexed -> Schema.t

(** The relation; renders a deferred value on first use. *)
val relation : indexed -> Relation.t

(** The [kind] index on [column], built on first request and cached
    beside the rows; [None] when the relation has no such column. *)
val index : indexed -> column:string -> Index.kind -> Index.t option

(** {1 Table versions} *)

(** One version of a table: a store value (rows and maintained indexes)
    and its flattening into a relation, rendered once on the first read
    and shared by every reader, on any domain. *)
type stored

(** [rows], when given, must be the store's rows in table order: it
    stands in for the flattening. *)
val stored : ?rows:Row.t array -> Schema.t -> Store.t -> stored
val stored_schema : stored -> Schema.t

(** The rows in table order; flattens the store on first use. *)
val stored_relation : stored -> Relation.t

(** The store's maintained index on [column], seen as a [kind] index;
    [None] when the store does not index that column. *)
val stored_index : stored -> column:string -> Index.kind -> Index.t option

type index_def = {
  index_name : string;
  column : string;
  kind : Index.kind;
}

type table = {
  table_name : string;
  schema : Schema.t;
  mutable data : stored;  (** the rows and their maintained indexes *)
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

(** The current store. *)
val store : table -> Store.t

(** Install a new store value (rows and indexes together); [rows] as
    for {!stored}. *)
val set_store : ?rows:Row.t array -> table -> Store.t -> unit

(** The row count, O(1): never flattens. *)
val cardinality : table -> int

(** The current contents, flattened on first use per version. *)
val table_relation : table -> Relation.t

val rows : table -> Row.t array

(** {1 Indexes} *)

(** Declare the index and build it in bulk in the table's store.
    @raise Catalog_error on unknown table/column or duplicate name. *)
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
