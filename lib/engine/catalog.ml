(* The catalog: tables with their rows and secondary indexes, plus view
   definitions.  Names are case-insensitive.  A table's rows and its
   indexes live together in one persistent [Store.t], so every DML
   statement maintains the indexes it touches and a captured store value
   is a complete, unchanging version of the table.  A view's built
   indexes live in the [indexed] value beside the contents they were
   built from. *)

open Rfview_relalg
module Ast = Rfview_sql.Ast

exception Catalog_error of string

let catalog_error fmt = Format.kasprintf (fun s -> raise (Catalog_error s)) fmt

let key s = String.lowercase_ascii s

(* ---- Relations rendered once ----

   A relation is either eager or deferred: a render function over state
   no later write changes, which the first reader runs.  Readers on
   several domains wait for that one render under the value's own lock;
   once rendered the value is eager, and an eager value is read without
   a lock.  A view's contents defer the rendering of a frozen
   maintenance state; a table version defers the flattening of its
   store. *)

type source =
  | Eager of Relation.t
  | Deferred of { mu : Mutex.t; render : unit -> Relation.t }

let deferred_source render = Atomic.make (Deferred { mu = Mutex.create (); render })

let force source =
  match Atomic.get source with
  | Eager rel -> rel
  | Deferred { mu; render } ->
    Mutex.protect mu (fun () ->
        match Atomic.get source with
        | Eager rel -> rel
        | Deferred _ ->
          let rel = render () in
          Atomic.set source (Eager rel);
          rel)

(* ---- View contents and the indexes built over them ----

   Every mutation replaces a view's contents wholesale, never in place,
   so an index cached beside the contents can never describe different
   rows: no invalidation exists.  Reader domains share the cache; an
   index is built outside the lock and the first finished build wins
   (racing builds are equal). *)

type indexed = {
  schema : Schema.t;
  source : source Atomic.t;
  mutable built : ((int * Index.kind) * Index.t) list; (* guarded by [built_mu] *)
}

let built_mu = Mutex.create ()

let indexed rel =
  { schema = Relation.schema rel; source = Atomic.make (Eager rel); built = [] }

let deferred schema render = { schema; source = deferred_source render; built = [] }

let schema ix = ix.schema
let relation ix = force ix.source

let index ix ~column kind =
  match Schema.find_opt ix.schema column with
  | None -> None
  | Some col ->
    let cached () = List.assoc_opt (col, kind) ix.built in
    (match Mutex.protect built_mu cached with
     | Some b -> Some b
     | None ->
       let b = Index.build kind (Relation.rows (relation ix)) ~key_col:col in
       Some
         (Mutex.protect built_mu (fun () ->
              match cached () with
              | Some first -> first
              | None ->
                ix.built <- ((col, kind), b) :: ix.built;
                b)))

(* ---- Table versions ----

   A table version is a store value plus its flattening into a row
   array, rendered on the first read and shared by every reader of the
   version.  The writer never forces it: DML seeks and scans the store,
   and sizes come from the store's O(1) cardinality. *)

type stored = {
  st_schema : Schema.t;
  store : Store.t;
  flat : source Atomic.t;
}

let stored ?rows schema store =
  {
    st_schema = schema;
    store;
    flat =
      (match rows with
       | Some rows -> Atomic.make (Eager (Relation.of_array schema rows))
       | None -> deferred_source (fun () -> Relation.of_array schema (Store.to_array store)));
  }

let stored_schema st = st.st_schema
let stored_relation st = force st.flat

let stored_index st ~column kind =
  Option.bind (Schema.find_opt st.st_schema column) (fun col ->
      Index.of_store kind st.store ~col)

type index_def = {
  index_name : string;
  column : string;
  kind : Index.kind;
}

type table = {
  table_name : string;
  schema : Schema.t;
  mutable data : stored;
  mutable indexes : index_def list;
}

type view = {
  view_name : string;
  materialized : bool;
  definition : Ast.query;
  mutable contents : indexed option; (* Some for materialized views *)
  (* quarantined: maintenance faulted, contents lag the base table until
     the next read triggers a full refresh *)
  mutable stale : bool;
}

type t = {
  tables : (string, table) Hashtbl.t;
  views : (string, view) Hashtbl.t;
}

let create () = { tables = Hashtbl.create 16; views = Hashtbl.create 16 }

(* ---- Tables ---- *)

let find_table t name = Hashtbl.find_opt t.tables (key name)

let table t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> catalog_error "unknown table %s" name

let create_table t ~name ~schema =
  if Hashtbl.mem t.tables (key name) || Hashtbl.mem t.views (key name) then
    catalog_error "relation %s already exists" name;
  let tbl =
    { table_name = name; schema; data = stored schema Store.empty; indexes = [] }
  in
  Hashtbl.replace t.tables (key name) tbl;
  tbl

let drop_table t ~name ~if_exists =
  if Hashtbl.mem t.tables (key name) then Hashtbl.remove t.tables (key name)
  else if not if_exists then catalog_error "unknown table %s" name

let store (tbl : table) = tbl.data.store
let set_store ?rows (tbl : table) store = tbl.data <- stored ?rows tbl.schema store
let cardinality (tbl : table) = Store.cardinality tbl.data.store
let table_relation (tbl : table) = stored_relation tbl.data
let rows (tbl : table) = Relation.rows (table_relation tbl)

(* ---- Indexes ---- *)

let create_index t ~name ~table:tname ~column ~kind =
  let tbl = table t tname in
  let col =
    match Schema.find_opt tbl.schema column with
    | Some col -> col
    | None -> catalog_error "table %s has no column %s" tname column
  in
  if List.exists (fun i -> key i.index_name = key name) tbl.indexes then
    catalog_error "index %s already exists" name;
  tbl.indexes <- { index_name = name; column; kind } :: tbl.indexes;
  set_store tbl (Store.add_index (store tbl) ~col)

(* ---- Views ---- *)

let find_view t name = Hashtbl.find_opt t.views (key name)

let view t name =
  match find_view t name with
  | Some v -> v
  | None -> catalog_error "unknown view %s" name

let create_view t ~name ~materialized ~definition =
  if Hashtbl.mem t.tables (key name) || Hashtbl.mem t.views (key name) then
    catalog_error "relation %s already exists" name;
  let v = { view_name = name; materialized; definition; contents = None; stale = false } in
  Hashtbl.replace t.views (key name) v;
  v

let drop_view t ~name ~if_exists =
  if Hashtbl.mem t.views (key name) then Hashtbl.remove t.views (key name)
  else if not if_exists then catalog_error "unknown view %s" name

let all_views t = Hashtbl.fold (fun _ v acc -> v :: acc) t.views []
let all_tables t = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables []

(* ---- Undo-log hooks ----

   Re-bind or unbind a captured table/view record wholesale; only the
   statement rollback in [Database] may call these. *)

let restore_table t (tbl : table) = Hashtbl.replace t.tables (key tbl.table_name) tbl
let forget_table t name = Hashtbl.remove t.tables (key name)
let restore_view t (v : view) = Hashtbl.replace t.views (key v.view_name) v
let forget_view t name = Hashtbl.remove t.views (key name)
