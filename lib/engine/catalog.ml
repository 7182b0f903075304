(* The catalog: tables with their rows and secondary indexes, plus view
   definitions.  Names are case-insensitive.  A built index lives in the
   [indexed] value beside the row array it was built from, so replacing
   the rows replaces the indexes with them. *)

open Rfview_relalg
module Ast = Rfview_sql.Ast

exception Catalog_error of string

let catalog_error fmt = Format.kasprintf (fun s -> raise (Catalog_error s)) fmt

let key s = String.lowercase_ascii s

(* ---- Row arrays and the indexes built over them ----

   Every mutation replaces a table's rows or a view's contents
   wholesale, never in place, so an index cached beside an array can
   never describe a different array: no invalidation exists.  Reader
   domains share the cache; an index is built outside the lock and the
   first finished build wins (racing builds are equal). *)

type indexed = {
  rel : Relation.t;
  mutable built : ((int * Index.kind) * Index.t) list; (* guarded by [built_mu] *)
}

let built_mu = Mutex.create ()
let indexed rel = { rel; built = [] }
let relation ix = ix.rel

let index ix ~column kind =
  match Schema.find_opt (Relation.schema ix.rel) column with
  | None -> None
  | Some col ->
    let cached () = List.assoc_opt (col, kind) ix.built in
    (match Mutex.protect built_mu cached with
     | Some b -> Some b
     | None ->
       let b = Index.build kind (Relation.rows ix.rel) ~key_col:col in
       Some
         (Mutex.protect built_mu (fun () ->
              match cached () with
              | Some first -> first
              | None ->
                ix.built <- ((col, kind), b) :: ix.built;
                b)))

type index_def = {
  index_name : string;
  column : string;
  kind : Index.kind;
}

type table = {
  table_name : string;
  schema : Schema.t;
  mutable data : indexed;
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
    { table_name = name; schema; data = indexed (Relation.of_array schema [||]); indexes = [] }
  in
  Hashtbl.replace t.tables (key name) tbl;
  tbl

let drop_table t ~name ~if_exists =
  if Hashtbl.mem t.tables (key name) then Hashtbl.remove t.tables (key name)
  else if not if_exists then catalog_error "unknown table %s" name

let table_relation (tbl : table) = tbl.data.rel
let rows (tbl : table) = Relation.rows tbl.data.rel
let set_rows (tbl : table) rows = tbl.data <- indexed (Relation.of_array tbl.schema rows)

(* ---- Indexes ---- *)

let create_index t ~name ~table:tname ~column ~kind =
  let tbl = table t tname in
  (match Schema.find_opt tbl.schema column with
   | Some _ -> ()
   | None -> catalog_error "table %s has no column %s" tname column);
  if List.exists (fun i -> key i.index_name = key name) tbl.indexes then
    catalog_error "index %s already exists" name;
  tbl.indexes <- { index_name = name; column; kind } :: tbl.indexes

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
