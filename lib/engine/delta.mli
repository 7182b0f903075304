(** Accumulated base-table changes: one batch scope, or one statement
    outside a batch (a batch of one).

    A delta maps each table (case-insensitively) to a consolidated
    multiset of inserted rows, deleted rows and (old, new) update
    pairs.  Consolidation happens as changes arrive: an insert followed
    by a delete of the same row cancels, an update of a row inserted in
    the same batch folds into the insert, and chained updates collapse
    to a single (original, final) pair — so propagation sees only the
    net change per base row.  Each change finds its partner in
    O(log k) for a delta of k changes; among equal rows the newest
    arrival is the partner.

    The structure is persistent: recording a change returns a new value
    and never mutates the old one, which lets the undo log snapshot a
    delta by capturing the pointer. *)

open Rfview_relalg

type t

val empty : t
val is_empty : t -> bool

(** Recording an empty list leaves the delta unchanged. *)
val insert : table:string -> Row.t list -> t -> t
val delete : table:string -> Row.t list -> t -> t

(** [update ~table pairs d] records (old, new) row pairs. *)
val update : table:string -> (Row.t * Row.t) list -> t -> t

(** Tables with at least one recorded change, lowercased, sorted. *)
val tables : t -> string list

(** The net change for one table, each list in arrival order; [None]
    when the table's changes cancelled out entirely.  Update pairs stay
    pairs (rather than a delete and an insert) so an updated row keeps
    its rank among rows with equal order keys. *)
type table_delta = {
  inserted : Row.t list;
  deleted : Row.t list;
  updated : (Row.t * Row.t) list;
}

val find : t -> string -> table_delta option

(** Total number of net row changes — the width used to decide between
    delta propagation and a full refresh. *)
val weight : table_delta -> int

(** The change as a signed multiset: +1 per inserted row, -1 per
    deleted row, and an update as -1 old, +1 new.  The form the derived
    delta plans read. *)
val signed : table_delta -> (Row.t * int) list
