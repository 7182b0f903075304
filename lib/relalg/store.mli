(** The row store behind every base table: a persistent, chunked,
    order-statistics B+-tree of rows, plus the table's maintained
    secondary indexes.

    Each row carries a {e stamp}, an integer assigned when the row is
    inserted and never reused; stamps increase in insertion order, so
    table order is stamp order.  A row keeps its stamp across UPDATE, so
    an update replaces in place and scan order never changes.

    Values are immutable: every operation returns a new store that
    shares all untouched chunks and inner nodes with the old one.  A
    single-row change copies O(log n) inner nodes plus one chunk of at
    most {!chunk} rows, so capturing a version (undo, MVCC publication)
    is O(1) and retained versions share structure.

    An index on column [c] is a second tree of (row.(c), stamp)
    entries ordered by key, then stamp; rows whose key is NULL are not
    indexed (SQL equality and range predicates never match NULL).  A
    lookup resolves the stamps it finds through the row tree.  Every
    mutation keeps every index in step, and an UPDATE that leaves a
    row's key alone does not touch that index. *)

(** Rows per chunk (leaf) and children per inner node. *)
val chunk : int

val fanout : int

type t

val empty : t

(** A store holding [rows] in order, with no indexes.  O(n). *)
val of_array : Row.t array -> t

(** O(1). *)
val cardinality : t -> int

(** The rows in table order: one blit per chunk.  O(n). *)
val to_array : t -> Row.t array

(** [f stamp row] on every row, in table order. *)
val iter : (int -> Row.t -> unit) -> t -> unit

(** Append rows at the end of table order, with fresh stamps. *)
val append : t -> Row.t array -> t

(** Remove the given (stamp, current row) entries, listed in stamp
    order.
    @raise Invalid_argument if an entry is not in the store. *)
val delete : t -> (int * Row.t) array -> t

(** Replace rows in place: (stamp, current row, new row), listed in
    stamp order; the stamps stay.
    @raise Invalid_argument if an entry is not in the store. *)
val replace : t -> (int * Row.t * Row.t) array -> t

(** {1 Indexes} *)

(** Build the index on column [col] in bulk (sort, then an O(n) build);
    a no-op if the store already indexes [col]. *)
val add_index : t -> col:int -> t

val has_index : t -> col:int -> bool

(** Entries whose [col] value equals the key, in stamp order; [] for
    NULL.  The store must index [col]. *)
val seek_eq : t -> col:int -> Value.t -> (int * Row.t) list

(** Entries with [col] value in [[lo, hi]] (inclusive, either bound
    optional), in (key, stamp) order; a NULL bound selects nothing. *)
val seek_range : t -> col:int -> lo:Value.t option -> hi:Value.t option -> (int * Row.t) list

(** Rows (and index keys) examined or copied by seeks, scans ({!iter})
    and edits since the process started: a cost counter for tests.
    Flattening and index lookups on the read path are not counted. *)
val touched : unit -> int

(** {1 Index values}

    An index as the read path and the index joins see it: a key tree
    and the rows its stamps resolve to. *)

type index

(** The store's index on [col], if any. *)
val index : t -> col:int -> index option

(** An index over a row array, with positions as stamps (a view's
    built-on-read index). *)
val index_of_array : Row.t array -> col:int -> index

(** Rows whose key equals the value, in stamp order, folded from the
    left; nothing for NULL. *)
val fold_eq : index -> Value.t -> ('a -> Row.t -> 'a) -> 'a -> 'a

(** Rows with key in [[lo, hi]] in (key, stamp) order, folded from the
    left; a NULL bound selects nothing. *)
val fold_range :
  index -> lo:Value.t option -> hi:Value.t option -> ('a -> Row.t -> 'a) -> 'a -> 'a

(** {1 Inspection (tests)} *)

(** Whether every structural invariant holds: chunk and node widths
    within bounds, no empty node below the root, every leaf at one
    depth, counts and separators exact, entries in order, and every
    index holding exactly the (key, stamp) entries of the rows with a
    non-NULL key. *)
val well_formed : t -> bool
