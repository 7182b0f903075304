(** Secondary indexes.

    Two flavours, mirroring the paper's Table 1 setup (self join with and
    without an index on the sequence position):
    - {!Hash}: equality lookups;
    - {!Ordered}: point and range lookups — the stand-in for a B-tree.

    Both are one structure, a {!Store.index} ordered by (key, row
    stamp): a base table's index is the one its store maintains through
    every DML statement, a view's is built over its rendered rows on
    first read.  The flavour only fixes what the planner may ask: a hash
    index answers equality, and returns equal keys newest row first.

    NULL keys are not indexed: SQL equality and range predicates never
    match NULL. *)

type kind =
  | Hash
  | Ordered

type t

val kind_of : t -> kind
val kind_name : kind -> string

(** Build an index over [rows] keyed by column [key_col]. *)
val build : kind -> Row.t array -> key_col:int -> t

(** A table store's maintained index on [col], if it has one. *)
val of_store : kind -> Store.t -> col:int -> t option

(** Rows whose key equals the value ([] for NULL): in row order for an
    ordered index, newest first for a hash index. *)
val lookup_eq : t -> Value.t -> Row.t list

(** Rows with key in [[lo, hi]] (inclusive; either bound optional), in
    key order, equal keys in row order.
    @raise Invalid_argument on hash indexes. *)
val lookup_range : t -> ?lo:Value.t -> ?hi:Value.t -> unit -> Row.t list

val supports_range : t -> bool
