(* An in-memory relation: a schema plus a row array.  Operators produce
   fresh relations; a base table's rows live in a [Store.t] and reach
   readers flattened into one of these. *)

type t = {
  schema : Schema.t;
  rows : Row.t array;
}

let make schema rows = { schema; rows = Array.of_list rows }
let of_array schema rows = { schema; rows }
let schema r = r.schema
let rows r = r.rows
let cardinality r = Array.length r.rows
let is_empty r = cardinality r = 0
let to_list r = Array.to_list r.rows

let iter f r = Array.iter f r.rows
let map_rows f r = { r with rows = Array.map f r.rows }

let column_values r i = Array.map (fun row -> Row.get row i) r.rows

(* Order-insensitive multiset equality, used heavily in tests: two query
   results are the same if they contain the same rows the same number of
   times. *)
let equal_bag a b =
  cardinality a = cardinality b
  &&
  let sort r =
    let copy = Array.copy r.rows in
    Array.sort Row.compare copy;
    copy
  in
  let sa = sort a and sb = sort b in
  Array.for_all2 Row.equal sa sb

let equal_ordered a b =
  cardinality a = cardinality b && Array.for_all2 Row.equal a.rows b.rows

let sorted_by_all r =
  let copy = Array.copy r.rows in
  Array.sort Row.compare copy;
  { r with rows = copy }

(* ---- ASCII table rendering ---- *)

let render ?(max_rows = 40) r =
  let headers =
    Array.map (fun c -> Schema.qualified_name c) r.schema
  in
  let shown = min max_rows (cardinality r) in
  let cells =
    Array.init shown (fun i -> Array.map Value.to_string r.rows.(i))
  in
  let ncols = Array.length headers in
  let width j =
    Array.fold_left
      (fun acc row -> max acc (String.length row.(j)))
      (String.length headers.(j))
      cells
  in
  let widths = Array.init ncols width in
  let buf = Buffer.create 256 in
  let line () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let row_of cells =
    Buffer.add_char buf '|';
    Array.iteri
      (fun j c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf c;
        Buffer.add_string buf (String.make (widths.(j) - String.length c + 1) ' ');
        Buffer.add_char buf '|')
      cells;
    Buffer.add_char buf '\n'
  in
  line ();
  row_of headers;
  line ();
  Array.iter row_of cells;
  line ();
  if shown < cardinality r then
    Buffer.add_string buf
      (Printf.sprintf "... (%d of %d rows shown)\n" shown (cardinality r));
  Buffer.contents buf

let print ?max_rows r = print_string (render ?max_rows r)
