(* Order statistics over latency samples, and the clock they are taken
   with. *)

(* Monotonic, nanosecond resolution, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 50.

(* The highest whole percentile that leaves at least ten of [n] samples
   strictly beyond it (nearest rank); 50 when [n] is too small. *)
let tail_pct n = if n < 20 then 50 else max 50 (100 * (n - 10) / n)

(* One completed operation: when it finished, how long it took, and the
   rows it changed or returned. *)
type sample = { done_at : float; lat : float; rows : int }

type summary = {
  p50 : float;  (** median over windows of each window's median latency *)
  tail : float;  (** median over windows of each window's tail latency *)
  pct : int;  (** the tail percentile *)
  ops_per_s : float;  (** median over windows *)
  rows_per_s : float;  (** median over windows *)
  window : int;  (** operations per window *)
  windows : int;
  count : int;  (** operations in the run *)
}

(* Split each segment's samples, in completion order, into consecutive
   windows of [window] operations, summarize each window and report the
   median over all windows: a burst of interference in part of a run
   moves one window, not the result.  Every window has the same
   operation count whatever the run length, so the tail percentile is
   fixed per workload.  A segment too short for one window is one window
   of all its samples.  A segment is [(start, samples)], where [start] is
   when its first operation began. *)
let summarize_segments ~window segments =
  let pct = tail_pct window in
  let windows (start, samples) =
    let a = Array.of_list samples in
    let n = Array.length a in
    let w = max 1 (min window n) in
    List.init (n / w) (fun k ->
        let win = Array.sub a (k * w) w in
        let t0 = if k = 0 then start else a.((k * w) - 1).done_at in
        let span = win.(w - 1).done_at -. t0 in
        let lats = Array.map (fun s -> s.lat) win in
        Array.sort compare lats;
        let rows = Array.fold_left (fun acc s -> acc + s.rows) 0 win in
        ( percentile_sorted lats 50.,
          percentile_sorted lats (float (tail_pct w)),
          float w /. span,
          float rows /. span ))
  in
  let per = List.concat_map windows segments in
  let med f = median (List.map f per) in
  {
    p50 = med (fun (p, _, _, _) -> p);
    tail = med (fun (_, t, _, _) -> t);
    pct;
    ops_per_s = med (fun (_, _, o, _) -> o);
    rows_per_s = med (fun (_, _, _, r) -> r);
    window;
    windows = List.length per;
    count = List.fold_left (fun a (_, s) -> a + List.length s) 0 segments;
  }

let summarize ~window ~start samples = summarize_segments ~window [ (start, samples) ]

let lats samples = List.map (fun s -> s.lat) samples

let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> nan | _ -> sum xs /. float (List.length xs)
