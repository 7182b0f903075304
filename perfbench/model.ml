(* Seeded inputs for every workload, and the models the correctness gate
   checks the program's answers against.  All values are whole numbers
   stored as floats, so every SUM stays exact and a maintained view can
   be compared with its recomputation bit for bit. *)

module Value = Rfview_relalg.Value
module Row = Rfview_relalg.Row

(* Int keys with O(1) insert, remove and uniform random pick. *)
module Keyset = struct
  type t = {
    mutable keys : int array;
    mutable n : int;
    slot : (int, int) Hashtbl.t;
  }

  let create () = { keys = Array.make 1024 0; n = 0; slot = Hashtbl.create 1024 }
  let cardinal t = t.n

  let add t k =
    if t.n = Array.length t.keys then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.keys 0 a 0 t.n;
      t.keys <- a
    end;
    t.keys.(t.n) <- k;
    Hashtbl.replace t.slot k t.n;
    t.n <- t.n + 1

  let remove t k =
    let i = Hashtbl.find t.slot k in
    let last = t.keys.(t.n - 1) in
    t.keys.(i) <- last;
    Hashtbl.replace t.slot last i;
    Hashtbl.remove t.slot k;
    t.n <- t.n - 1

  let pick t st = t.keys.(Random.State.int st t.n)
end

type kind = Update | Insert | Delete

let kind_name = function Update -> "update" | Insert -> "insert" | Delete -> "delete"

(* One base-row change: [old_row = None] is an insert, [new_row = None]
   a delete. *)
type change = { old_row : Row.t option; new_row : Row.t option }

(* One generated statement with the row changes it must cause. *)
type stmt = { sql : string; kind : kind; changes : change list }

let amount st = float (Random.State.int st 1000)

(* ---- point-commit: seq(pos, val) with four sequence views ---- *)

module Seq = struct
  let rows0 = 50_000

  let views =
    [
      ("v_cum", "SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING)");
      ("v_sum21", "SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING)");
      ("v_min30", "MIN(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)");
      ("v_avg11", "AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)");
    ]

  let definition fn = Printf.sprintf "SELECT pos, val, %s AS w FROM seq" fn

  (* Positions start 4 apart, so inserts land inside the sequence and
     shift every later row, as §2.3's insert rule must handle. *)
  type t = { st : Random.State.t; vals : (int, float) Hashtbl.t; live : Keyset.t }

  let row p v = [| Value.Int p; Value.Float v |]

  let create st =
    let t = { st; vals = Hashtbl.create rows0; live = Keyset.create () } in
    for i = 0 to rows0 - 1 do
      let p = 4 * i in
      Hashtbl.replace t.vals p (amount st);
      Keyset.add t.live p
    done;
    t

  let rows t =
    let a = Array.init (Keyset.cardinal t.live) (fun i -> t.live.Keyset.keys.(i)) in
    Array.sort compare a;
    Array.map (fun p -> row p (Hashtbl.find t.vals p)) a

  let rec fresh_pos t =
    let p = Random.State.int t.st (4 * rows0) in
    if Hashtbl.mem t.vals p then fresh_pos t else p

  (* 60% UPDATE by pos, 20% INSERT at a fresh pos, 20% DELETE. *)
  let next t =
    let r = Random.State.int t.st 100 in
    if r < 60 then begin
      let p = Keyset.pick t.live t.st in
      let v0 = Hashtbl.find t.vals p and v = amount t.st in
      Hashtbl.replace t.vals p v;
      {
        sql = Printf.sprintf "UPDATE seq SET val = %.1f WHERE pos = %d" v p;
        kind = Update;
        changes = [ { old_row = Some (row p v0); new_row = Some (row p v) } ];
      }
    end
    else if r < 80 then begin
      let p = fresh_pos t and v = amount t.st in
      Hashtbl.replace t.vals p v;
      Keyset.add t.live p;
      {
        sql = Printf.sprintf "INSERT INTO seq VALUES (%d, %.1f)" p v;
        kind = Insert;
        changes = [ { old_row = None; new_row = Some (row p v) } ];
      }
    end
    else begin
      let p = Keyset.pick t.live t.st in
      let v0 = Hashtbl.find t.vals p in
      Hashtbl.remove t.vals p;
      Keyset.remove t.live p;
      {
        sql = Printf.sprintf "DELETE FROM seq WHERE pos = %d" p;
        kind = Delete;
        changes = [ { old_row = Some (row p v0); new_row = None } ];
      }
    end
end

(* ---- report-read and ingest-mixed: sales(region, day, amount) ---- *)

module Sales = struct
  let regions = 8
  let days0 = 2_500
  let region k = Printf.sprintf "r%d" k

  let window fn frame alias =
    Printf.sprintf "%s(amount) OVER (PARTITION BY region ORDER BY day ROWS %s) AS %s"
      fn frame alias

  let seq_view w = Printf.sprintf "SELECT region, day, amount, %s FROM sales" w

  (* Read by both wire workloads; each carries an index on its [day]. *)
  let read_views =
    [
      ("sales_cum", seq_view (window "SUM" "UNBOUNDED PRECEDING" "cum"));
      ("sales_mavg", seq_view (window "AVG" "BETWEEN 6 PRECEDING AND CURRENT ROW" "mavg"));
    ]

  (* ingest-mixed adds two more views with the same keys (one certified
     scan-share class of four) and a GROUP BY view kept by derived IVM. *)
  let share_views =
    [
      ("sales_max5", seq_view (window "MAX" "BETWEEN 2 PRECEDING AND 2 FOLLOWING" "mx"));
      ("sales_sum30", seq_view (window "SUM" "BETWEEN 29 PRECEDING AND CURRENT ROW" "s30"));
    ]

  let derived_view =
    ("region_totals",
     "SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY region")

  type region_state = {
    amounts : (int, float) Hashtbl.t;
    live : Keyset.t;
    mutable next_day : int;
  }

  type t = { st : Random.State.t; regs : region_state array }

  let row k d a = [| Value.String (region k); Value.Int d; Value.Float a |]

  let create st =
    let regs =
      Array.init regions (fun _ ->
          let r = { amounts = Hashtbl.create days0; live = Keyset.create (); next_day = days0 } in
          for d = 0 to days0 - 1 do
            Hashtbl.replace r.amounts d (amount st);
            Keyset.add r.live d
          done;
          r)
    in
    { st; regs }

  let rows t =
    Array.to_list t.regs
    |> List.mapi (fun k r ->
           let days = Array.init (Keyset.cardinal r.live) (fun i -> r.live.Keyset.keys.(i)) in
           Array.sort compare days;
           Array.map (fun d -> row k d (Hashtbl.find r.amounts d)) days)
    |> Array.concat

  (* Range UPDATEs within a region (70%), INSERTs at the region's next
     fresh day (20%), thin DELETEs of one existing day (10%).  Order keys
     (region, day) stay unique, as the sequence machinery requires. *)
  let next t =
    let k = Random.State.int t.st regions in
    let r = t.regs.(k) in
    let c = Random.State.int t.st 100 in
    if c < 70 then begin
      let lo = Random.State.int t.st (max 1 (r.next_day - 5)) in
      let delta = float (1 + Random.State.int t.st 9) in
      let changes =
        List.filter_map
          (fun d ->
            match Hashtbl.find_opt r.amounts d with
            | None -> None
            | Some a ->
              Hashtbl.replace r.amounts d (a +. delta);
              Some { old_row = Some (row k d a); new_row = Some (row k d (a +. delta)) })
          (List.init 5 (fun i -> lo + i))
      in
      {
        sql =
          Printf.sprintf
            "UPDATE sales SET amount = amount + %.1f WHERE region = '%s' AND day BETWEEN %d AND %d"
            delta (region k) lo (lo + 4);
        kind = Update;
        changes;
      }
    end
    else if c < 90 || Keyset.cardinal r.live < 100 then begin
      let d = r.next_day and a = amount t.st in
      r.next_day <- d + 1;
      Hashtbl.replace r.amounts d a;
      Keyset.add r.live d;
      {
        sql = Printf.sprintf "INSERT INTO sales VALUES ('%s', %d, %.1f)" (region k) d a;
        kind = Insert;
        changes = [ { old_row = None; new_row = Some (row k d a) } ];
      }
    end
    else begin
      let d = Keyset.pick r.live t.st in
      let a = Hashtbl.find r.amounts d in
      Hashtbl.remove r.amounts d;
      Keyset.remove r.live d;
      {
        sql = Printf.sprintf "DELETE FROM sales WHERE region = '%s' AND day = %d" (region k) d;
        kind = Delete;
        changes = [ { old_row = Some (row k d a); new_row = None } ];
      }
    end

  let batch t n = List.init n (fun _ -> next t)

  (* The reporting read mix, stratified so every block of five reads holds
     exactly one report at a seeded position: 80% view slices, one region
     and a 30-day range through the index on the view's [day] (the
     index-join shape of the paper's Fig. 2); 20% ad-hoc window reports
     over one region's whole history, computed by the native window
     operator. *)
  type read = { q : string; report : bool }

  let slice st =
    let k = Random.State.int st regions in
    let view = if Random.State.bool st then "sales_cum" else "sales_mavg" in
    let col = if view = "sales_cum" then "cum" else "mavg" in
    let lo = Random.State.int st (days0 - 30) in
    {
      q =
        Printf.sprintf
          "SELECT v.day, v.amount, v.%s FROM regions g JOIN %s v ON v.region = \
           g.region AND v.day BETWEEN g.x + %d AND g.x + %d WHERE g.region = '%s'"
          col view lo (lo + 29) (region k);
      report = false;
    }

  let report st =
    {
      q =
        Printf.sprintf
          "SELECT day, amount, SUM(amount) OVER (ORDER BY day ROWS BETWEEN 27 \
           PRECEDING AND CURRENT ROW) AS m28, MIN(amount) OVER (ORDER BY day \
           ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS lo7 FROM sales WHERE \
           region = '%s'"
          (region (Random.State.int st regions));
      report = true;
    }

  (* A read stream: [next ()] gives the next read of the mix. *)
  let reads st =
    let i = ref 0 and at = ref 0 in
    fun () ->
      if !i mod 5 = 0 then at := Random.State.int st 5;
      let r = if !i mod 5 = !at then report st else slice st in
      incr i;
      r
end

(* Consolidate a sequence of row changes into one batch delta keyed by
   the rows' order key [key]: the first old image and the last new image
   of every touched row. *)
let consolidate ~key changes =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun c ->
      let k = key (match c.new_row with Some r -> r | None -> Option.get c.old_row) in
      match Hashtbl.find_opt tbl k with
      | None ->
        order := k :: !order;
        Hashtbl.replace tbl k (c.old_row, c.new_row)
      | Some (o, _) -> Hashtbl.replace tbl k (o, c.new_row))
    changes;
  List.fold_left
    (fun (ins, del, upd) k ->
      match Hashtbl.find tbl k with
      | None, Some n -> (n :: ins, del, upd)
      | Some o, None -> (ins, o :: del, upd)
      | Some o, Some n -> (ins, del, (o, n) :: upd)
      | None, None -> (ins, del, upd))
    ([], [], []) !order
