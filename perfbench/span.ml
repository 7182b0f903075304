(* In-memory span recorder for the traced run.  Spans are taken only
   around calls the benchmark makes into each layer's public functions;
   nothing inside the program is instrumented.  Every span of one
   request carries that request's id, and its parent is the span that
   was open when it started. *)

type t = {
  id : int;
  req : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 for a request root *)
  t0 : float;
  t1 : float;
}

let spans : t list ref = ref []
let next_id = ref 0
let stack : (int * int) list ref = ref [] (* (span id, request id) *)

let open_span ~root name f =
  let id = !next_id in
  incr next_id;
  let parent, req =
    match !stack with
    | (p, r) :: _ when not root -> (p, r)
    | _ -> (-1, id)
  in
  stack := (id, req) :: !stack;
  let t0 = Stats.now () in
  let finish () =
    let t1 = Stats.now () in
    stack := List.tl !stack;
    spans := { id; req; name; parent; t0; t1 } :: !spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* A span inside the request that is open now. *)
let record name f = open_span ~root:false name f

(* A new request: a root span whose id doubles as the request id. *)
let request name f = open_span ~root:true name f

let dur s = s.t1 -. s.t0

(* Self time: duration minus the time covered by direct children
   (children never overlap: the recorder is single-threaded). *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    !spans

let all () = List.rev !spans

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"req\":%d,\"name\":\"%s\",\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.req s.name s.parent s.t0 s.t1)
    (all ());
  close_out oc
