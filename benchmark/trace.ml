(* In-memory span recorder for the traced run.

   Spans wrap calls into the system's public functions from the
   benchmark's side of the boundary; the system itself is not traced.
   Each span has a name, start and end time, the span open around it
   (its parent) and the request it served ("workload/item/rep").  Spans
   are kept in memory and written once, when the run ends.  With tracing
   off, [with_span] is a plain call. *)

type span = { id : int; parent : int; name : string; req : string; t0 : float; t1 : float }

let on = ref false
let spans = ref []
let count = ref 0
let stack = ref []
let request = ref ""

(* The benchmark's one clock: CLOCK_MONOTONIC, read in ns and given in
   seconds.  It is not stepped by time adjustments, and sub-millisecond
   durations keep every digit. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let set_request r = request := r

let parent () = match !stack with p :: _ -> p | [] -> -1

let with_span name f =
  if not !on then f ()
  else begin
    let id = !count in
    incr count;
    let parent = parent () and req = !request in
    stack := id :: !stack;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        stack := List.tl !stack;
        spans := { id; parent; name; req; t0; t1 = now () } :: !spans)
  end

(* [timed name f] is [f ()] with its wall time in seconds, inside a span
   when tracing.  The clock reads sit inside the span, so a traced
   duration excludes the recorder's own bookkeeping. *)
let timed name f =
  with_span name (fun () ->
      let t0 = now () in
      let v = f () in
      (v, now () -. t0))

(* A finished leaf span measured elsewhere (the storm domain records
   plain timestamps and hands them over after it is joined). *)
let add name ~t0 ~t1 =
  if !on then begin
    spans := { id = !count; parent = parent (); name; req = !request; t0; t1 } :: !spans;
    incr count
  end

(* Self time: the span's duration minus the union of the intervals its
   children cover inside it. *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add kids s.parent (s.t0, s.t1)) spans;
  fun s ->
    let ivs = List.sort compare (Hashtbl.find_all kids s.id) in
    let covered, _ =
      List.fold_left
        (fun (acc, upto) (a, b) ->
          let a = Float.max a (Float.max upto s.t0) and b = Float.min b s.t1 in
          if b > a then (acc +. (b -. a), b) else (acc, upto))
        (0., s.t0) ivs
    in
    s.t1 -. s.t0 -. covered

(* Times are written in ns since [origin_s], the first span's start on
   the monotonic clock, so they stay exact integers. *)
let write path ~header =
  let all = List.rev !spans in
  let self = self_times all in
  let origin = List.fold_left (fun o s -> Float.min o s.t0) infinity all in
  let ns t = Json.Num (Float.round (t *. 1e9)) in
  let span s =
    Json.Obj
      [
        ("id", Num (float_of_int s.id));
        ("parent", Num (float_of_int s.parent));
        ("name", Str s.name);
        ("req", Str s.req);
        ("start_ns", ns (s.t0 -. origin));
        ("end_ns", ns (s.t1 -. origin));
        ("self_ns", ns (self s));
      ]
  in
  let body = [ ("origin_s", Json.Num origin); ("spans", Json.Arr (List.map span all)) ] in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string (Json.Obj (header @ body)));
      output_char oc '\n')
