(* Spans recorded from the benchmark's own code around each call into a
   layer's public function: name, start, end, parent and operation id.
   Spans stay in memory and are written out when the run ends. With
   tracing off, [span] is a direct call. *)

type span = {
  id : int;
  parent : int;  (** -1 for an operation's root span *)
  op : int;
  name : string;  (** the layer, e.g. "plan" or "store.ingest" *)
  start : float;
  stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_op = ref 0
let current_root = ref (-1)

(* Time the current operation's direct children took, in ms. *)
let root_children_ms = ref 0.0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Measure.now_ms () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Measure.now_ms () in
        stack := List.tl !stack;
        if parent = !current_root then root_children_ms := !root_children_ms +. stop -. start;
        spans := { id; parent; op = !current_op; name; start; stop } :: !spans)
      f
  end

(* One operation's root span; its duration is the traced latency. *)
let op f =
  incr current_op;
  current_root := !next_id;
  root_children_ms := 0.0;
  span "op" f

(* Self time per span name, in ms, with the number of spans: a span's
   duration minus the part of it its child spans cover. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.stop -. s.start +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (t +. self, n + 1))
    !spans;
  fun name -> Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_name name)

let root_durations () =
  List.filter_map (fun s -> if s.parent < 0 then Some (s.stop -. s.start) else None) !spans

let write path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tparent\top\tname\tstart_ms\tstop_ms\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\n" s.id s.parent s.op s.name s.start
            s.stop)
        (List.rev !spans))
