(* The one clock, the order statistics and the process probes every
   workload shares. *)

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let timed f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   sample at or below it. [nan] on an empty sample; callers report the
   sample count next to it. *)
let percentile p = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(min (n - 1) (max 0 (rank - 1)))

let median xs = percentile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The process's peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  read_file "/proc/self/status"
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
         | _ -> None)
  |> Option.value ~default:nan

let load_avg_1m () =
  match String.split_on_char ' ' (read_file "/proc/loadavg") with
  | first :: _ -> first
  | [] -> "?"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Allocation and collection counters, diffed around timed regions. *)
type gc = { minor : int; major : int; words : float }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
    words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
  }

let gc_zero = { minor = 0; major = 0; words = 0.0 }

let gc_add acc ~before ~after =
  {
    minor = acc.minor + after.minor - before.minor;
    major = acc.major + after.major - before.major;
    words = acc.words +. after.words -. before.words;
  }

let gc_layers g ~ops =
  let per x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_collections", per (float_of_int g.minor));
    ("gc.major_collections", per (float_of_int g.major));
    ("gc.allocated_mb", per (g.words *. float_of_int (Sys.word_size / 8) /. 1048576.0));
  ]
