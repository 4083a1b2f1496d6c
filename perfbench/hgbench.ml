(* One benchmark run: one named workload in this process, as a closed
   loop (a single client sends each operation only after the previous one
   completes), on the program's default single-domain configuration.

     hgbench --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]

   Prints a run record, then as its last line one JSON object with the
   attempted and failed operation counts and, with --trace 0, the
   end-to-end metrics or, with --trace 1, the per-layer metrics of a
   traced run. run.py builds this program and calls it. *)

let workloads =
  [
    ("corpus-audit", Corpus_audit.run);
    ("install-audit", Install_audit.run);
    ("fleet-serve", Fleet_serve.run);
  ]

(* The per-layer metrics BENCHMARK.json lists, with their units; the
   end-to-end ones are computed below. *)
let per_layer =
  [
    ("symexec.ms_per_op", "ms"); ("symexec.calls", "count/op");
    ("plan.ms_per_op", "ms"); ("plan.pairs_considered", "count/op"); ("plan.pairs_admitted", "count/op");
    ("plan.admit_ratio", "ratio"); ("plan.useful_ratio", "ratio");
    ("solve.ms_per_op", "ms"); ("solve.solver_calls", "count/op"); ("solve.threats", "count/op");
    ("solve.escalations", "count/op"); ("solve.undecided", "count/op"); ("solve.failed_pairs", "count/op");
    ("solve.retried_pairs", "count/op");
    ("chain.ms_per_op", "ms"); ("chain.allowed_edges", "count"); ("chain.chains", "count/op");
    ("frontend.ms_per_op", "ms"); ("frontend.report_bytes", "bytes/op");
    ("serve.self_ms_per_op", "ms"); ("serve.busy_replies", "count/op"); ("serve.degraded", "count/op");
    ("store.ingest_ms_per_op", "ms"); ("store.keep_ms_per_op", "ms"); ("store.journal_bytes", "bytes/op");
    ("store.recovered_records", "count"); ("store.scrub_repair_bytes", "bytes");
    ("vcache.hits", "count/op"); ("vcache.misses", "count/op"); ("vcache.inserts", "count/op");
    ("vcache.pair_hits", "count/op"); ("vcache.pair_misses", "count/op"); ("vcache.hit_ratio", "ratio");
    ("vcache.pair_hit_ratio", "ratio"); ("vcache.conflicts", "count/op"); ("vcache.entries", "count");
    ("fleet.route_ms_per_op", "ms"); ("fleet.unavailable", "count/op"); ("fleet.crashed", "count/op");
    ("gc.minor_collections", "count/op"); ("gc.major_collections", "count/op"); ("gc.allocated_mb", "MB/op");
    ("trace.overhead_ms", "ms");
  ]

(* Each ratio's base: the per-operation counts it divides by. *)
let ratio_bases =
  [
    ("plan.admit_ratio", [ "plan.pairs_considered" ]);
    ("plan.useful_ratio", [ "plan.pairs_admitted" ]);
    ("vcache.hit_ratio", [ "vcache.hits"; "vcache.misses" ]);
    ("vcache.pair_hit_ratio", [ "vcache.pair_hits"; "vcache.pair_misses" ]);
  ]

(* Each workload's own latency metrics, reported in the run record next
   to the gated ones: (name, unit, request class, percentile, ms -> unit). *)
let record_metrics = function
  | "corpus-audit" -> [ ("audit_ms_p50", "ms", "audit", 0.5, 1.0) ]
  | "install-audit" ->
    [ ("install_ms_p50", "ms", "install", 0.5, 1.0); ("install_ms_p90", "ms", "install", 0.9, 1.0) ]
  | "fleet-serve" ->
    [
      ("ingest_ack_ms_p50", "ms", "ingest", 0.5, 1.0);
      ("ingest_ack_ms_p90", "ms", "ingest", 0.9, 1.0);
      ("install_ms_p50", "ms", "install", 0.5, 1.0);
      ("install_ms_p90", "ms", "install", 0.9, 1.0);
      ("audit_ms_p90", "ms", "audit", 0.9, 1.0);
      ("reaudit_ms_p90", "ms", "reaudit", 0.9, 1.0);
      ("recovery_s", "s", "recovery", 0.5, 0.001);
      ("scrub_s", "s", "scrub", 0.5, 0.001);
    ]
  | _ -> []

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_number v)
             (json_string unit_))
         ms)
  ^ "}"

let usage () =
  prerr_endline
    "usage: hgbench --workload corpus-audit|install-audit|fleet-serve --seed N --seconds S \
     --trace 0|1 [--rev REV]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let run = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
  let seed = int_of "seed" and seconds = int_of "seconds" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let rev = Option.value ~default:"unknown" (List.assoc_opt "rev" opts) in
  let state_dir = Filename.concat ".bench_state" (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  Measure.mkdir_p state_dir;
  at_exit (fun () -> Measure.rm_rf state_dir);
  let cfg = { Outcome.seed; seconds = float_of_int seconds; trace; state_dir } in
  let load_start = Measure.load_avg_1m () in
  let wall_start = Measure.now_ms () in
  let o = Outcome.create () in
  run cfg o;
  let load_end = Measure.load_avg_1m () in
  let wall_s = (Measure.now_ms () -. wall_start) /. 1000.0 in
  let untraced = List.map snd o.Outcome.samples in
  let e2e =
    [
      ("setup_s", "s", Measure.median o.Outcome.setups_s);
      ("peak_rss_mb", "MB", Measure.peak_rss_mb ());
      ("ops_per_s", "1/s", Measure.median o.Outcome.cycle_rates);
      ("op_ms_p50", "ms", Measure.median o.Outcome.cycle_p50s);
    ]
  in
  let own =
    List.map
      (fun (name, unit_, cls, p, scale) ->
        let xs = Outcome.class_samples o cls in
        (name, unit_, Measure.percentile p xs *. scale, List.length xs))
      (record_metrics workload)
  in
  let layers =
    if not trace then []
    else begin
      let traced = Trace.root_durations () in
      Outcome.layer o "trace.overhead_ms" (Measure.median traced -. Measure.median untraced);
      List.iter (fun (k, v) -> Outcome.layer o k v) (Measure.gc_layers o.Outcome.gc ~ops:o.Outcome.attempted);
      Measure.mkdir_p ".bench_out";
      let path = Filename.concat ".bench_out" (Printf.sprintf "spans-%s-seed%d.tsv" workload seed) in
      Trace.write path;
      Outcome.note o "spans: %d written to %s" (List.length !Trace.spans) path;
      Outcome.note o "traced op median %.4f ms, untraced op median %.4f ms (%d and %d samples)"
        (Measure.median traced) (Measure.median untraced) (List.length traced) (List.length untraced);
      List.map
        (fun (k, u) -> (k, u, Option.value ~default:0.0 (Hashtbl.find_opt o.Outcome.layers k)))
        per_layer
    end
  in
  (* -- the run record -- *)
  Printf.printf "perfbench run record\n";
  Printf.printf "  workload       %s (%s)\n" workload (if trace then "traced" else "untraced");
  Printf.printf "  seed           %d\n" seed;
  Printf.printf "  revision       %s\n" rev;
  Printf.printf "  load avg 1m    start %s, end %s\n" load_start load_end;
  Printf.printf "  wall           %.1f s, of which %.1f s timed\n" wall_s (Outcome.elapsed o /. 1000.0);
  Printf.printf "  attempted      %d operations, %d failed\n" o.Outcome.attempted o.Outcome.failed;
  Hashtbl.iter (fun why n -> Printf.printf "  failed check   %d x %s\n" n why) o.Outcome.failures;
  List.iter (Printf.printf "  %s\n") o.Outcome.notes;
  Printf.printf "  set-ups        %d, in s: %s (median reported)\n" (List.length o.Outcome.setups_s)
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") o.Outcome.setups_s));
  Printf.printf "  cycles         %d (op_ms_p50 and ops_per_s are the medians of their medians and rates)\n"
    (List.length o.Outcome.cycle_p50s);
  let classes = List.sort_uniq compare (List.map fst o.Outcome.samples) in
  List.iter
    (fun cls -> Printf.printf "  samples        %-9s %d\n" cls (List.length (Outcome.class_samples o cls)))
    classes;
  List.iter (fun (name, unit_, v) -> Printf.printf "  %-22s %14.4f %s\n" name v unit_) e2e;
  List.iter
    (fun (name, unit_, v, n) -> Printf.printf "  %-22s %14.4f %s  (%d samples)\n" name v unit_ n)
    own;
  if trace then begin
    Printf.printf "traced-run report: %s, per operation (%d operations)\n" workload o.Outcome.attempted;
    Printf.printf "  %-26s %14s  %-9s %s\n" "metric" "value" "unit" "base";
    let value k = Option.value ~default:0.0 (Hashtbl.find_opt o.Outcome.layers k) in
    List.iter
      (fun (k, u, v) ->
        let base =
          match List.assoc_opt k ratio_bases with
          | Some names ->
            Printf.sprintf "%s = %.4f" (String.concat " + " names)
              (List.fold_left (fun acc n -> acc +. value n) 0.0 names)
          | None -> ""
        in
        Printf.printf "  %-26s %14.4f  %-9s %s\n" k v u base)
      layers
  end;
  let record =
    Printf.sprintf
      "{\"workload\": %s, \"seed\": %d, \"revision\": %s, \"load_start\": %s, \"load_end\": %s, \
       \"metrics\": %s, \"samples\": {%s}}"
      (json_string workload) seed (json_string rev) (json_string load_start) (json_string load_end)
      (json_metrics (e2e @ List.map (fun (n, u, v, _) -> (n, u, v)) own))
      (String.concat ", "
         (List.map
            (fun cls ->
              Printf.sprintf "%s: %d" (json_string cls) (List.length (Outcome.class_samples o cls)))
            classes))
  in
  Printf.printf "run-record: %s\n" record;
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v && v > 0.0) e2e in
  let correct = o.Outcome.problems = [] && o.Outcome.attempted > 0 && (trace || finite) in
  List.iter (Printf.printf "  problem: %s\n") (List.rev o.Outcome.problems);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n" correct
    o.Outcome.attempted o.Outcome.failed
    (json_metrics (if trace then layers else e2e))
