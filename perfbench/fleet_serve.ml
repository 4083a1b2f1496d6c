(* fleet-serve: seeded synthetic homes on the default fleet
   configuration with fsync off (4 in-process shards, R=2 replicas,
   shared verdict cache on). One round opens a fresh fleet and,
   for each home in turn, delivers its configuration URIs through
   Supervisor.deliver (a journaled ack), installs each of its apps through
   Supervisor.install and applies Keep through Supervisor.run, and runs
   one full audit (submit_audit + drain). A second sweep re-audits every
   home; then the fleet is closed and reopened (recovery) and scrubbed
   once (homes and cache). Runs cover whole rounds. *)

module Detector = Homeguard_detector.Detector
module Home = Homeguard_store.Home
module Scrub = Homeguard_store.Scrub
module Broker = Homeguard_serve.Broker
module Install_flow = Homeguard_frontend.Install_flow
module Supervisor = Homeguard_fleet.Supervisor
module Shard = Homeguard_fleet.Shard
module Vcache = Homeguard_vcache.Vcache
open Homeguard_corpus

let n_homes = 400

(* The homes are a fixed draw and --seed shuffles their order. Drawn
   from --seed, the make-up of the request mix moved with the seed, and
   with it the request rate and the median latency. *)
let homes_seed = 1

(* fsync off: with it on, about 85% of the requests' time is the shared
   disk's flush, and the request rate spread 0.33 to 0.42 across runs *)
let config = { Supervisor.default_config with Supervisor.fsync = false }

let warmup_homes = 100

(* Direct access to a home for the checks, outside any routed request. *)
let home_of sup id =
  match Supervisor.owner_of sup id with
  | Some idx -> (
    match Supervisor.shard sup idx with
    | Some sh -> Broker.home_opt (Shard.broker sh) id
    | None -> None)
  | None -> None

type tally = {
  mutable unavailable : int;
  mutable crashed : int;
  mutable busy : int;
  mutable degraded : int;
  mutable threats : int;
  mutable undecided : int;
  mutable failed_pairs : int;
  mutable retried : int;
}

let routed t c = function
  | Supervisor.Done { value; _ } -> Some value
  | Supervisor.Unavailable { reason; _ } ->
    t.unavailable <- t.unavailable + 1;
    Outcome.check c false ("unavailable: " ^ reason);
    None
  | Supervisor.Crashed { error; _ } ->
    t.crashed <- t.crashed + 1;
    Outcome.check c false ("crashed: " ^ error);
    None

(* The fleet calls, untraced through the public Supervisor functions and
   traced through Supervisor.run with spans around the closures. *)
let deliver sup id ~seq uri =
  if !Trace.enabled then
    Trace.span "fleet" (fun () ->
        Supervisor.run sup ~home:id (fun sh ->
            Trace.span "store.ingest" (fun () ->
                Home.deliver (Broker.home (Shard.broker sh) id) ~seq uri)))
  else Supervisor.deliver sup ~home:id ~seq uri

let install sup id (e : App_entry.t) =
  let name = e.App_entry.name and source = e.App_entry.source in
  if !Trace.enabled then
    Trace.span "fleet" (fun () ->
        Supervisor.run sup ~home:id (fun sh ->
            Trace.span "serve" (fun () -> Broker.install (Shard.broker sh) ~home:id ~name ~source ())))
  else Supervisor.install sup ~home:id ~name ~source ()

let keep sup id =
  Trace.span "fleet" (fun () ->
      Supervisor.run sup ~home:id (fun sh ->
          Trace.span "store.keep" (fun () ->
              Home.decide (Broker.home (Shard.broker sh) id) Install_flow.Keep)))

let submit sup id =
  if !Trace.enabled then
    Trace.span "fleet" (fun () ->
        Supervisor.run sup ~home:id (fun sh ->
            Trace.span "serve" (fun () -> Broker.submit_audit (Shard.broker sh) ~home:id ())))
  else Supervisor.submit_audit sup ~home:id ()

(* Supervisor.drain is a thin wrapper over Broker.drain: its span counts
   as serve. *)
let drain sup shard = Trace.span "serve" (fun () -> Supervisor.drain sup ~shard)

(* The uncached audit of a home's apps under its own recorder
   constraints: the reference for every cached audit. *)
let uncached_audit home =
  let config = { (Home.config home) with Detector.shared_cache = None; Detector.pair_cache = None } in
  let apps = List.filter (fun a -> not (Home.is_quarantined home a.Homeguard_rules.Rule.name)) (Home.installed_apps home) in
  Corpus_audit.render (Detector.audit_all (Detector.create config) apps)

type round = {
  open_ms : float;  (** opening the fresh fleet: no request, but in the run's time *)
  reopen_ms : float;  (** reopening the closed fleet from its files *)
  digests : string list;  (** per home, before the close *)
  audits : string list;  (** per home, the first audit's threat list *)
  acks : int list;  (** per home, the ingestion watermark *)
  stats : Supervisor.stats;  (** after the traffic, before the close *)
  journal_bytes : int;
  recovered_records : int;
  repair_bytes : int;
}

let journal_bytes sup ids =
  List.fold_left
    (fun acc id ->
      match home_of sup id with
      | Some h ->
        List.fold_left
          (fun acc d ->
            let p = Filename.concat d "journal" in
            if Sys.file_exists p then acc + (Unix.stat p).Unix.st_size else acc)
          acc (Home.replica_dirs h)
      | None -> acc)
    0 ids

(* A warm-up round records nothing; a measured round records every
   request; a traced round re-executes a measured one under tracing. *)
type mode = Warmup | Measured | Traced

let one_round (o : Outcome.t) ~expected ~dir ~(homes : Synth.home list) ~mode tally =
  let ids = List.map (fun (h : Synth.home) -> h.Synth.id) homes in
  let record ?request ~cls ~ms c =
    match mode with
    | Warmup -> ()
    | Measured -> Outcome.record ?request o ~cls ~ms (Outcome.verdict_of c)
    | Traced -> o.Outcome.traced_ms <- o.Outcome.traced_ms +. ms
  in
  let timed f =
    if mode = Traced then begin
      Trace.enabled := true;
      let r = Measure.timed (fun () -> Trace.op f) in
      Trace.enabled := false;
      r
    end
    else Measure.timed f
  in
  let sup, open_ms = Measure.timed (fun () -> Supervisor.create ~config ~dir ~homes:ids ()) in
  (* the fresh open is no request, but it counts toward the run's timed
     time: a slow file system then shortens the run instead of
     stretching it *)
  (match mode with
  | Warmup -> ()
  | Measured -> o.Outcome.busy_ms <- o.Outcome.busy_ms +. open_ms
  | Traced -> o.Outcome.traced_ms <- o.Outcome.traced_ms +. open_ms);
  (* [expected] holds each home's uncached audit, computed at its first
     checked audit of the run: every round brings a home to the same
     state before its audit *)
  let audit ~cls id =
    let c = Outcome.checks () in
    let outcomes, ms =
      timed (fun () ->
          match submit sup id with
          | Supervisor.Done { value = Ok _; shard } -> routed tally c (drain sup shard)
          | Supervisor.Done { value = Error _; _ } ->
            tally.busy <- tally.busy + 1;
            None
          | r ->
            ignore (routed tally c r);
            None)
    in
    let text =
      match outcomes with
      | Some [ Broker.Audited { home; result; degraded; _ } ] ->
        Outcome.check c (home = id) "audit outcome names another home";
        Outcome.check c (not degraded) "degraded audit";
        tally.threats <- tally.threats + List.length result.Detector.threats;
        tally.undecided <- tally.undecided + result.Detector.undecided;
        tally.failed_pairs <- tally.failed_pairs + List.length result.Detector.failures;
        tally.retried <- tally.retried + result.Detector.retried;
        let text = Corpus_audit.render result in
        if mode <> Warmup then begin
          if not (Hashtbl.mem expected id) then
            Hashtbl.replace expected id (Option.fold ~none:"" ~some:uncached_audit (home_of sup id));
          Outcome.check c (text = Hashtbl.find expected id) "cached audit differs from the uncached audit"
        end;
        text
      | _ ->
        Outcome.check c false "audit shed, refused or not returned";
        ""
    in
    record ~cls ~ms c;
    text
  in
  let audits =
    List.map
      (fun (h : Synth.home) ->
        let id = h.Synth.id in
        List.iteri
          (fun i uri ->
            let c = Outcome.checks () in
            let reply, ms = timed (fun () -> deliver sup id ~seq:(i + 1) uri) in
            (match routed tally c reply with
            | Some (Home.Accepted _) -> ()
            | Some (Home.Malformed m) -> Outcome.check c false ("malformed delivery: " ^ m)
            | None -> ());
            if i = List.length h.Synth.configs - 1 then
              Outcome.check c
                (Option.map Home.last_seq (home_of sup id) = Some (List.length h.Synth.configs))
                "ingestion watermark differs from the delivery count";
            record ~cls:"ingest" ~ms c)
          h.Synth.configs;
        List.iter
          (fun (e : App_entry.t) ->
            let c = Outcome.checks () in
            let (proposal, kept), ms =
              timed (fun () ->
                  match install sup id e with
                  | Supervisor.Done { value = Broker.Proposed _; _ } as r -> (r, Some (keep sup id))
                  | r -> (r, None))
            in
            (match routed tally c proposal with
            | Some (Broker.Proposed { degraded; _ }) ->
              if degraded then tally.degraded <- tally.degraded + 1;
              Outcome.check c (not degraded) "degraded proposal"
            | Some (Broker.Busy _) ->
              tally.busy <- tally.busy + 1;
              Outcome.check c false "Busy reply"
            | Some (Broker.Quarantined_app _) -> Outcome.check c false "app quarantined"
            | Some (Broker.Install_failed { error; _ }) -> Outcome.check c false ("install failed: " ^ error)
            | None -> ());
            Option.iter (fun k -> ignore (routed tally c k)) kept;
            record ~cls:"install" ~ms c)
          h.Synth.apps;
        audit ~cls:"audit" id)
      homes
  in
  (* the warm sweep *)
  List.iter (fun id -> ignore (audit ~cls:"reaudit" id)) ids;
  let stats = Supervisor.stats sup in
  let digests = List.map (fun id -> Option.fold ~none:"" ~some:Home.state_digest (home_of sup id)) ids in
  let acks = List.map (fun id -> Option.fold ~none:(-1) ~some:Home.last_seq (home_of sup id)) ids in
  let jbytes = journal_bytes sup ids in
  Supervisor.close sup;
  (* recovery: reopen the closed fleet *)
  let c = Outcome.checks () in
  let sup, reopen_ms =
    timed (fun () -> Trace.span "recovery" (fun () -> Supervisor.create ~config ~dir ~homes:ids ()))
  in
  let conflicts = Option.fold ~none:0 ~some:(fun k -> k.Vcache.conflicts) stats.Supervisor.cache in
  Outcome.check c (conflicts = 0) "verdict-cache conflicts";
  Outcome.check c
    (List.map (fun id -> Option.fold ~none:"" ~some:Home.state_digest (home_of sup id)) ids = digests)
    "a home's state digest changed across close and reopen";
  let reports = Supervisor.recoveries sup in
  Outcome.check c
    (List.for_all (fun (_, (r : Home.recovery_report)) -> r.Home.quarantined = 0 && not r.Home.all_replicas_damaged) reports)
    "recovery quarantined records";
  let recovered =
    List.fold_left
      (fun acc (_, (r : Home.recovery_report)) -> acc + r.Home.snapshot_records + r.Home.journal_records)
      0 reports
  in
  record ~request:false ~cls:"recovery" ~ms:reopen_ms c;
  (* anti-entropy: one scrub pass over homes and cache *)
  let c = Outcome.checks () in
  let (homes_report, cache_report), ms =
    timed (fun () ->
        Trace.span "scrub" (fun () -> (Supervisor.scrub sup, Supervisor.scrub_cache sup)))
  in
  Outcome.check c
    (homes_report.Scrub.healthy = homes_report.Scrub.homes && homes_report.Scrub.repair_bytes = 0
     && homes_report.Scrub.unconverged = 0)
    "scrub found an unhealthy home replica";
  let cache_repair =
    match cache_report with
    | Some r ->
      Outcome.check c (r.Scrub.healthy && r.Scrub.repair_bytes = 0) "scrub found an unhealthy cache replica";
      r.Scrub.repair_bytes
    | None ->
      Outcome.check c false "no verdict cache";
      0
  in
  record ~request:false ~cls:"scrub" ~ms c;
  (* the round's files stay until the run ends: deleting thousands of
     files just before the next round's fleet is opened slows it down
     several-fold *)
  Supervisor.close sup;
  {
    open_ms;
    reopen_ms;
    digests;
    audits;
    acks;
    stats;
    journal_bytes = jbytes;
    recovered_records = recovered;
    repair_bytes = homes_report.Scrub.repair_bytes + cache_repair;
  }

let run (cfg : Outcome.cfg) (o : Outcome.t) =
  let homes =
    Corpus.synth ~seed:homes_seed ~n_homes
    |> Array.of_list
    |> Measure.shuffle (Random.State.make [| cfg.Outcome.seed |])
    |> Array.to_list
  in
  (* a fresh root each round: the process-wide fence registry remembers
     every epoch granted under a path *)
  let round_no = ref 0 in
  let next_dir () =
    incr round_no;
    Filename.concat cfg.Outcome.state_dir (Printf.sprintf "fleet-%d" !round_no)
  in
  let count f = List.fold_left (fun n (h : Synth.home) -> n + f h) 0 homes in
  Outcome.note o
    "homes: %d Corpus.synth homes of seed %d in an order shuffled with --seed %d: %d apps, %d config URIs (at most 8 apps a home)"
    n_homes homes_seed cfg.Outcome.seed
    (count (fun h -> List.length h.Synth.apps))
    (count (fun h -> List.length h.Synth.configs));
  Outcome.note o "fleet: Supervisor.default_config with fsync off (4 shards, R=2, verdict cache on), a fresh fleet each round";
  let fresh_tally () =
    { unavailable = 0; crashed = 0; busy = 0; degraded = 0; threats = 0; undecided = 0; failed_pairs = 0; retried = 0 }
  in
  let tally = fresh_tally () in
  let expected = Hashtbl.create n_homes in
  (* warm-up: three rounds over the first homes, each on a fresh fleet *)
  let warm = List.filteri (fun i _ -> i < warmup_homes) homes in
  for _ = 1 to 3 do
    ignore (one_round o ~expected ~dir:(next_dir ()) ~homes:warm ~mode:Warmup (fresh_tally ()))
  done;
  let gc_total = ref Measure.gc_zero in
  (* only the last round is kept: keeping every round's digests and
     threat lists grew the peak RSS with the number of rounds *)
  let last = ref None and n_rounds = ref 0 and opens = ref [] and traced_ok = ref true in
  while not (Outcome.out_of_time cfg o) do
    let before = Measure.gc_now () in
    let r = one_round o ~expected ~dir:(next_dir ()) ~homes ~mode:Measured tally in
    Outcome.end_cycle o;
    (* set-up is a fleet server's start: opening the fleet root from
       its files, the round's reopen. Sampled all through the run, its
       median does not hang on one phase of the host's speed. Opening a
       fresh root is reported apart: creating thousands of directories
       and files took 0.1 to 1.1 s of kernel time from one minute to
       the next on the development host. *)
    o.Outcome.setups_s <- (r.reopen_ms /. 1000.0) :: o.Outcome.setups_s;
    gc_total := Measure.gc_add !gc_total ~before ~after:(Measure.gc_now ());
    last := Some r;
    incr n_rounds;
    opens := (r.open_ms /. 1000.0) :: !opens;
    if cfg.Outcome.trace then begin
      let t = one_round o ~expected ~dir:(next_dir ()) ~homes ~mode:Traced tally in
      let same = t.digests = r.digests && t.audits = r.audits && t.acks = r.acks in
      if not same then begin
        traced_ok := false;
        o.Outcome.problems <- "traced round differs from the untraced round" :: o.Outcome.problems
      end
    end
  done;
  o.Outcome.gc <- !gc_total;
  let n_rounds = !n_rounds in
  Outcome.note o "rounds: %d, %d requests each" n_rounds (o.Outcome.attempted / max 1 n_rounds);
  Outcome.note o "fresh fleet open: median %.4f s over %d rounds (counted in the run's time, not gated)"
    (Measure.median !opens) n_rounds;
  if cfg.Outcome.trace then begin
    let self = Trace.self_times () in
    (* traced rounds repeat the untraced ones request for request *)
    let ops = float_of_int o.Outcome.attempted in
    let ms name = fst (self name) /. ops in
    let r = Option.get !last in
    let k f = Option.fold ~none:0.0 ~some:(fun c -> float_of_int (f c)) r.stats.Supervisor.cache in
    let per_round_ops = ops /. float_of_int n_rounds in
    let per x = float_of_int x /. (2.0 *. ops) in
    let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
    List.iter
      (fun (name, v) -> Outcome.layer o name v)
      [
        ("solve.threats", per tally.threats);
        ("solve.undecided", per tally.undecided);
        ("solve.failed_pairs", per tally.failed_pairs);
        ("solve.retried_pairs", per tally.retried);
        ("serve.self_ms_per_op", ms "serve");
        ("serve.busy_replies", per tally.busy);
        ("serve.degraded", per tally.degraded);
        ("store.ingest_ms_per_op", ms "store.ingest");
        ("store.keep_ms_per_op", ms "store.keep");
        ("store.journal_bytes", float_of_int r.journal_bytes /. per_round_ops);
        ("store.recovered_records", float_of_int r.recovered_records);
        ("store.scrub_repair_bytes", float_of_int r.repair_bytes);
        ("vcache.hits", k (fun c -> c.Vcache.hits) /. per_round_ops);
        ("vcache.misses", k (fun c -> c.Vcache.misses) /. per_round_ops);
        ("vcache.inserts", k (fun c -> c.Vcache.inserts) /. per_round_ops);
        ("vcache.pair_hits", k (fun c -> c.Vcache.pair_hits) /. per_round_ops);
        ("vcache.pair_misses", k (fun c -> c.Vcache.pair_misses) /. per_round_ops);
        ("vcache.hit_ratio", ratio (k (fun c -> c.Vcache.hits)) (k (fun c -> c.Vcache.misses)));
        ("vcache.pair_hit_ratio", ratio (k (fun c -> c.Vcache.pair_hits)) (k (fun c -> c.Vcache.pair_misses)));
        ("vcache.conflicts", k (fun c -> c.Vcache.conflicts) /. per_round_ops);
        ("vcache.entries", float_of_int r.stats.Supervisor.cache_entries);
        ("fleet.route_ms_per_op", ms "fleet");
        ("fleet.unavailable", per tally.unavailable);
        ("fleet.crashed", per tally.crashed);
      ];
    Outcome.note o "traced rounds reproduce the untraced acks, audits and state digests: %s"
      (if !traced_ok then "yes" else "NO")
  end
