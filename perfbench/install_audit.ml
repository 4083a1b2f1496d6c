(* install-audit: the install-time flow (§IV-C) on one populated home.
   Set-up installs a fixed draw of [home_size] audit apps with Keep, so
   their threats make up the chain detector's Allowed list. Each
   operation proposes one of the other apps through [Broker.install]
   (extract, audit against the home, chain search, render) and Rejects
   it, so the home never changes. Runs cover whole cycles of the
   candidates; --seed only shuffles their order within each cycle. The
   home draw is fixed because the operations that fail the
   install-vs-exhaustive check depend on the home, and their share must
   not depend on the seed. *)

module Extract = Homeguard_symexec.Extract
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Chain = Homeguard_detector.Chain
module Rule = Homeguard_rules.Rule
module Home = Homeguard_store.Home
module Broker = Homeguard_serve.Broker
module Install_flow = Homeguard_frontend.Install_flow
module Rule_interpreter = Homeguard_frontend.Rule_interpreter
module Threat_interpreter = Homeguard_frontend.Threat_interpreter
module Policy = Homeguard_handling.Policy
open Homeguard_corpus

let home_size = 45
let home_draw_seed = 42
let home_id = "home"
let setups = 3

let draw () =
  let a = Measure.shuffle (Random.State.make [| home_draw_seed |]) (Array.of_list Corpus.audit_apps) in
  (Array.to_list (Array.sub a 0 home_size), Array.sub a home_size (Array.length a - home_size))

(* One round trip: the proposal plus the applied decision. *)
let propose broker home (c : App_entry.t) decision =
  let reply = Broker.install broker ~home:home_id ~name:c.App_entry.name ~source:c.App_entry.source () in
  (match reply with Broker.Proposed _ -> Home.decide home decision | _ -> ());
  reply

let setup ~dir home_apps candidates =
  Measure.rm_rf dir;
  let home, _ = Home.open_ ~dir () in
  let broker = Broker.create () in
  Broker.add_home broker ~id:home_id home;
  List.iter
    (fun e ->
      match propose broker home e Install_flow.Keep with
      | Broker.Proposed _ -> ()
      | _ -> failwith ("set-up install refused: " ^ e.App_entry.name))
    home_apps;
  (* warm-up: one untimed proposal cycle *)
  Array.iter (fun c -> ignore (propose broker home c Install_flow.Reject)) candidates;
  (home, broker)

(* -- independent checks ---------------------------------------------------- *)

let threat_key th = Policy.threat_id th ^ " " ^ Threat.severity_to_string th.Threat.severity
let keys ths = List.sort compare (List.map threat_key ths)
let propagating = function Threat.CT | Threat.EC -> true | _ -> false

type edge = string * string * Threat.category

let edges_of ths : edge list =
  List.filter_map
    (fun (th : Threat.t) ->
      if propagating th.Threat.category then
        Some (th.Threat.rule1.Rule.rule_id, th.Threat.rule2.Rule.rule_id, th.Threat.category)
      else None)
    ths

(* Reference enumerator: every cycle-free path of 3 to 6 rules that
   starts with a new CT/EC edge and continues along CT/EC edges of the
   kept or new threats. A worklist over path prefixes, written apart
   from [Chain.find_chains]. *)
let reference_chains ~kept ~fresh =
  let succ = Hashtbl.create 256 in
  List.iter (fun (a, b, cat) -> Hashtbl.add succ a (b, cat)) (edges_of kept @ edges_of fresh);
  let found = Hashtbl.create 1024 in
  let work = Stack.create () in
  List.iter (fun (a, b, cat) -> Stack.push ([ b; a ], [ cat ]) work) (edges_of fresh);
  while not (Stack.is_empty work) do
    let path, cats = Stack.pop work in
    let n = List.length path in
    if n >= 3 then Hashtbl.replace found (List.rev path, List.rev cats) ();
    if n < 6 then
      List.iter
        (fun (next, cat) -> if not (List.mem next path) then Stack.push (next :: path, cat :: cats) work)
        (Hashtbl.find_all succ (List.hd path))
  done;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) found [])

let chain_checks c ~kept ~fresh (chains : Chain.chain list) =
  let edges = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace edges e ()) (edges_of kept @ edges_of fresh);
  let first = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace first e ()) (edges_of fresh);
  let valid (ch : Chain.chain) =
    let rules = ch.Chain.rules and cats = ch.Chain.categories in
    let n = List.length rules in
    let rec steps = function
      | a :: (b :: _ as rest), cat :: cats -> Hashtbl.mem edges (a, b, cat) && steps (rest, cats)
      | [ _ ], [] -> true
      | _ -> false
    in
    n >= 3
    && List.length (List.sort_uniq compare rules) = n
    && steps (rules, cats)
    && (match (rules, cats) with a :: b :: _, cat :: _ -> Hashtbl.mem first (a, b, cat) | _ -> false)
  in
  Outcome.check c (List.for_all valid chains) "a chain is not a cycle-free CT/EC path of 3+ rules";
  let mine = List.sort compare (List.map (fun ch -> (ch.Chain.rules, ch.Chain.categories)) chains) in
  Outcome.check c (mine = reference_chains ~kept ~fresh) "chain set differs from the reference enumerator"

(* The check that fails today: the proposal's threats must equal the
   threats involving the new app in an exhaustive audit of the home plus
   that app. When they differ, every differing rule pair must be one
   where [detect_pair] gives different threats for the two argument
   orders — the known fault — or the failure is unexpected. *)
let exhaustive_check config home (x : Rule.smartapp) (report : Install_flow.report) =
  let ctx = Detector.create config in
  let all = Detector.audit_all ctx (Home.installed_apps home @ [ x ]) in
  let involving =
    List.filter
      (fun (th : Threat.t) ->
        th.Threat.app1.Rule.name = x.Rule.name || th.Threat.app2.Rule.name = x.Rule.name)
      all.Detector.threats
  in
  let mine = report.Install_flow.threats in
  if keys mine = keys involving then Outcome.Pass
  else begin
    let missing_from b th = not (List.mem (threat_key th) (keys b)) in
    let differing =
      List.filter (missing_from involving) mine @ List.filter (missing_from mine) involving
    in
    (* fresh ctxs: a warm overlap cache answers one argument order with
       the other's verdict *)
    let order_sensitive (th : Threat.t) =
      let p = (th.Threat.app1, th.Threat.rule1) and q = (th.Threat.app2, th.Threat.rule2) in
      keys (Detector.detect_pair (Detector.create config) p q)
      <> keys (Detector.detect_pair (Detector.create config) q p)
    in
    if differing <> [] && List.for_all order_sensitive differing then
      Outcome.Known "install-vs-exhaustive: detect_pair argument order"
    else
      Outcome.Unexpected
        [
          Printf.sprintf
            "install-vs-exhaustive differs for %s on %d threat(s) not explained by argument order"
            x.Rule.name (List.length differing);
        ]
  end

(* -- traced decomposition ---------------------------------------------------- *)

let render_recommendations recs =
  String.concat "\n"
    (List.map (fun (th, d) -> Printf.sprintf "  [%s] %s" (Policy.threat_id th) (Policy.describe d)) recs)

type pieces = {
  threats : Threat.t list;
  chains : Chain.chain list;
  texts : string * string * string;
  considered : int;
  admitted : int;
  useful : int;
  audit : Detector.audit_result;
  solver_calls : int;
  escalations : int;
}

(* The public pieces of [Broker.install] in the program's own order:
   extract, pre-filter each (new rule x installed rule) pair, audit the
   admitted pairs, search chains over the kept threats, render. *)
let decomposed home allowed (c : App_entry.t) =
  Trace.op (fun () ->
      let app =
        Trace.span "symexec" (fun () ->
            (Extract.extract_source ~name:c.App_entry.name c.App_entry.source).Extract.app)
      in
      let ctx = Detector.create { (Home.config home) with Detector.escalate = false } in
      let installed =
        List.concat_map
          (fun a -> if a.Rule.name = app.Rule.name then [] else List.map (fun r -> (a, r)) a.Rule.rules)
          (Home.installed_apps home)
      in
      let considered =
        List.concat_map (fun r -> List.map (fun old -> ((app, r), old)) installed) app.Rule.rules
      in
      let plan =
        Trace.span "plan" (fun () ->
            Array.of_list (List.filter (fun (p, q) -> Detector.pair_candidate ctx p q) considered))
      in
      let audit = Trace.span "solve" (fun () -> Detector.audit_pairs ctx plan) in
      let threats = audit.Detector.threats in
      let chains = Trace.span "chain" (fun () -> Chain.find_chains allowed threats) in
      let texts =
        Trace.span "frontend" (fun () ->
            let policies = Install_flow.policies (Home.flow home) in
            let recs = List.map (fun th -> (th, Policy.decision_for policies th)) threats in
            ( Rule_interpreter.describe_app app,
              Threat_interpreter.describe_all threats,
              render_recommendations recs ))
      in
      {
        threats;
        chains;
        texts;
        considered = List.length considered;
        admitted = Array.length plan;
        useful = Corpus_audit.useful_pairs threats plan;
        audit;
        solver_calls = ctx.Detector.solver_calls;
        escalations = ctx.Detector.escalations;
      })

let same_as_report p (r : Install_flow.report) =
  List.map Threat.to_string p.threats = List.map Threat.to_string r.Install_flow.threats
  && p.chains = r.Install_flow.chains
  && p.texts = (r.Install_flow.rules_text, r.Install_flow.threats_text, r.Install_flow.handling_text)

(* -- the run ------------------------------------------------------------------- *)

let run (cfg : Outcome.cfg) (o : Outcome.t) =
  let home_apps, candidates = draw () in
  let dir k = Filename.concat cfg.Outcome.state_dir (Printf.sprintf "install-%d" k) in
  let current = ref None in
  for k = 1 to setups do
    (match !current with
    | Some (home, _) ->
      Home.close home;
      Measure.rm_rf (dir (k - 1))
    | None -> ());
    let hb, ms = Measure.timed (fun () -> setup ~dir:(dir k) home_apps candidates) in
    o.Outcome.setups_s <- (ms /. 1000.0) :: o.Outcome.setups_s;
    current := Some hb
  done;
  let home, broker = Option.get !current in
  let digest = Home.state_digest home and journal = Home.journal_size home in
  let kept = Install_flow.kept_threats (Home.flow home) in
  let allowed = Chain.create () in
  Chain.allow allowed kept;
  let config = { (Home.config home) with Detector.escalate = false } in
  Outcome.note o "home: %d audit apps drawn with fixed seed %d, installed with Keep; %d kept threats, %d allowed edges"
    home_size home_draw_seed (List.length kept) (List.length (Chain.allowed_edges allowed));
  Outcome.note o "candidates: the other %d audit apps, one cycle in an order shuffled by --seed %d"
    (Array.length candidates) cfg.Outcome.seed;
  (* the verdicts of the per-candidate checks, keyed by what was reported *)
  let memo = Hashtbl.create 128 in
  let st = Random.State.make [| cfg.Outcome.seed |] in
  let gc_total = ref Measure.gc_zero in
  let sums = Hashtbl.create 16 in
  let add k v = Hashtbl.replace sums k (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums k)) in
  let traced_ok = ref true in
  (* per operation: the untraced round trip minus the layers it calls,
     timed apart in the traced pieces *)
  let serve_self = ref [] in
  Gc.full_major ();
  while not (Outcome.out_of_time cfg o) do
    let cycle = ref [] in
    Array.iter
      (fun (cand : App_entry.t) ->
        let before = Measure.gc_now () in
        let reply, ms = Measure.timed (fun () -> propose broker home cand Install_flow.Reject) in
        gc_total := Measure.gc_add !gc_total ~before ~after:(Measure.gc_now ());
        let c = Outcome.checks () in
        Outcome.check c (Home.journal_size home = journal) "Reject wrote to the journal";
        let known =
          match reply with
          | Broker.Proposed { report; degraded; _ } ->
            Outcome.check c (not degraded) "degraded proposal";
            let a = report.Install_flow.audit in
            Outcome.check c (a.Detector.undecided = 0 && a.Detector.failures = [] && a.Detector.shed = 0)
              "undecided, failed or shed pairs";
            let fingerprint =
              Digest.string (Marshal.to_string (keys report.Install_flow.threats, report.Install_flow.chains) [])
            in
            let errs, known =
              match Hashtbl.find_opt memo (cand.App_entry.name, fingerprint) with
              | Some v -> v
              | None ->
                let cc = Outcome.checks () in
                chain_checks cc ~kept ~fresh:report.Install_flow.threats report.Install_flow.chains;
                let v =
                  match exhaustive_check config home report.Install_flow.app report with
                  | Outcome.Pass -> (!cc, None)
                  | Outcome.Known why -> (!cc, Some why)
                  | Outcome.Unexpected errs -> (errs @ !cc, None)
                in
                Hashtbl.replace memo (cand.App_entry.name, fingerprint) v;
                v
            in
            c := errs @ !c;
            if cfg.Outcome.trace then begin
              Trace.enabled := true;
              let p, tms = Measure.timed (fun () -> decomposed home allowed cand) in
              Trace.enabled := false;
              o.Outcome.traced_ms <- o.Outcome.traced_ms +. tms;
              serve_self := (ms -. !Trace.root_children_ms) :: !serve_self;
              let same = same_as_report p report in
              if not same then traced_ok := false;
              Outcome.check c same "traced pieces differ from Broker.install";
              let t1, t2, t3 = p.texts in
              List.iter
                (fun (k, v) -> add k (float_of_int v))
                [
                  ("plan.pairs_considered", p.considered);
                  ("plan.pairs_admitted", p.admitted);
                  ("useful", p.useful);
                  ("solve.solver_calls", p.solver_calls);
                  ("solve.threats", List.length p.threats);
                  ("solve.escalations", p.escalations);
                  ("solve.undecided", p.audit.Detector.undecided);
                  ("solve.failed_pairs", List.length p.audit.Detector.failures);
                  ("solve.retried_pairs", p.audit.Detector.retried);
                  ("chain.chains", List.length p.chains);
                  ("frontend.report_bytes", String.length t1 + String.length t2 + String.length t3);
                ]
            end;
            known
          | Broker.Busy _ -> Outcome.check c false "Busy reply"; add "serve.busy_replies" 1.0; None
          | Broker.Quarantined_app _ -> Outcome.check c false "app quarantined"; None
          | Broker.Install_failed { error; _ } -> Outcome.check c false ("install failed: " ^ error); None
        in
        cycle := (ms, c, known) :: !cycle)
      (Measure.shuffle st candidates);
    (* the state digest costs about half a proposal: checked once a cycle,
       and a change fails every operation of the cycle *)
    let unchanged = Home.state_digest home = digest in
    List.iter
      (fun (ms, c, known) ->
        Outcome.check c unchanged "Reject changed the home's state digest";
        let v =
          match (Outcome.verdict_of c, known) with
          | Outcome.Pass, Some why -> Outcome.Known why
          | v, _ -> v
        in
        Outcome.record o ~cls:"install" ~ms v)
      (List.rev !cycle);
    Outcome.end_cycle o
  done;
  o.Outcome.gc <- !gc_total;
  if cfg.Outcome.trace then begin
    let self = Trace.self_times () in
    let ops = float_of_int o.Outcome.attempted in
    let ms name = fst (self name) /. ops and calls name = float_of_int (snd (self name)) /. ops in
    let per k = Option.value ~default:0.0 (Hashtbl.find_opt sums k) /. ops in
    List.iter
      (fun (k, v) -> Outcome.layer o k v)
      ([
         ("symexec.ms_per_op", ms "symexec");
         ("symexec.calls", calls "symexec");
         ("plan.ms_per_op", ms "plan");
         ("plan.admit_ratio", per "plan.pairs_admitted" /. per "plan.pairs_considered");
         ("plan.useful_ratio", per "useful" /. per "plan.pairs_admitted");
         ("solve.ms_per_op", ms "solve");
         ("chain.ms_per_op", ms "chain");
         ("chain.allowed_edges", float_of_int (List.length (Chain.allowed_edges allowed)));
         ("frontend.ms_per_op", ms "frontend");
         ("serve.self_ms_per_op", Measure.median !serve_self);
         ("serve.busy_replies", per "serve.busy_replies");
       ]
      @ List.map
          (fun k -> (k, per k))
          [
            "plan.pairs_considered"; "plan.pairs_admitted"; "solve.solver_calls"; "solve.threats";
            "solve.escalations"; "solve.undecided"; "solve.failed_pairs"; "solve.retried_pairs";
            "chain.chains"; "frontend.report_bytes";
          ]);
    Outcome.note o "traced pieces reproduce Broker.install's threats, chains and texts: %s"
      (if !traced_ok then "yes" else "NO")
  end;
  Home.close home;
  Measure.rm_rf (dir setups)
