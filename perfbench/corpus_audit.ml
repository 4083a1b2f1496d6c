(* corpus-audit: the paper's repository audit (§VIII-B). One operation
   extracts the 125 audit apps from source and audits them pairwise with
   [Detector.candidate_pairs] then [Detector.audit_pairs] — exactly what
   [Detector.audit_all] runs without a pair cache. The corpus is fixed,
   so every operation repeats one computation: the run reports its
   median, never a tail. *)

module Extract = Homeguard_symexec.Extract
module Detector = Homeguard_detector.Detector
module Threat = Homeguard_detector.Threat
module Rule = Homeguard_rules.Rule
open Homeguard_corpus

type audit = {
  ctx : Detector.ctx;
  plan : (Detector.tagged_rule * Detector.tagged_rule) array;
  result : Detector.audit_result;
}

let audit () =
  let apps =
    List.map
      (fun (e : App_entry.t) ->
        Trace.span "symexec" (fun () ->
            (Extract.extract_source ~name:e.App_entry.name e.App_entry.source).Extract.app))
      Corpus.audit_apps
  in
  let ctx = Detector.create Detector.offline_config in
  let plan = Trace.span "plan" (fun () -> Detector.candidate_pairs ctx apps) in
  let result = Trace.span "solve" (fun () -> Detector.audit_pairs ctx plan) in
  ({ ctx; plan; result }, apps)

(* The threat list as a report shows it, for byte-identity checks. *)
let render (r : Detector.audit_result) =
  String.concat "\n" (List.map Threat.to_string r.Detector.threats)

let rule_key ((app, r) : Detector.tagged_rule) = app.Rule.name ^ "/" ^ r.Rule.rule_id

let pair_key p q =
  let a = rule_key p and b = rule_key q in
  if a <= b then a ^ " | " ^ b else b ^ " | " ^ a

(* Cross-app rule pairs in the planner's own enumeration order. *)
let cross_app_pairs apps =
  let tagged = List.concat_map (fun a -> List.map (fun r -> (a, r)) a.Rule.rules) apps in
  let rec go acc = function
    | [] -> List.rev acc
    | ((a, _) as p) :: rest ->
      go
        (List.fold_left
           (fun acc ((b, _) as q) -> if a.Rule.name <> b.Rule.name then (p, q) :: acc else acc)
           acc rest)
        rest
  in
  go [] tagged

(* The plan's independent checks, made once on the reference audit (every
   later repeat must be byte-identical to it): every threat's rule pair
   is in the plan, and no rule pair the planner rejects yields a threat
   under [detect_pair] in the planner's argument order — the pre-filter
   must over-approximate. Returns the failed checks and the pair counts. *)
let plan_checks apps a =
  let c = Outcome.checks () in
  let planned = Hashtbl.create 4096 in
  Array.iter (fun (p, q) -> Hashtbl.replace planned (pair_key p q) ()) a.plan;
  List.iter
    (fun (th : Threat.t) ->
      let k = pair_key (th.Threat.app1, th.Threat.rule1) (th.Threat.app2, th.Threat.rule2) in
      Outcome.check c (Hashtbl.mem planned k) ("threat outside the plan: " ^ k))
    a.result.Detector.threats;
  let all = cross_app_pairs apps in
  let ctx = Detector.create Detector.offline_config in
  let rejected = ref 0 in
  List.iter
    (fun (p, q) ->
      if not (Hashtbl.mem planned (pair_key p q)) then begin
        incr rejected;
        Outcome.check c (Detector.detect_pair ctx p q = []) ("rejected pair yields a threat: " ^ pair_key p q)
      end)
    all;
  (!c, List.length all, !rejected)

let counter_checks c (r : Detector.audit_result) =
  Outcome.check c (r.Detector.undecided = 0) "undecided pairs";
  Outcome.check c (r.Detector.failures = []) "failed pairs";
  Outcome.check c (r.Detector.shed = 0) "shed pairs"

(* Admitted pairs whose detection yields a threat. *)
let useful_pairs (threats : Threat.t list) plan =
  let hit = Hashtbl.create 1024 in
  List.iter
    (fun (th : Threat.t) ->
      Hashtbl.replace hit
        (pair_key (th.Threat.app1, th.Threat.rule1) (th.Threat.app2, th.Threat.rule2))
        ())
    threats;
  Array.fold_left (fun n (p, q) -> if Hashtbl.mem hit (pair_key p q) then n + 1 else n) 0 plan

let run (cfg : Outcome.cfg) (o : Outcome.t) =
  (* set-up: nothing to build but the warm-up audit; five of them *)
  let reference = ref None in
  for _ = 1 to 5 do
    let r, ms = Measure.timed audit in
    o.Outcome.setups_s <- (ms /. 1000.0) :: o.Outcome.setups_s;
    reference := Some r
  done;
  let ref_audit, ref_apps = Option.get !reference in
  let ref_text = render ref_audit.result in
  let plan_errs, considered, rejected = plan_checks ref_apps ref_audit in
  Outcome.note o "inputs: the %d audit apps of the corpus in corpus order (fixed; --seed %d does not change them)"
    (List.length Corpus.audit_apps) cfg.Outcome.seed;
  Outcome.note o "plan: %d cross-app rule pairs considered, %d admitted, %d rejected and re-checked with detect_pair"
    considered (Array.length ref_audit.plan) rejected;
  Outcome.note o "threats per audit: %d" (List.length ref_audit.result.Detector.threats);
  let useful = useful_pairs ref_audit.result.Detector.threats ref_audit.plan in
  Gc.full_major ();
  let gc_total = ref Measure.gc_zero in
  let traced_ok = ref true in
  while not (Outcome.out_of_time cfg o) do
    let before = Measure.gc_now () in
    let (a, _), ms = Measure.timed audit in
    gc_total := Measure.gc_add !gc_total ~before ~after:(Measure.gc_now ());
    let c = Outcome.checks () in
    counter_checks c a.result;
    Outcome.check c (render a.result = ref_text) "threat list differs from the run's first audit";
    c := List.rev_append plan_errs !c;
    if cfg.Outcome.trace then begin
      Trace.enabled := true;
      let (t, _), tms = Measure.timed (fun () -> Trace.op audit) in
      Trace.enabled := false;
      o.Outcome.traced_ms <- o.Outcome.traced_ms +. tms;
      let same = render t.result = render a.result in
      if not same then traced_ok := false;
      Outcome.check c same "traced audit differs from the untraced audit"
    end;
    Outcome.record o ~cls:"audit" ~ms (Outcome.verdict_of c);
    Outcome.end_cycle o
  done;
  o.Outcome.gc <- !gc_total;
  if cfg.Outcome.trace then begin
    let self = Trace.self_times () in
    let ops = float_of_int o.Outcome.attempted in
    let ms name = fst (self name) /. ops and calls name = float_of_int (snd (self name)) /. ops in
    let r = ref_audit.result and admitted = float_of_int (Array.length ref_audit.plan) in
    List.iter
      (fun (k, v) -> Outcome.layer o k v)
      [
        ("symexec.ms_per_op", ms "symexec");
        ("symexec.calls", calls "symexec");
        ("plan.ms_per_op", ms "plan");
        ("plan.pairs_considered", float_of_int considered);
        ("plan.pairs_admitted", admitted);
        ("plan.admit_ratio", admitted /. float_of_int considered);
        ("plan.useful_ratio", float_of_int useful /. admitted);
        ("solve.ms_per_op", ms "solve");
        ("solve.solver_calls", float_of_int ref_audit.ctx.Detector.solver_calls);
        ("solve.threats", float_of_int (List.length r.Detector.threats));
        ("solve.escalations", float_of_int ref_audit.ctx.Detector.escalations);
        ("solve.undecided", float_of_int r.Detector.undecided);
        ("solve.failed_pairs", float_of_int (List.length r.Detector.failures));
        ("solve.retried_pairs", float_of_int r.Detector.retried);
      ];
    Outcome.note o "traced audits reproduce the untraced threat lists: %s"
      (if !traced_ok then "yes" else "NO")
  end
