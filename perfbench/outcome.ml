(* What one run of a workload hands back to the reporter: the attempted
   and failed operation counts, every latency sample by request class,
   the set-up times, the counters behind the per-layer metrics and the
   lines describing the inputs. *)

type cfg = {
  seed : int;
  seconds : float;  (** measured (timed) time to fill with whole cycles *)
  trace : bool;
  state_dir : string;  (** scratch space for journals, inside the checkout *)
}

(* A checked operation passes, fails a check that fails every time
   because of a known program fault, or fails unexpectedly. *)
type verdict = Pass | Known of string | Unexpected of string list

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** unexpected check failures, newest first *)
  failures : (string, int) Hashtbl.t;  (** failure reason -> operations *)
  mutable setups_s : float list;
  mutable busy_ms : float;  (** timed time, untraced operations only *)
  mutable traced_ms : float;  (** timed time of the traced re-executions *)
  mutable samples : (string * float) list;  (** (request class, ms), newest first *)
  mutable cycle_p50s : float list;  (** median request latency of each whole input cycle *)
  mutable cycle_rates : float list;  (** requests per second of timed time, each whole input cycle *)
  mutable cycle : float list;  (** request latencies of the current cycle *)
  mutable gc : Measure.gc;  (** collections and allocation over the untraced operations *)
  layers : (string, float) Hashtbl.t;  (** per-layer metrics of a traced run *)
  mutable notes : string list;  (** input make-up, oldest first *)
}

let create () =
  {
    attempted = 0;
    failed = 0;
    problems = [];
    failures = Hashtbl.create 8;
    setups_s = [];
    busy_ms = 0.0;
    traced_ms = 0.0;
    samples = [];
    cycle_p50s = [];
    cycle_rates = [];
    cycle = [];
    gc = Measure.gc_zero;
    layers = Hashtbl.create 64;
    notes = [];
  }

let note o fmt = Printf.ksprintf (fun s -> o.notes <- o.notes @ [ s ]) fmt
let layer o name v = Hashtbl.replace o.layers name v

let count_failure o why =
  Hashtbl.replace o.failures why (1 + Option.value ~default:0 (Hashtbl.find_opt o.failures why))

(* One attempted operation of class [cls] that took [ms] of timed time.
   Every attempted operation keeps its sample, failed or not. A
   maintenance operation ([~request:false], the fleet's reopen and scrub)
   is checked and counted as attempted, but is not a request: it stays
   out of the cycle rates and medians. *)
let record ?(request = true) o ~cls ~ms verdict =
  o.attempted <- o.attempted + 1;
  o.busy_ms <- o.busy_ms +. ms;
  o.samples <- (cls, ms) :: o.samples;
  if request then o.cycle <- ms :: o.cycle;
  match verdict with
  | Pass -> ()
  | Known why ->
    o.failed <- o.failed + 1;
    count_failure o why
  | Unexpected errs ->
    o.failed <- o.failed + 1;
    List.iter (count_failure o) errs;
    if List.length o.problems < 20 then o.problems <- errs @ o.problems

(* Closes one whole input cycle: its median request latency and its
   request rate. *)
let end_cycle o =
  o.cycle_p50s <- Measure.median o.cycle :: o.cycle_p50s;
  o.cycle_rates <- (float_of_int (List.length o.cycle) /. (Measure.sum o.cycle /. 1000.0)) :: o.cycle_rates;
  o.cycle <- []

(* Collects the failed checks of one operation. *)
type checks = string list ref

let checks () : checks = ref []
let check (c : checks) ok msg = if not ok then c := msg :: !c
let verdict_of (c : checks) = if !c = [] then Pass else Unexpected (List.rev !c)

(* The samples of one request class, in ms. *)
let class_samples o cls =
  List.filter_map (fun (c, ms) -> if c = cls then Some ms else None) o.samples

let elapsed o = o.busy_ms +. o.traced_ms
let out_of_time (cfg : cfg) o = elapsed o >= cfg.seconds *. 1000.0
