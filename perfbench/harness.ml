(** What every workload shares: the run context, correctness accounting,
    sample series, and the workload interface that [perf.ml] runs. *)

(** [Full] is the measured benchmark; [Smoke] shrinks every input so the
    whole harness runs in seconds. *)
type size = Full | Smoke

type ctx = {
  size : size;
  rng : Random.State.t;  (** every input is drawn from this, so from [seed] *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few failure messages *)
  mutable measuring : bool;  (** samples are kept only in untraced measured rounds *)
  series : (string, float list) Hashtbl.t;
}

let create ~seed ~size =
  {
    size;
    rng = Random.State.make [| seed |];
    attempted = 0;
    failed = 0;
    failures = [];
    measuring = false;
    series = Hashtbl.create 64;
  }

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* ------------------------------------------------------------------ *)
(* Correctness: every operation is attempted once and fails at most once *)

let fail ctx msg =
  ctx.failed <- ctx.failed + 1;
  if List.length ctx.failures < 20 then ctx.failures <- msg :: ctx.failures

(** Run one checked operation: [f] returns the problems it found ([[]] =
    correct).  An exception is a failure too. *)
let op ctx what f =
  ctx.attempted <- ctx.attempted + 1;
  match f () with
  | [] -> ()
  | problems -> fail ctx (what ^ ": " ^ String.concat "; " problems)
  | exception e -> fail ctx (what ^ ": raised " ^ Printexc.to_string e)

(** [expect cond msg] is [[]] when [cond] holds, [[msg]] otherwise. *)
let expect cond msg = if cond then [] else [ msg ]

(** The checksum line of a paper application's output matches the
    independent OCaml reference within print rounding (the tolerance of the
    toolchain test suite). *)
let checksum_ok ~reference output =
  match Workloads.Reference.checksum_of_output output with
  | None -> [ "no checksum printed" ]
  | Some v ->
    let tol = Float.max 1e-3 (Float.abs reference *. 1e-6) in
    expect
      (Float.abs (v -. reference) <= tol)
      (Printf.sprintf "checksum %.17g, reference %.17g" v reference)

(* ------------------------------------------------------------------ *)
(* Samples *)

let sample ctx key v =
  if ctx.measuring then
    Hashtbl.replace ctx.series key (v :: Option.value ~default:[] (Hashtbl.find_opt ctx.series key))

let samples ctx key = Option.value ~default:[] (Hashtbl.find_opt ctx.series key)

(** A metric: name, value, unit. *)
type metric = string * float * string

(** Per-kind latency summary of a workload whose operations are a few
    fixed programs run over and over: the geometric mean over kinds of each
    kind's median and 90th percentile, in milliseconds. *)
let kind_latency ctx kinds : metric list =
  let stat q = Stats.geomean (List.map (fun k -> 1000.0 *. Stats.percentile q (samples ctx k)) kinds) in
  [ ("latency_ms.p50", stat 0.5, "ms"); ("latency_ms.p90", stat 0.9, "ms") ]

(** Plain latency percentiles over one series of many distinct inputs. *)
let pooled_latency ctx key : metric list =
  let xs = List.map (fun s -> 1000.0 *. s) (samples ctx key) in
  [ ("latency_ms.p50", Stats.percentile 0.5 xs, "ms"); ("latency_ms.p90", Stats.percentile 0.9 xs, "ms") ]

(** A generator of Fuzzgen seeds drawn from the workload seed, never the
    same one twice. *)
let fuzz_seeds ctx =
  let seen = Hashtbl.create 1024 in
  let rec next () =
    let s = Random.State.bits ctx.rng in
    if Hashtbl.mem seen s then next ()
    else begin
      Hashtbl.add seen s ();
      s
    end
  in
  next

(** Seeded Fisher-Yates shuffle. *)
let shuffle ctx l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int ctx.rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* The workload interface *)

type instance = {
  setup : unit -> unit;
      (** Build the long-lived state (compiled programs, pool, server) and
          warm it up.  Called several times, after {!teardown}. *)
  round : unit -> int * float;
      (** One measured round: the operations it completed and the seconds
          they took (work the round does before or after them, such as
          checking replies, is not counted). *)
  metrics : unit -> metric list;
      (** [latency_ms.p50] and [latency_ms.p90], then the workload's own
          metrics, from the samples of the untraced rounds *)
  traced : Span.t list -> metric list;  (** the workload's own metrics from a traced run *)
  teardown : unit -> unit;  (** release what {!setup} built; harmless when nothing is *)
}

type workload = {
  name : string;
  round_s : float;
      (** seconds one round took on the 2-core host that defined the
          benchmark; [--seconds] is turned into a fixed number of rounds
          with it, so both sides of a comparison do the same work *)
  definition : size -> string;  (** every constant that shapes the workload *)
  make : ctx -> rounds:int -> instance;
      (** generate the inputs of [rounds] rounds and their reference outputs *)
}

(** Pool and server sizes: the two cores of the host the benchmark was
    defined on, never read from the environment. *)
let domains = 2
