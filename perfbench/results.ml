(** Results files: one JSON object per run, stamped with everything that
    must match before two runs may be compared, and [compare], which
    applies BENCHMARK.json's bounds to two sets of them. *)

module J = Serve.Protocol

(** The end-to-end metrics every workload reports, as listed in
    BENCHMARK.json: name, unit, direction. *)
let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("ops_per_s", "1/s", "higher");
    ("latency_ms.p50", "ms", "lower");
    ("latency_ms.p90", "ms", "lower");
    ("retained_mb", "MB", "lower");
  ]

(** The per-layer metrics every traced run reports, as listed in
    BENCHMARK.json.  Stage times are self milliseconds per compiled
    program, interpreter times per execution. *)
let per_layer =
  [
    ("cpp.ms", "ms", "lower");
    ("cfront.parse.ms", "ms", "lower");
    ("sema.ms", "ms", "lower");
    ("purity.check.ms", "ms", "lower");
    ("purity.mark.ms", "ms", "lower");
    ("pluto.ms", "ms", "lower");
    ("purity.lower.ms", "ms", "lower");
    ("cfront.print.ms", "ms", "lower");
    ("interp.load.ms", "ms", "lower");
    ("interp.run.ms", "ms", "lower");
    ("interp.run.alloc_mw", "Mw", "lower");
    ("pluto.units_parallel", "count", "higher");
    ("pluto.units_rejected", "count", "lower");
    ("purity.scops", "count", "higher");
  ]

type t = {
  workload : string;
  seed : int;
  nproc : int;
  ocaml : string;
  commit : string;
  definition : string;  (** digest of the workload's definition text *)
  traced : bool;
  rounds : int;
  measured_s : float;
  attempted : int;
  failed : int;
  failures : string list;
  samples : (string * int) list;  (** sample count of every series *)
  e2e : Harness.metric list;
  workload_metrics : Harness.metric list;
  layer : Harness.metric list;  (** [per_layer], traced runs only *)
  layers : Span.layer list;  (** where the time goes, traced runs only *)
  overhead_pct : float option;  (** traced over untraced round time *)
}

(* ------------------------------------------------------------------ *)
(* Stamps *)

let read_file path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

(** The checked-out commit, read from [.git] in the working directory
    (nothing outside it is looked at); ["unknown"] outside a git
    checkout. *)
let commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read_file (".git/" ^ ref_) with
    | Some h -> h
    | None -> (
      let packed = Option.value ~default:"" (read_file ".git/packed-refs") in
      let suffix = " " ^ ref_ in
      match
        List.find_opt (String.ends_with ~suffix) (String.split_on_char '\n' packed)
      with
      | Some line -> String.sub line 0 (String.index line ' ')
      | None -> "unknown"))
  | Some h -> h

(** Peak resident set size of this process, in MiB. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> Float.nan
  | Some status ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> None)
      (String.split_on_char '\n' status)
    |> Option.value ~default:Float.nan

let definition_digest (w : Harness.workload) size = Digest.to_hex (Digest.string (w.definition size))

(* ------------------------------------------------------------------ *)
(* JSON *)

let num f = if Float.is_finite f then J.Float f else J.Null

let metrics_json ms =
  J.Obj (List.map (fun (name, v, unit) -> (name, J.Obj [ ("value", num v); ("unit", J.Str unit) ])) ms)

let to_json r =
  J.Obj
    [
      ("workload", J.Str r.workload);
      ("seed", J.Int r.seed);
      ("nproc", J.Int r.nproc);
      ("ocaml", J.Str r.ocaml);
      ("commit", J.Str r.commit);
      ("definition", J.Str r.definition);
      ("traced", J.Bool r.traced);
      ("rounds", J.Int r.rounds);
      ("measured_s", num r.measured_s);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("failures", J.Arr (List.map (fun s -> J.Str s) r.failures));
      ("samples", J.Obj (List.map (fun (k, n) -> (k, J.Int n)) r.samples));
      ("end_to_end", metrics_json r.e2e);
      ("workload_metrics", metrics_json r.workload_metrics);
      ("per_layer", metrics_json r.layer);
      ( "layers",
        J.Arr
          (List.map
             (fun (l : Span.layer) ->
               J.Obj
                 [
                   ("span", J.Str l.Span.l_name);
                   ("calls", J.Int l.Span.l_calls);
                   ("total_s", num l.Span.l_total);
                   ("self_s", num l.Span.l_self);
                 ])
             r.layers) );
      ("tracing_overhead_pct", match r.overhead_pct with Some o -> num o | None -> J.Null);
    ]

let save path r =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (to_json r));
      output_char oc '\n')

(* the fields [compare] needs *)
type loaded = {
  l_path : string;
  l_workload : string;
  l_seed : int;
  l_nproc : int;
  l_definition : string;
  l_metrics : (string * float) list;  (** end-to-end and per-layer *)
}

(** Read back a {!to_json} result; [path] names it in errors. *)
let of_json path j : loaded =
  let str k = match J.field j k with Some (J.Str s) -> s | _ -> failwith (path ^ ": no " ^ k) in
  let int k = match J.field j k with Some (J.Int n) -> n | _ -> failwith (path ^ ": no " ^ k) in
  let metrics section =
    match J.field j section with
    | Some (J.Obj fields) ->
      List.filter_map
        (fun (name, m) ->
          match J.field m "value" with
          | Some (J.Float f) -> Some (name, f)
          | Some (J.Int n) -> Some (name, float_of_int n)
          | _ -> None)
        fields
    | _ -> []
  in
  {
    l_path = path;
    l_workload = str "workload";
    l_seed = int "seed";
    l_nproc = int "nproc";
    l_definition = str "definition";
    l_metrics = metrics "end_to_end" @ metrics "per_layer";
  }

let load path = of_json path (J.of_string (Option.value ~default:"" (read_file path)))

(* ------------------------------------------------------------------ *)
(* compare *)

type bound = { b_name : string; b_better : string; b_bound : float }

(** The end-to-end bounds listed in [path] (BENCHMARK.json). *)
let bounds path =
  let j = J.of_string (Option.value ~default:"" (read_file path)) in
  match J.field j "end_to_end" with
  | Some (J.Arr ms) ->
    List.map
      (fun m ->
        let str k = match J.field m k with Some (J.Str s) -> s | _ -> "" in
        let bound =
          match J.field m "bound" with
          | Some (J.Float f) -> f
          | Some (J.Int n) -> float_of_int n
          | _ -> failwith (path ^ ": metric without a bound")
        in
        { b_name = str "name"; b_better = str "better"; b_bound = bound })
      ms
  | _ -> failwith (path ^ ": no end_to_end list")

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(** Classify change [b] against parent [a] (as many runs, paired by
    position) for a metric whose worsening bound is [bound]:
    - regressed: B's median is worse than A's by more than the bound;
    - unresolved: A's own spread (interquartile distance over median) is
      wider than the bound, unless every B run beats every A run;
    - improved: B wins at least nine tenths of the pairs and the medians
      differ by more than A's interquartile distance, or every B run beats
      every A run by more than that distance;
    - unchanged: otherwise. *)
let classify ~better ~bound a b =
  let better_than x y = if better = "higher" then x > y else x < y in
  let ma = Stats.median a and mb = Stats.median b in
  let q1, q3 = Stats.quartiles a in
  let iqr = q3 -. q1 in
  let worse = (if better = "higher" then ma -. mb else mb -. ma) /. ma in
  let every_b_wins = List.for_all (fun y -> List.for_all (fun x -> better_than y x) a) b in
  let pairs = List.combine a b in
  let wins = List.length (List.filter (fun (x, y) -> better_than y x) pairs) in
  let clear = Float.abs (mb -. ma) > iqr && better_than mb ma in
  if every_b_wins && clear then Improved
  else if iqr /. ma > bound then Unresolved
  else if worse > bound then Regressed
  else if clear && float_of_int wins >= 0.9 *. float_of_int (List.length pairs) then Improved
  else Unchanged

(** Compare run sets [a] (parent) and [b] (change), workload by workload;
    prints one row per metric and returns the verdicts, or [Error] when the
    runs may not be compared. *)
let compare ~bench (a : loaded list) (b : loaded list) =
  let bounds = bounds bench in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.l_workload) (a @ b)) in
  let seeds rs = List.sort compare (List.map (fun r -> r.l_seed) rs) in
  let rec check = function
    | [] -> Ok []
    | w :: rest -> (
      let ra = List.filter (fun r -> r.l_workload = w) a
      and rb = List.filter (fun r -> r.l_workload = w) b in
      let all = ra @ rb in
      let same f = List.length (List.sort_uniq compare (List.map f all)) <= 1 in
      if ra = [] || rb = [] then Error (Printf.sprintf "%s: runs on one side only" w)
      else if not (same (fun r -> r.l_nproc)) then Error (w ^ ": runs on different core counts")
      else if not (same (fun r -> r.l_definition)) then
        Error (w ^ ": runs of different workload definitions")
      else if seeds ra <> seeds rb then Error (w ^ ": runs with different seeds")
      else
        match check rest with
        | Error _ as e -> e
        | Ok l ->
          let by_seed rs = List.stable_sort (fun x y -> Int.compare x.l_seed y.l_seed) rs in
          Ok ((w, by_seed ra, by_seed rb) :: l))
  in
  match check workloads with
  | Error _ as e -> e
  | Ok groups ->
    Printf.printf "%-16s %-22s %14s %14s %9s %8s  %s\n" "workload" "metric" "A median"
      "B median" "change" "A spread" "verdict";
    Ok
      (List.concat_map
         (fun (w, ra, rb) ->
           List.filter_map
             (fun bd ->
               let values rs = List.filter_map (fun r -> List.assoc_opt bd.b_name r.l_metrics) rs in
               let va = values ra and vb = values rb in
               if va = [] || List.length vb <> List.length va then None
               else begin
                 let v = classify ~better:bd.b_better ~bound:bd.b_bound va vb in
                 let ma = Stats.median va and mb = Stats.median vb in
                 Printf.printf "%-16s %-22s %14.6g %14.6g %+8.2f%% %7.2f%%  %s\n" w bd.b_name ma mb
                   (100.0 *. (mb -. ma) /. ma)
                   (100.0 *. Stats.spread va)
                   (verdict_name v);
                 Some (w, bd.b_name, v)
               end)
             bounds)
         groups)
