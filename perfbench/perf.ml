(** The end-to-end and per-layer benchmark of purec.

    {v
    perf.exe run --workload W --seed S [--seconds N] [--trace 0|1]
                 [--out FILE] [--trace-out FILE]
    perf.exe all [--seed S] [--seconds N] [--trace 0|1] [--out-dir DIR]
    perf.exe compare A.json... -- B.json...
    perf.exe smoke
    v}

    [run] measures one workload in this process and prints its report; the
    last line of its standard output is one JSON object with the
    correctness counts and, untraced, the end-to-end metrics, traced, the
    per-layer metrics.  It exits non-zero iff an operation failed.  [all]
    runs every workload in a process of its own, so heap state and memory
    are per workload.  Run from the repository root: the serve
    workload sends the server paths under [perfbench/inputs/]. *)

open Harness

let workloads = [ Paper.paper_fast; Paper.paper_modeled; Corpus.workload; Serving.workload ]

let find_workload name = List.find_opt (fun (w : workload) -> w.name = name) workloads

(* Traced, calls go stage by stage inside spans.  A traced run alternates
   traced and untraced set-ups and rounds, to check the staged path against
   the chain and to measure the tracing overhead. *)
let set_traced b =
  Span.enabled := b;
  Stages.staged := b

let assoc_metric name ms = List.find_opt (fun (n, _, _) -> n = name) ms

(* the uniform per-layer metrics, from the spans of a traced run *)
let layer_metrics (layers : Span.layer list) : metric list =
  let find name = List.find_opt (fun (l : Span.layer) -> l.Span.l_name = name) layers in
  let self name = match find name with Some l -> l.Span.l_self | None -> 0.0 in
  let calls name = match find name with Some l -> float_of_int l.Span.l_calls | None -> 0.0 in
  let per_compile name = 1000.0 *. self name /. calls "chain.compile" in
  let per_exec name = 1000.0 *. self name /. calls "chain.execute" in
  let par, rej, scops = Stages.census_totals () in
  List.map
    (fun (name, unit, _) ->
      let v =
        match name with
        | "interp.load.ms" -> per_exec "interp.load"
        | "interp.run.ms" -> per_exec "interp.run"
        | "interp.run.alloc_mw" -> !Stages.run_alloc_words /. 1e6 /. float_of_int !Stages.run_calls
        | "pluto.units_parallel" -> float_of_int par
        | "pluto.units_rejected" -> float_of_int rej
        | "purity.scops" -> float_of_int scops
        | _ -> per_compile (Filename.chop_suffix name ".ms")
      in
      (name, v, unit))
    Results.per_layer

(** Run workload [w] in this process. *)
let run_one (w : workload) ~size ~seed ~seconds ~trace : Results.t =
  Span.reset ();
  Stages.reset ();
  let ctx = Harness.create ~seed ~size in
  let rounds = max (if trace then 2 else 1) (int_of_float (Float.round (seconds /. w.round_s))) in
  set_traced trace;
  let inst = w.make ctx ~rounds in
  (* set-up must not pay for collecting what input generation left *)
  Gc.compact ();
  let setups = match size with Full -> 3 | Smoke -> 2 in
  let setup_s =
    List.init setups (fun i ->
        inst.teardown ();
        set_traced (trace && i mod 2 = 0);
        fst (time inst.setup))
  in
  let plain = ref [] and traced = ref [] and ops = ref 0 in
  for r = 0 to rounds - 1 do
    let is_traced = trace && r mod 2 = 1 in
    set_traced is_traced;
    ctx.measuring <- not is_traced;
    let n, t = inst.round () in
    if is_traced then traced := t :: !traced
    else begin
      plain := t :: !plain;
      ops := !ops + n
    end
  done;
  ctx.measuring <- false;
  set_traced false;
  let wm = inst.metrics () in
  let measured_s = List.fold_left ( +. ) 0.0 !plain in
  let latency q = Option.get (assoc_metric ("latency_ms." ^ q) wm) in
  (* Memory as live data, not peak RSS: the peak moved 9-16% between seeds
     with the GC's pacing, the live data repeats to within 0.9%. *)
  Gc.full_major ();
  let retained_mb = float_of_int (Gc.stat ()).Gc.live_words *. 8.0 /. 1048576.0 in
  let e2e =
    [
      ("setup_s", Stats.median setup_s, "s");
      ("ops_per_s", float_of_int !ops /. measured_s, "1/s");
      latency "p50";
      latency "p90";
      ("retained_mb", retained_mb, "MB");
    ]
  in
  inst.teardown ();
  let wm = wm @ [ ("peak_rss_mb", Results.peak_rss_mb (), "MB") ] in
  let spans = Span.all () in
  let layers = if trace then Span.by_name spans else [] in
  let compared, mismatches = Stages.fidelity () in
  ctx.attempted <- ctx.attempted + compared;
  List.iter (fail ctx) mismatches;
  let layer = if trace then layer_metrics layers else [] in
  let workload_metrics =
    List.filter (fun (n, _, _) -> assoc_metric n e2e = None) wm
    @ if trace then inst.traced spans else []
  in
  (* a metric that could not be measured is a failure of the run *)
  List.iter
    (fun (name, v, _) -> if not (Float.is_finite v) then fail ctx (name ^ " was not measured"))
    (e2e @ layer @ workload_metrics);
  {
    Results.workload = w.name;
    seed;
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    commit = Results.commit ();
    definition = Results.definition_digest w size;
    traced = trace;
    rounds;
    measured_s;
    attempted = max 1 ctx.attempted;
    failed = ctx.failed;
    failures = List.rev ctx.failures;
    samples =
      Hashtbl.fold (fun k v acc -> (k, List.length v) :: acc) ctx.series []
      |> List.sort compare;
    e2e;
    workload_metrics;
    layer;
    layers;
    overhead_pct =
      (if trace then Some (100.0 *. ((Stats.median !traced /. Stats.median !plain) -. 1.0))
       else None);
  }

(* ------------------------------------------------------------------ *)
(* Reporting *)

let print_metrics title ms =
  Printf.printf "%s:\n" title;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-34s %16.6f %s\n" name v unit) ms

let report (r : Results.t) =
  Printf.printf "== %s  seed %d  nproc %d  OCaml %s  commit %s\n" r.workload r.seed r.nproc
    r.ocaml r.commit;
  Printf.printf "   definition %s  rounds %d  measured %.3f s  %s\n" r.definition r.rounds
    r.measured_s
    (if r.traced then "traced" else "untraced");
  Printf.printf "   operations attempted %d, failed %d (fail_frac %g)\n" r.attempted r.failed
    (float_of_int r.failed /. float_of_int r.attempted);
  List.iter (fun f -> Printf.printf "   FAILED %s\n" f) r.failures;
  Printf.printf "   samples: %s\n"
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) r.samples));
  print_metrics "end-to-end" r.e2e;
  print_metrics "workload" r.workload_metrics;
  if r.traced then begin
    let total = List.fold_left (fun acc (l : Span.layer) -> acc +. l.Span.l_self) 0.0 r.layers in
    Printf.printf "where the time goes (traced input generation, set-ups and rounds):\n";
    Printf.printf "  %-18s %8s %12s %12s %7s\n" "span" "calls" "total s" "self s" "self %";
    List.iter
      (fun (l : Span.layer) ->
        Printf.printf "  %-18s %8d %12.4f %12.4f %6.1f%%\n" l.Span.l_name l.Span.l_calls
          l.Span.l_total l.Span.l_self (100.0 *. l.Span.l_self /. total))
      r.layers;
    print_metrics "per-layer" r.layer;
    Option.iter
      (fun o -> Printf.printf "tracing overhead: %+.2f%% (median traced round over untraced)\n" o)
      r.overhead_pct
  end

(** The last line of a run's output. *)
let result_line (r : Results.t) =
  let module J = Serve.Protocol in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (r.failed = 0));
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ("metrics", Results.metrics_json (if r.traced then r.layer else r.e2e));
       ])

(* ------------------------------------------------------------------ *)
(* Commands *)

let bench_file = "BENCHMARK.json"

let cmd_run ~workload ~seed ~seconds ~trace ~out ~trace_out =
  match find_workload workload with
  | None ->
    Printf.eprintf "unknown workload %S (expected %s)\n" workload
      (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
    2
  | Some w ->
    let r = run_one w ~size:Full ~seed ~seconds ~trace in
    report r;
    Option.iter (fun path -> Results.save path r) out;
    Option.iter (fun path -> Span.write_chrome path (Span.all ())) trace_out;
    print_endline (result_line r);
    if r.failed = 0 then 0 else 1

let cmd_all ~seed ~seconds ~trace ~out_dir =
  let failed =
    List.filter
      (fun (w : workload) ->
        (* DIR/<workload>-seed<S>[-trace]-<k>.json, k the first unused *)
        let out =
          match out_dir with
          | Some dir ->
            let path k =
              Filename.concat dir
                (Printf.sprintf "%s-seed%d%s-%d.json" w.name seed
                   (if trace then "-trace" else "")
                   k)
            in
            let rec free k = if Sys.file_exists (path k) then free (k + 1) else path k in
            [ "--out"; free 1 ]
          | None -> []
        in
        let args =
          [
            Sys.executable_name; "run"; "--workload"; w.name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
          ]
          @ out
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
            Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> false | _ -> true)
      workloads
  in
  List.iter (fun (w : workload) -> Printf.printf "%s: FAILED\n" w.name) failed;
  if failed = [] then 0 else 1

let cmd_compare a b =
  match Results.compare ~bench:bench_file a b with
  | Error msg ->
    Printf.eprintf "compare: refused: %s\n" msg;
    2
  | Ok verdicts ->
    if List.exists (fun (_, _, v) -> v = Results.Regressed) verdicts then 1 else 0

(* self time on a hand-built tree: A [0,10] has children B [1,4] and C
   [3,6] (overlapping) and D [8,12] (running past A's end); B has a child
   E [2,3] *)
let check_self_times () =
  let span id parent start stop =
    { Span.id; name = Printf.sprintf "s%d" id; tag = ""; parent; start; stop; domain = 0 }
  in
  let tree =
    [ span 0 (-1) 0. 10.; span 1 0 1. 4.; span 2 0 3. 6.; span 3 0 8. 12.; span 4 1 2. 3. ]
  in
  let got = List.map (fun ((s : Span.t), self) -> (s.Span.id, self)) (Span.self_times tree) in
  let want = [ (0, 3.); (1, 2.); (2, 3.); (3, 4.); (4, 1.) ] in
  List.for_all2 (fun (i, a) (j, b) -> i = j && Float.abs (a -. b) < 1e-9) got want

(* BENCHMARK.json lists exactly the metrics the harness prints *)
let check_bench_file () =
  let module J = Serve.Protocol in
  let j = J.of_string (Option.value ~default:"" (Results.read_file bench_file)) in
  let listed section =
    match J.field j section with
    | Some (J.Arr ms) ->
      List.map
        (fun m ->
          let s k = match J.field m k with Some (J.Str v) -> v | _ -> "" in
          (s "name", s "unit", s "better"))
        ms
    | _ -> []
  in
  listed "end_to_end" = Results.end_to_end
  && listed "per_layer" = Results.per_layer
  && List.map (fun (n, _, _) -> n) (listed "workloads")
     = List.map (fun (w : workload) -> w.name) workloads

let cmd_smoke () =
  let ok_self = check_self_times () in
  Printf.printf "self time on a hand-built span tree: %s\n" (if ok_self then "ok" else "WRONG");
  let ok_bench = check_bench_file () in
  Printf.printf "%s lists the harness's metrics: %s\n" bench_file (if ok_bench then "ok" else "NO");
  let results =
    List.map
      (fun (w : workload) ->
        let r = run_one w ~size:Smoke ~seed:1 ~seconds:0.0 ~trace:true in
        report r;
        r)
      workloads
  in
  (* each result against itself, through its JSON encoding *)
  let loaded =
    List.map (fun (r : Results.t) -> Results.of_json r.workload (Results.to_json r)) results
  in
  let compared = cmd_compare loaded loaded in
  let ok_runs = List.for_all (fun (r : Results.t) -> r.failed = 0) results in
  if ok_self && ok_bench && ok_runs && compared = 0 then 0 else 1

let usage () =
  prerr_string
    "usage: perf.exe run --workload W --seed S [--seconds N] [--trace 0|1] [--out FILE] \
     [--trace-out FILE]\n\
    \       perf.exe all [--seed S] [--seconds N] [--trace 0|1] [--out-dir DIR]\n\
    \       perf.exe compare A.json... -- B.json...\n\
    \       perf.exe smoke\n";
  2

(* --key value options into an association list; [None] on a stray word *)
let rec options acc = function
  | [] -> Some (List.rev acc)
  | key :: value :: rest when String.starts_with ~prefix:"--" key ->
    options ((String.sub key 2 (String.length key - 2), value) :: acc) rest
  | _ -> None

let main args =
  let opt o k = List.assoc_opt k o in
  let known o ks = List.for_all (fun (k, _) -> List.mem k ks) o in
  let seed o = int_of_string (Option.value ~default:"1" (opt o "seed")) in
  let seconds o = float_of_string (Option.value ~default:"15" (opt o "seconds")) in
  let trace o = Option.value ~default:"0" (opt o "trace") = "1" in
  match args with
  | "run" :: rest -> (
    match options [] rest with
    | Some o
      when known o [ "workload"; "seed"; "seconds"; "trace"; "out"; "trace-out" ]
           && opt o "workload" <> None ->
      cmd_run ~workload:(Option.get (opt o "workload")) ~seed:(seed o) ~seconds:(seconds o)
        ~trace:(trace o) ~out:(opt o "out") ~trace_out:(opt o "trace-out")
    | _ -> usage ())
  | "all" :: rest -> (
    match options [] rest with
    | Some o when known o [ "seed"; "seconds"; "trace"; "out-dir" ] ->
      cmd_all ~seed:(seed o) ~seconds:(seconds o) ~trace:(trace o) ~out_dir:(opt o "out-dir")
    | _ -> usage ())
  | "compare" :: rest -> (
    let rec split acc = function
      | "--" :: b -> Some (List.rev acc, b)
      | x :: rest -> split (x :: acc) rest
      | [] -> None
    in
    match split [] rest with
    | Some ((_ :: _ as a), (_ :: _ as b)) ->
      cmd_compare (List.map Results.load a) (List.map Results.load b)
    | _ -> usage ())
  | [ "smoke" ] -> cmd_smoke ()
  | _ -> usage ()

let () = exit (main (List.tl (Array.to_list Sys.argv)))
