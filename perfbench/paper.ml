(** The paper's four applications (matmul, heat, satellite, LAMA), in the
    two ways [purec run] executes them. *)

open Harness
module Chain = Toolchain.Chain
module F = Toolchain.Figures

type app = { name : string; source : string; reference : float }

let pure = Chain.Pure_chain (fun c -> c)

let apps (s : F.scale) =
  let module R = Workloads.Reference in
  [
    {
      name = "matmul";
      source = Workloads.Matmul.pure_source ~n:s.F.matmul_n ();
      reference = R.matmul_checksum s.F.matmul_n;
    };
    {
      name = "heat";
      source = Workloads.Heat.pure_source ~n:s.F.heat_n ~t:s.F.heat_t ();
      reference = R.heat_checksum s.F.heat_n s.F.heat_t;
    };
    {
      name = "satellite";
      source = Workloads.Satellite.pure_source ~w:s.F.sat_w ~h:s.F.sat_h ~bands:s.F.sat_bands ();
      reference = R.satellite_checksum s.F.sat_w s.F.sat_h s.F.sat_bands;
    };
    {
      name = "lama";
      source =
        Workloads.Lama_app.pure_source ~rows:s.F.lama_rows ~maxnnz:s.F.lama_maxnnz
          ~reps:s.F.lama_reps ();
      reference = R.lama_checksum s.F.lama_rows s.F.lama_maxnnz s.F.lama_reps;
    };
  ]

let app_names = [ "matmul"; "heat"; "satellite"; "lama" ]

let describe_scale (s : F.scale) =
  Printf.sprintf "matmul n=%d; heat n=%d t=%d; satellite %dx%dx%d; lama rows=%d maxnnz=%d reps=%d"
    s.F.matmul_n s.F.heat_n s.F.heat_t s.F.sat_w s.F.sat_h s.F.sat_bands s.F.lama_rows
    s.F.lama_maxnnz s.F.lama_reps

let compile_app (a : app) = Stages.compile ~tag:a.name pure a.source

(* [metric.<app>]: the median of each app's series [key app] *)
let per_app ctx ~metric ~unit key =
  List.map (fun a -> (metric ^ "." ^ a, Stats.median (samples ctx (key a)), unit)) app_names

(* median self time of the spans named [name] tagged [tag], given every
   span's self time *)
let span_median selfs ~name ~tag =
  Stats.median
    (List.filter_map
       (fun ((s : Span.t), self) -> if s.name = name && s.tag = tag then Some self else None)
       selfs)

(* ------------------------------------------------------------------ *)
(* paper-fast *)

(* Sized so every 1-domain execution lasts at least ~110 ms on the
   defining host: below that, run-to-run noise swamps a 2-domain gain. *)
let fast_scale =
  {
    F.matmul_n = 192;
    heat_n = 256;
    heat_t = 40;
    sat_w = 160;
    sat_h = 160;
    sat_bands = 16;
    lama_rows = 32768;
    lama_maxnnz = 24;
    lama_reps = 4;
  }

let fast_scale_of = function Full -> fast_scale | Smoke -> F.test_scale

let make_fast ctx ~rounds:_ =
  let apps = apps (fast_scale_of ctx.size) in
  let state = ref None in
  let teardown () =
    Option.iter (fun (_, pool) -> Runtime.Pool.shutdown pool) !state;
    state := None
  in
  (* one execution, at 1 domain ([pool = None]) or on the 2-domain pool *)
  let execute ?pool ((a : app), c) =
    let tag = a.name ^ if pool = None then ".j1" else ".j2" in
    let pool_counts () =
      match pool with Some p -> (Runtime.Pool.batches p, Runtime.Pool.steals p) | None -> (0, 0)
    in
    let b0, s0 = pool_counts () in
    let w0 = Gc.minor_words () in
    let t, p = time (fun () -> Stages.execute ~tag ~no_model:true ?pool c) in
    let words = Gc.minor_words () -. w0 in
    let b1, s1 = pool_counts () in
    op ctx tag (fun () ->
        checksum_ok ~reference:a.reference p.Interp.Trace.output
        @ expect (p.Interp.Trace.return_code = 0) "non-zero exit code");
    sample ctx ("exec." ^ tag) t;
    match pool with
    | None -> sample ctx ("alloc." ^ a.name) (words /. 1e6)
    | Some _ ->
      sample ctx ("batches." ^ a.name) (float_of_int (b1 - b0));
      sample ctx ("steals." ^ a.name) (float_of_int (s1 - s0));
      sample ctx ("regions." ^ a.name) (float_of_int (Interp.Trace.n_parallel_segments p))
  in
  let setup () =
    let compiled = List.map (fun a -> (a, compile_app a)) apps in
    let pool = Span.with_ "runtime.pool" (fun () -> Runtime.Pool.create domains) in
    state := Some (compiled, pool);
    List.iter (execute ~pool) compiled
  in
  let round () =
    let compiled, pool = Option.get !state in
    let ops =
      shuffle ctx (List.concat_map (fun ac -> [ (ac, None); (ac, Some pool) ]) compiled)
    in
    let t, () = time (fun () -> List.iter (fun (ac, pool) -> execute ?pool ac) ops) in
    (List.length ops, t)
  in
  let metrics () =
    let med k = Stats.median (samples ctx k) in
    let ratio a = med ("exec." ^ a ^ ".j1") /. med ("exec." ^ a ^ ".j2") in
    kind_latency ctx
      (List.concat_map (fun a -> [ "exec." ^ a ^ ".j1"; "exec." ^ a ^ ".j2" ]) app_names)
    @ per_app ctx ~metric:"exec_s" ~unit:"s" (fun a -> "exec." ^ a ^ ".j2")
    @ per_app ctx ~metric:"exec_s.j1" ~unit:"s" (fun a -> "exec." ^ a ^ ".j1")
    @ [ ("speedup_2v1", Stats.geomean (List.map ratio app_names), "x") ]
    @ List.map (fun a -> ("runtime.efficiency." ^ a, ratio a /. 2.0, "ratio")) app_names
    @ per_app ctx ~metric:"runtime.batches" ~unit:"count" (fun a -> "batches." ^ a)
    @ per_app ctx ~metric:"runtime.steals" ~unit:"count" (fun a -> "steals." ^ a)
    @ per_app ctx ~metric:"interp.parallel_regions" ~unit:"count" (fun a -> "regions." ^ a)
    @ per_app ctx ~metric:"interp.alloc_mw" ~unit:"Mw" (fun a -> "alloc." ^ a)
  in
  let traced spans =
    let selfs = Span.self_times spans in
    List.concat_map
      (fun a ->
        [
          ("interp.load_s." ^ a, span_median selfs ~name:"interp.load" ~tag:(a ^ ".j1"), "s");
          ("interp.run_s.j1." ^ a, span_median selfs ~name:"interp.run" ~tag:(a ^ ".j1"), "s");
          ("interp.run_s.j2." ^ a, span_median selfs ~name:"interp.run" ~tag:(a ^ ".j2"), "s");
        ])
      app_names
  in
  { setup; round; metrics; traced; teardown }

(** [purec run --no-model] at 1 and 2 domains: the Fast interpreter and the
    domain pool do almost all the work, compiling is set-up. *)
let paper_fast =
  {
    name = "paper-fast";
    round_s = 1.5;
    definition =
      (fun size ->
        Printf.sprintf
          "paper-fast v1: pure chain; each round runs every app with Chain.execute ~no_model at \
           1 domain and on a %d-domain Runtime.Pool, seeded order; %s"
          domains
          (describe_scale (fast_scale_of size)));
    make = make_fast;
  }

(* ------------------------------------------------------------------ *)
(* paper-modeled *)

let modeled_scale_of = function Full -> F.default_scale | Smoke -> F.test_scale

(* doitgen's compile (2.5 s in Pluto) and floyd-warshall's verdict matrix
   would take most of a smoke run *)
let gallery = function
  | Full -> Workloads.Kernels.all
  | Smoke ->
    List.filter
      (fun (k : Workloads.Kernels.kernel) ->
        k.Workloads.Kernels.k_name <> "doitgen" && k.Workloads.Kernels.k_name <> "floyd-warshall")
      Workloads.Kernels.all

let expected_plans =
  List.length Racecheck.default_schedules * List.length Racecheck.default_cores

let accesses (p : Interp.Trace.profile) =
  List.fold_left
    (fun acc (pt : Interp.Trace.par_trace) ->
      Array.fold_left (fun acc a -> acc + Array.length a) acc pt.Interp.Trace.pt_accesses)
    0
    (Option.value ~default:[] p.Interp.Trace.par_traces)

let make_modeled ctx ~rounds:_ =
  let apps = apps (modeled_scale_of ctx.size) in
  let kernels = gallery ctx.size in
  let ktag (k : Workloads.Kernels.kernel) = "k." ^ k.Workloads.Kernels.k_name in
  (* reference: each kernel's output with no transformation at all *)
  let sequential_out =
    List.map
      (fun (k : Workloads.Kernels.kernel) ->
        let tag = ktag k in
        let c = Stages.compile ~tag Chain.Sequential k.Workloads.Kernels.k_source in
        let p = Stages.execute ~tag ~no_model:true c in
        op ctx (tag ^ " sequential") (fun () ->
            expect (p.Interp.Trace.return_code = 0) "non-zero exit code");
        (tag, p.Interp.Trace.output))
      kernels
  in
  let state = ref None in
  let traced_run (k, c) =
    let tag = ktag k in
    let t, p = time (fun () -> Stages.execute ~tag ~trace_accesses:true ~shadow_slots:true c) in
    op ctx (tag ^ " traced") (fun () ->
        expect (p.Interp.Trace.output = List.assoc tag sequential_out) "output differs from sequential");
    (t, p)
  in
  let setup () =
    let compiled_apps = List.map (fun a -> (a, compile_app a)) apps in
    let compiled_kernels =
      List.map
        (fun (k : Workloads.Kernels.kernel) ->
          (k, Stages.compile ~tag:(ktag k) pure k.Workloads.Kernels.k_source))
        kernels
    in
    state := Some (compiled_apps, compiled_kernels);
    List.iter (fun kc -> ignore (traced_run kc)) compiled_kernels
  in
  (* the default [purec run] path: a Modeled execution, then the machine
     model at the CLI's 7 core counts *)
  let run_app ((a : app), c) =
    let w0 = Gc.minor_words () in
    let t_run, p = time (fun () -> Stages.execute ~tag:a.name c) in
    let words = Gc.minor_words () -. w0 in
    let t_sim, sims =
      time (fun () ->
          Span.with_ ~tag:a.name "machine.simulate" (fun () ->
              List.map
                (fun n ->
                  (Machine.Model.simulate ~backend:Machine.Config.gcc ~n p).Machine.Model.r_seconds)
                F.paper_cores))
    in
    op ctx a.name (fun () ->
        checksum_ok ~reference:a.reference p.Interp.Trace.output
        @ expect
            (List.for_all (fun s -> Float.is_finite s && s > 0.0) sims)
            "simulated time not finite and positive");
    sample ctx ("exec." ^ a.name) (t_run +. t_sim);
    sample ctx ("run." ^ a.name) t_run;
    sample ctx ("sim." ^ a.name) t_sim;
    sample ctx ("alloc." ^ a.name) (words /. 1e6);
    1
  in
  (* race verdicts for the whole gallery: a traced execution, then the
     plan matrix through both race engines *)
  let verdicts compiled_kernels =
    let trace_s = ref 0.0 and engine_s = ref 0.0 and n_acc = ref 0 and plans = ref 0 in
    List.iter
      (fun ((k, _) as kc) ->
        let t, p = traced_run kc in
        let te, v =
          time (fun () ->
              Span.with_ ~tag:(ktag k) "racecheck.verdict" (fun () -> Racecheck.verdict_matrix p))
        in
        trace_s := !trace_s +. t;
        engine_s := !engine_s +. te;
        n_acc := !n_acc + accesses p;
        op ctx (ktag k ^ " verdict") (fun () ->
            match v with
            | Error e -> [ e ]
            | Ok vs ->
              plans := !plans + List.length vs;
              expect (List.length vs = expected_plans) "wrong number of plans"
              @ expect (not (Racecheck.verdicts_racy vs)) "racy verdict"
              @ Racecheck.verdicts_disagreements vs))
      (shuffle ctx compiled_kernels);
    sample ctx "verdict" (!trace_s +. !engine_s);
    sample ctx "racecheck.trace" !trace_s;
    sample ctx "racecheck.engine" !engine_s;
    sample ctx "racecheck.accesses" (float_of_int !n_acc);
    sample ctx "racecheck.plans" (float_of_int !plans);
    List.length compiled_kernels
  in
  let round () =
    let compiled_apps, compiled_kernels = Option.get !state in
    let ops = shuffle ctx (`Gallery :: List.map (fun ac -> `App ac) compiled_apps) in
    let t, n =
      time (fun () ->
          List.fold_left
            (fun n -> function `App ac -> n + run_app ac | `Gallery -> n + verdicts compiled_kernels)
            0 ops)
    in
    (n, t)
  in
  let metrics () =
    let med k = Stats.median (samples ctx k) in
    kind_latency ctx ("verdict" :: List.map (fun a -> "exec." ^ a) app_names)
    @ per_app ctx ~metric:"exec_s" ~unit:"s" (fun a -> "exec." ^ a)
    @ [ ("verdict_s", med "verdict", "s") ]
    @ per_app ctx ~metric:"interp.run_s.modeled" ~unit:"s" (fun a -> "run." ^ a)
    @ per_app ctx ~metric:"interp.alloc_mw.modeled" ~unit:"Mw" (fun a -> "alloc." ^ a)
    @ per_app ctx ~metric:"machine.simulate_s" ~unit:"s" (fun a -> "sim." ^ a)
    @ [
        ("racecheck.trace_s", med "racecheck.trace", "s");
        ("racecheck.engine_s", med "racecheck.engine", "s");
        ("racecheck.accesses", med "racecheck.accesses", "count");
        ("racecheck.plans", med "racecheck.plans", "count");
      ]
  in
  let traced spans =
    let selfs = Span.self_times spans in
    List.map
      (fun a -> ("interp.run_s.modeled." ^ a, span_median selfs ~name:"interp.run" ~tag:a, "s"))
      app_names
  in
  { setup; round; metrics; traced; teardown = ignore }

(** The default [purec run] and [purec racecheck]: the same interpreter
    Modeled and Traced, the machine model and both race engines. *)
let paper_modeled =
  {
    name = "paper-modeled";
    round_s = 3.2;
    definition =
      (fun size ->
        Printf.sprintf
          "paper-modeled v1: pure chain; each round runs every app Modeled at 1 domain plus \
           Machine.Model.simulate at %s cores, and race verdicts (%d plans) for gallery [%s], \
           seeded order; %s"
          (String.concat "," (List.map string_of_int F.paper_cores))
          expected_plans
          (String.concat ","
             (List.map (fun (k : Workloads.Kernels.kernel) -> k.Workloads.Kernels.k_name) (gallery size)))
          (describe_scale (modeled_scale_of size)));
    make = make_modeled;
  }
