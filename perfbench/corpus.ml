(** compile-corpus: many distinct programs through the pure chain. *)

open Harness
module Chain = Toolchain.Chain

type program = {
  tag : string;
  source : string;
  reference : float option;  (** an app's OCaml checksum *)
  mutable expected : string;  (** Sequential-mode output *)
}

(* The corpus's median compile time moves with the programs a seed draws:
   about 7% between seeds at 300 programs, so 1000 are drawn. *)
let fuzz_count = function Full -> 1000 | Smoke -> 20

let corpus ctx =
  let apps =
    List.map
      (fun (a : Paper.app) ->
        { tag = "app." ^ a.Paper.name; source = a.Paper.source; reference = Some a.Paper.reference; expected = "" })
      (Paper.apps Toolchain.Figures.test_scale)
  in
  let kernels =
    List.map
      (fun (k : Workloads.Kernels.kernel) ->
        {
          tag = "k." ^ k.Workloads.Kernels.k_name;
          source = k.Workloads.Kernels.k_source;
          reference = None;
          expected = "";
        })
      (Paper.gallery ctx.size)
  in
  let next_seed = fuzz_seeds ctx in
  let fuzz =
    List.init (fuzz_count ctx.size) (fun _ ->
        let s = next_seed () in
        {
          tag = Printf.sprintf "fuzz.%d" s;
          source = Fuzzgen.Gen.source_of_seed s;
          reference = None;
          expected = "";
        })
  in
  (apps, kernels, fuzz)

let make ctx ~rounds:_ =
  let apps, kernels, fuzz = corpus ctx in
  let programs = shuffle ctx (apps @ kernels @ fuzz) in
  List.iter
    (fun p ->
      let c = Stages.compile ~tag:p.tag Chain.Sequential p.source in
      let out = Stages.execute ~tag:p.tag ~no_model:true c in
      p.expected <- out.Interp.Trace.output;
      op ctx (p.tag ^ " sequential") (fun () ->
          expect (out.Interp.Trace.return_code = 0) "non-zero exit code"
          @ match p.reference with
            | Some reference -> checksum_ok ~reference p.expected
            | None -> []))
    programs;
  (* compile with the pure chain, then verify with one Fast execution at
     1 domain *)
  let process p =
    let t, c = time (fun () -> Stages.compile ~tag:p.tag Paper.pure p.source) in
    let tv, out = time (fun () -> Stages.execute ~tag:p.tag ~no_model:true c) in
    op ctx p.tag (fun () ->
        expect (out.Interp.Trace.output = p.expected) "output differs from sequential"
        @ expect (out.Interp.Trace.return_code = 0) "non-zero exit code");
    sample ctx "compile" t;
    sample ctx "verify" tv
  in
  (* warm up on the same programs whatever the seed, leaving out doitgen,
     whose compile alone would be most of the set-up *)
  let setup () = List.iter process (apps @ List.filter (fun p -> p.tag <> "k.doitgen") kernels) in
  let round () =
    let t, () = time (fun () -> List.iter process programs) in
    (List.length programs, t)
  in
  let metrics () =
    let compile = samples ctx "compile" in
    pooled_latency ctx "compile"
    @ [
        ("compile_s.p99", Stats.percentile 0.99 compile, "s");
        ("verify_ms.p50", 1000.0 *. Stats.median (samples ctx "verify"), "ms");
      ]
  in
  let traced spans =
    let durations name =
      List.filter_map
        (fun (s : Span.t) -> if s.Span.name = name then Some (Span.duration s) else None)
        spans
    in
    let parse_s = List.fold_left ( +. ) 0.0 (durations "cfront.parse") in
    (* source bytes behind every traced parse *)
    let bytes = Hashtbl.create 1024 in
    List.iter (fun p -> Hashtbl.replace bytes p.tag (String.length p.source)) programs;
    let parsed_bytes =
      List.fold_left
        (fun acc (s : Span.t) ->
          if s.Span.name = "cfront.parse" then
            acc + Option.value ~default:0 (Hashtbl.find_opt bytes s.Span.tag)
          else acc)
        0 spans
    in
    [
      ("pluto.s.p99", Stats.percentile 0.99 (durations "pluto"), "s");
      ("cfront.bytes_per_s", float_of_int parsed_bytes /. parse_s, "B/s");
    ]
  in
  { setup; round; metrics; traced; teardown = ignore }

(** Many distinct programs through the pure chain: the front end, purity
    and Pluto dominate and the pool is bypassed. *)
let workload =
  {
    name = "compile-corpus";
    round_s = 14.6;
    definition =
      (fun size ->
        Printf.sprintf
          "compile-corpus v1: 4 apps at test_scale, gallery [%s], %d Fuzzgen programs from the \
           seed; each round compiles every program with the pure chain and verifies one Fast \
           1-domain execution against its Sequential-mode output, seeded order"
          (String.concat ","
             (List.map (fun (k : Workloads.Kernels.kernel) -> k.Workloads.Kernels.k_name) (Paper.gallery size)))
          (fuzz_count size));
    make;
  }
