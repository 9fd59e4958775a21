(** The harness's only doors into the toolchain's compile and execute
    paths.

    Untraced, {!compile} and {!execute} call [Toolchain.Chain.compile] and
    [Toolchain.Chain.execute] unchanged.  Traced ({!staged} set), they make
    the same calls into each layer one at a time, in the order
    [Chain.compile] and [Chain.execute] make them, each inside a {!Span}:
    [cpp], [cfront.parse], [sema], [purity.check], [purity.mark], [pluto],
    [purity.lower], [cfront.print], [interp.load] and [interp.run].  The
    workloads add spans around their other layer calls ([runtime.pool],
    [machine.simulate], [racecheck.verdict], [serve.*]).

    The staged copy must stay byte-faithful to the chain, so every emitted
    C text and every program output is also recorded in a fidelity table:
    a program seen both ways must produce the same bytes both ways
    ({!fidelity}). *)

open Toolchain

let staged = ref false

(* ------------------------------------------------------------------ *)
(* Fidelity: (what, mode, program) -> digest and the path that made it *)

let table : (string * string * string, Digest.t * bool) Hashtbl.t = Hashtbl.create 256

let compared = ref 0

let mismatches = ref []

let witness ~what ~mode ~tag text =
  let d = Digest.string text in
  let key = (what, mode, tag) in
  match Hashtbl.find_opt table key with
  | None -> Hashtbl.replace table key (d, !staged)
  | Some (d0, staged0) ->
    if staged0 <> !staged then begin
      incr compared;
      if d0 <> d then
        mismatches :=
          Printf.sprintf "%s of %s (%s) differs between the staged and the chain path" what
            tag mode
          :: !mismatches
    end

(** Comparisons made between the staged and the chain path, and the
    differences found. *)
let fidelity () = (!compared, List.rev !mismatches)

(* ------------------------------------------------------------------ *)
(* Pure-chain census: summed over the distinct programs compiled *)

let census : (string, int * int * int) Hashtbl.t = Hashtbl.create 64

(** [(units parallelized, units rejected, scops marked)] over every
    distinct program compiled with the pure chain. *)
let census_totals () =
  Hashtbl.fold (fun _ (p, r, s) (ap, ar, as_) -> (ap + p, ar + r, as_ + s)) census (0, 0, 0)

(* ------------------------------------------------------------------ *)

let mode_name = function
  | Chain.Sequential -> "seq"
  | Chain.Pure_chain _ -> "pure"
  | Chain.Plain_pluto _ -> "pluto"
  | Chain.Manual_omp -> "manual"

let print tag f = Span.with_ ~tag "cfront.print" f

(* [Chain.compile], one layer call at a time *)
let compile_staged ~tag mode source : Chain.compiled =
  let reporter = Support.Diag.create_reporter () in
  let stripped, preprocessed =
    Span.with_ ~tag "cpp" (fun () ->
        let stripped = Cpp.Pc_prepro.strip source in
        let env = Cpp.Preproc.create ~reporter () in
        (stripped, Cpp.Preproc.run env stripped.Cpp.Pc_prepro.source))
  in
  Chain.fail_if_errors reporter;
  let program =
    Span.with_ ~tag "cfront.parse" (fun () ->
        Cfront.Parser.program_of_string ~reporter preprocessed)
  in
  Span.with_ ~tag "sema" (fun () -> ignore (Sema.Typecheck.check_program ~reporter program));
  Chain.fail_if_errors reporter;
  let stages = ref [ ("gcc-E", preprocessed); ("pc-prepro", stripped.Cpp.Pc_prepro.source) ] in
  let finish ast outcomes scops =
    let emitted =
      print tag (fun () ->
          Pluto.strip_unit_tags
            (Cpp.Pc_prepro.reinsert stripped (Cfront.Ast_printer.program_to_string ast)))
    in
    stages := ("pc-pospro", emitted) :: !stages;
    {
      Chain.c_ast = ast;
      c_emitted = emitted;
      c_outcomes = outcomes;
      c_diags = Support.Diag.diagnostics reporter;
      c_stage_sources = List.rev !stages;
      c_scops = scops;
    }
  in
  match mode with
  | Chain.Sequential -> finish program [] 0
  | Chain.Pure_chain adjust ->
    let registry =
      Span.with_ ~tag "purity.check" (fun () ->
          Purity.Purity_check.check_program ~reporter program)
    in
    Chain.fail_if_errors reporter;
    let marked =
      Span.with_ ~tag "purity.mark" (fun () ->
          Purity.Scop_marker.mark ~registry ~reporter program)
    in
    Chain.fail_if_errors reporter;
    let scops, summaries =
      Span.with_ ~tag "purity.mark" (fun () ->
          ( Purity.Scop_marker.count_scops marked,
            Purity.Fn_metadata.summarize_program marked ))
    in
    stages := ("pc-cc", print tag (fun () -> Cfront.Ast_printer.program_to_string marked)) :: !stages;
    let config =
      adjust { Pluto.default_config with hide_pure_calls = Some registry; fn_summaries = summaries }
    in
    let transformed, outcomes = Span.with_ ~tag "pluto" (fun () -> Pluto.run ~config marked) in
    stages :=
      ( "polycc",
        print tag (fun () ->
            Pluto.strip_unit_tags (Cfront.Ast_printer.program_to_string transformed)) )
      :: !stages;
    let lowered = Span.with_ ~tag "purity.lower" (fun () -> Purity.Lowering.lower transformed) in
    finish lowered outcomes scops
  | Chain.Plain_pluto _ | Chain.Manual_omp -> invalid_arg "Stages.compile: unsupported mode"

(** Compile [source] under [mode] (only [Sequential] and [Pure_chain] are
    staged).  [tag] names the program in spans and in the fidelity table.
    Raises [Chain.Compile_error] like the chain. *)
let compile ~tag mode source : Chain.compiled =
  let c =
    if !staged then Span.with_ ~tag "chain.compile" (fun () -> compile_staged ~tag mode source)
    else Chain.compile ~mode source
  in
  witness ~what:"emitted C" ~mode:(mode_name mode) ~tag c.Chain.c_emitted;
  (match mode with
  | Chain.Pure_chain _ ->
    let par, rej = Pluto.summarize c.Chain.c_outcomes in
    Hashtbl.replace census tag (par, rej, c.Chain.c_scops)
  | _ -> ());
  c

(** Minor-heap words allocated on the calling domain inside staged
    [interp.run] spans, and the number of such spans. *)
let run_alloc_words = ref 0.0

let run_calls = ref 0

(** Forget everything recorded, for the next run in this process. *)
let reset () =
  Hashtbl.reset table;
  compared := 0;
  mismatches := [];
  Hashtbl.reset census;
  run_alloc_words := 0.0;
  run_calls := 0

(** Execute like [Chain.execute]; staged, as [Interp.Exec.load] then
    [Interp.Exec.run_main]. *)
let execute ~tag ?(trace_accesses = false) ?(no_model = false) ?(shadow_slots = false) ?pool
    (c : Chain.compiled) : Interp.Trace.profile =
  let p =
    if not !staged then Chain.execute ~trace_accesses ~no_model ~shadow_slots ?pool c
    else
      Span.with_ ~tag "chain.execute" (fun () ->
          let instr =
            if trace_accesses then Interp.Compile.Traced
            else if no_model then Interp.Compile.Fast
            else Interp.Compile.Modeled
          in
          let cenv =
            Span.with_ ~tag "interp.load" (fun () ->
                Interp.Exec.load ~l1_bytes:Chain.scaled_l1_bytes ~l2_bytes:Chain.scaled_l2_bytes
                  ~instr ~shadow_slots ?pool c.Chain.c_ast)
          in
          let w0 = Gc.minor_words () in
          let p = Span.with_ ~tag "interp.run" (fun () -> Interp.Exec.run_main cenv) in
          run_alloc_words := !run_alloc_words +. (Gc.minor_words () -. w0);
          incr run_calls;
          p)
  in
  witness ~what:"output" ~mode:"" ~tag p.Interp.Trace.output;
  p
