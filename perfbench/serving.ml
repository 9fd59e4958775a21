(** serve-mix: the [purec serve] daemon under a closed loop of clients
    that each wait for their reply before sending again. *)

open Harness
module Chain = Toolchain.Chain
module J = Serve.Protocol

let clients = domains

let queue_depth = 64

let per_round = function Full -> 100 | Smoke -> 25

(* the request mix, per block of 20: 12 cold runs, 4 repeats, 2 compiles,
   1 modeled run, 1 rejected source *)
let block = [ `Cold; `Cold; `Cold; `Cold; `Cold; `Cold; `Cold; `Cold; `Cold; `Cold; `Cold; `Cold;
              `Warm; `Warm; `Warm; `Warm; `Compile; `Compile; `Modeled; `Rejected ]

(* sources the purity verifier must reject; read by the server itself *)
let rejected_files = [ "perfbench/inputs/listing2.c"; "perfbench/inputs/listing4.c" ]

let kind_names = [ "cold"; "warm"; "compile"; "modeled"; "rejected" ]

type request = {
  kind : string;
  fields : (string * J.json) list;  (** everything but the id *)
  check : J.json -> string list;  (** problems with a reply *)
}

let program_output out =
  "--- program output ---\n" ^ out ^ "--- end output ---\n"

let contains ~needle s = Support.Util.string_contains ~needle s

let field_str r k = match J.field r k with Some (J.Str s) -> s | _ -> ""

let field_int r k = match J.field r k with Some (J.Int n) -> n | _ -> -1

let exit_is code r =
  expect (field_int r "exit" = code)
    (Printf.sprintf "exit %d (%s), expected %d" (field_int r "exit") (field_str r "status") code)

let make ctx ~rounds =
  let fresh_seed = fuzz_seeds ctx in
  (* a program and its Sequential-mode output *)
  let program tag source =
    let c = Stages.compile ~tag Chain.Sequential source in
    (tag, source, (Stages.execute ~tag ~no_model:true c).Interp.Trace.output)
  in
  let fresh () =
    let seed = fresh_seed () in
    program (Printf.sprintf "fuzz.%d" seed) (Fuzzgen.Gen.source_of_seed seed)
  in
  let request kind (tag, source, out) =
    match kind with
    | `Cold | `Modeled ->
      let modeled = kind = `Modeled in
      {
        kind = (if modeled then "modeled" else "cold");
        fields =
          [ ("cmd", J.Str "run"); ("source", J.Str source) ]
          @ if modeled then [] else [ ("no_model", J.Bool true) ];
        check =
          (fun r ->
            exit_is 0 r
            @ expect
                (contains ~needle:(program_output out) (field_str r "stdout"))
                "wrong program output"
            @ expect
                ((not modeled) || contains ~needle:"simulated gcc timing:" (field_str r "stdout"))
                "no simulated timing");
      }
    | `Compile ->
      let c = Stages.compile ~tag Paper.pure source in
      let expected = Format.asprintf "%a" (fun ppf c -> Chain.pp_compile_result ppf c) c in
      {
        kind = "compile";
        fields = [ ("cmd", J.Str "compile"); ("source", J.Str source) ];
        check =
          (fun r -> exit_is 0 r @ expect (field_str r "stdout" = expected) "wrong compile output");
      }
  in
  let rejected file =
    {
      kind = "rejected";
      fields = [ ("cmd", J.Str "run"); ("file", J.Str file); ("no_model", J.Bool true) ];
      check =
        (fun r ->
          exit_is Chain.exit_purity_error r
          @ expect
              (match J.field r "diags" with
              | Some (J.Arr ds) ->
                List.exists
                  (function J.Str d -> contains ~needle:"pure.external-ptr-no-cast" d | _ -> false)
                  ds
              | _ -> false)
              "no pure.external-ptr-no-cast diagnostic");
    }
  in
  let repeat r = { r with kind = "warm" } in
  (* the measured stream: a repeat re-sends an earlier request at least
     four places back, so its reply is normally memoized by then *)
  let stream n =
    let reqs = Array.make n (rejected (List.hd rejected_files)) in
    (* indices of the non-repeat requests so far, ascending *)
    let originals = Array.make n 0 and n_originals = ref 0 in
    List.concat (List.init ((n + 19) / 20) (fun _ -> shuffle ctx block))
    |> List.filteri (fun i _ -> i < n)
    |> List.iteri (fun i kind ->
           let eligible = ref !n_originals in
           while !eligible > 0 && originals.(!eligible - 1) > i - 4 do
             decr eligible
           done;
           reqs.(i) <-
             (match kind with
             | `Warm when !eligible > 0 ->
               repeat reqs.(originals.(Random.State.int ctx.rng !eligible))
             | `Warm | `Cold -> request `Cold (fresh ())
             | (`Compile | `Modeled) as k -> request k (fresh ())
             | `Rejected ->
               rejected (List.nth rejected_files (Random.State.int ctx.rng (List.length rejected_files))));
           if reqs.(i).kind <> "warm" then begin
             originals.(!n_originals) <- i;
             incr n_originals
           end);
    reqs
  in
  (* the warm-up sends the same requests whatever the seed, so set-up time
     does not move with the programs a seed draws: every app (cold run), the
     gallery but doitgen (compile), two modeled runs, both rejected sources
     and two repeats *)
  let warmup =
    let app (a : Paper.app) = program ("app." ^ a.Paper.name) a.Paper.source in
    let kernel name =
      program ("k." ^ name) (Option.get (Workloads.Kernels.find name)).Workloads.Kernels.k_source
    in
    let firsts =
      List.map (fun a -> request `Cold (app a)) (Paper.apps Toolchain.Figures.test_scale)
      @ List.filter_map
          (fun (k : Workloads.Kernels.kernel) ->
            let name = k.Workloads.Kernels.k_name in
            if name = "doitgen" then None else Some (request `Compile (kernel name)))
          Workloads.Kernels.all
      @ [ request `Modeled (kernel "antidiag"); request `Modeled (kernel "jacobi-1d") ]
      @ List.map rejected rejected_files
    in
    Array.of_list (firsts @ [ repeat (List.nth firsts 0); repeat (List.nth firsts 4) ])
  in
  let n = per_round ctx.size in
  let measured = stream (n * rounds) in
  let next_round = ref 0 in
  (* Send [reqs] through [srv] with [clients] requests in flight at most;
     returns each request's (reply, send time, reply time) and the wall
     time of the loop. *)
  let drive srv (reqs : request array) =
    let n = Array.length reqs in
    let m = Mutex.create () and cv = Condition.create () in
    let sent = Array.make n 0.0 in
    let received = ref [] in
    let next_i = ref 0 and in_flight = ref 0 in
    let next () =
      Mutex.lock m;
      while !in_flight >= clients && !next_i < n do
        Condition.wait cv m
      done;
      let line =
        if !next_i >= n then None
        else begin
          let i = !next_i in
          incr next_i;
          incr in_flight;
          sent.(i) <- now ();
          Some (J.to_string (J.Obj (("id", J.Int i) :: reqs.(i).fields)))
        end
      in
      Mutex.unlock m;
      line
    in
    let emit line =
      let t = now () in
      Mutex.lock m;
      received := (t, line) :: !received;
      decr in_flight;
      Condition.signal cv;
      Mutex.unlock m
    in
    let wall, () = time (fun () -> Serve.Server.serve srv ~next ~emit) in
    let replies = Array.map (fun t -> (J.Null, t, Float.nan)) sent in
    List.iter
      (fun (t, line) ->
        let r = J.of_string line in
        let i = field_int r "id" in
        replies.(i) <- (r, sent.(i), t))
      !received;
    (replies, wall)
  in
  let elapsed_s r =
    match J.field r "elapsed_ms" with Some (J.Float f) -> f /. 1000.0 | _ -> Float.nan
  in
  let check_replies reqs replies =
    Array.iteri
      (fun i (r, _, _) ->
        op ctx (Printf.sprintf "request %d (%s)" i reqs.(i).kind) (fun () ->
            if r = J.Null then [ "no reply" ]
            else expect (field_str r "status" <> "busy") "busy reply" @ reqs.(i).check r))
      replies
  in
  let server = ref None in
  let teardown () =
    Option.iter Serve.Server.shutdown !server;
    server := None
  in
  let setup () =
    let srv =
      Span.with_ "serve.create" (fun () -> Serve.Server.create ~jobs:domains ~queue_depth ())
    in
    server := Some srv;
    let replies, _ = drive srv warmup in
    check_replies warmup replies
  in
  let round () =
    let srv = Option.get !server in
    let reqs = Array.sub measured (!next_round * n) n in
    incr next_round;
    let replies, wall =
      Span.with_ "serve.round" (fun () ->
          let parent = Span.current_parent () in
          let ((replies, _) as result) = drive srv reqs in
          (* the client's view of each request, and inside it the server's
             own [elapsed_ms] *)
          if !Span.enabled then
            Array.iteri
              (fun i (r, sent, received) ->
                let tag = reqs.(i).kind in
                let parent = Span.record ~tag ~parent "serve.request" ~start:sent ~stop:received in
                ignore
                  (Span.record ~tag ~parent "serve.handler"
                     ~start:(Float.max sent (received -. elapsed_s r))
                     ~stop:received))
              replies;
          result)
    in
    check_replies reqs replies;
    Array.iteri
      (fun i (r, sent, received) ->
        let latency = received -. sent in
        sample ctx "latency" latency;
        sample ctx ("latency." ^ reqs.(i).kind) latency;
        sample ctx "server" (elapsed_s r);
        sample ctx "outside" (latency -. elapsed_s r))
      replies;
    (n, wall)
  in
  let metrics () =
    let srv = Option.get !server in
    let stats =
      match Serve.Server.run_script srv [ {|{"id":"stats","cmd":"stats"}|} ] with
      | [ line ] -> J.of_string line
      | _ -> J.Null
    in
    let num path =
      let rec go j = function
        | [] -> (match j with J.Int n -> float_of_int n | J.Float f -> f | _ -> Float.nan)
        | k :: rest -> (match J.field j k with Some v -> go v rest | None -> Float.nan)
      in
      go stats path
    in
    let ratio cache = num [ cache; "hits" ] /. (num [ cache; "hits" ] +. num [ cache; "misses" ]) in
    let ms q key = 1000.0 *. Stats.percentile q (samples ctx key) in
    pooled_latency ctx "latency"
    @ List.map (fun k -> ("serve.latency_ms.p50." ^ k, ms 0.5 ("latency." ^ k), "ms")) kind_names
    @ [
        ("serve.latency_ms.p99", ms 0.99 "latency", "ms");
        ("serve.server_ms.p50", ms 0.5 "server", "ms");
        ("serve.outside_ms.p50", ms 0.5 "outside", "ms");
        ("serve.tu_cache.hit_ratio", ratio "tu_cache", "ratio");
        ("serve.memo.hit_ratio", ratio "reply_memo", "ratio");
        ("serve.queue.high_water", num [ "queue_high_water" ], "count");
        ("runtime.streamed", num [ "pool_streamed" ], "count");
        ("runtime.steals", num [ "pool_steals" ], "count");
        ("serve.busy", num [ "busy" ], "count");
      ]
  in
  { setup; round; metrics; traced = (fun _ -> []); teardown }

(** Cold runs, memo hits, compiles, modeled runs and rejected sources
    share one queue: a change that helps one kind of request and costs
    another shows. *)
let workload =
  {
    name = "serve-mix";
    round_s = 0.65;
    definition =
      (fun size ->
        Printf.sprintf
          "serve-mix v1: Serve.Server jobs=%d queue_depth=%d, %d closed-loop clients, %d \
           requests per round; per block of 20: 12 cold no_model runs of fresh Fuzzgen \
           programs, 4 repeats, 2 compiles, 1 modeled run, 1 rejected source from [%s]; \
           warm-up per setup: test_scale apps (cold), gallery but doitgen (compile), antidiag \
           and jacobi-1d (modeled), the rejected sources, 2 repeats"
          domains queue_depth clients (per_round size) (String.concat "," rejected_files));
    make;
  }
