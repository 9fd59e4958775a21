(** In-memory spans recorded by the harness around its calls into the
    toolchain's layers.

    A span has a name (the layer, e.g. ["pluto"] or ["interp.run"]), a
    start and an end, the span that caused it, and a tag naming the
    program or request it worked on.  Spans are kept in memory while the
    run lasts; {!self_times} and {!by_name} derive the per-layer numbers,
    and {!write_chrome} writes the Chrome trace-event JSON that Perfetto
    and chrome://tracing load.  Recording is off unless {!enabled} is set,
    and then {!with_} costs one closure call. *)

type t = {
  id : int;
  name : string;
  tag : string;  (** program or request id; [""] when none *)
  parent : int;  (** id of the enclosing span, [-1] at top level *)
  start : float;  (** seconds, [Unix.gettimeofday] *)
  stop : float;
  domain : int;  (** recording domain, the Chrome trace's thread id *)
}

let enabled = ref false

let mutex = Mutex.create ()

let recorded : t list ref = ref []

let next_id = Atomic.make 0

(* ids of the spans open on this domain, innermost first *)
let open_spans : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let current_parent () = match Domain.DLS.get open_spans with p :: _ -> p | [] -> -1

let fresh_id () = Atomic.fetch_and_add next_id 1

let add (s : t) =
  Mutex.lock mutex;
  recorded := s :: !recorded;
  Mutex.unlock mutex

(** Record a span whose interval was measured elsewhere (a serve request is
    sent on one thread and answered on another); returns its id. *)
let record ?(tag = "") ?(parent = -1) name ~start ~stop =
  let id = fresh_id () in
  add { id; name; tag; parent; start; stop; domain = (Domain.self () :> int) };
  id

(** [with_ name f] runs [f] inside a span named [name] when recording is
    on; the spans [f] opens become its children. *)
let with_ ?(tag = "") name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = current_parent () in
    let stack = Domain.DLS.get open_spans in
    Domain.DLS.set open_spans (id :: stack);
    let start = Unix.gettimeofday () in
    let close () =
      let stop = Unix.gettimeofday () in
      Domain.DLS.set open_spans stack;
      add { id; name; tag; parent; start; stop; domain = (Domain.self () :> int) }
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(** Every span recorded so far, in start order. *)
let all () =
  Mutex.lock mutex;
  let l = !recorded in
  Mutex.unlock mutex;
  List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) l

let reset () =
  Mutex.lock mutex;
  recorded := [];
  Mutex.unlock mutex

let duration s = s.stop -. s.start

(* total length of the union of [intervals], each clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(** Each span paired with its self time: its duration minus the part of
    its interval that its child spans cover.  Overlapping children (two
    serve requests in flight at once) are counted once. *)
let self_times (spans : t list) : (t * float) list =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

type layer = { l_name : string; l_calls : int; l_total : float; l_self : float }

(** Calls, total time and self time per span name, heaviest self time
    first. *)
let by_name (spans : t list) : layer list =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let calls, total, self0 =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (calls + 1, total +. duration s, self0 +. self))
    (self_times spans);
  Hashtbl.fold
    (fun l_name (l_calls, l_total, l_self) acc -> { l_name; l_calls; l_total; l_self } :: acc)
    tbl []
  |> List.sort (fun a b -> compare (b.l_self, a.l_name) (a.l_self, b.l_name))

(** Write [spans] as Chrome trace-event JSON (complete events, times in
    microseconds from the first span). *)
let write_chrome path (spans : t list) =
  let module J = Serve.Protocol in
  let origin = match spans with s :: _ -> s.start | [] -> 0.0 in
  let us x = J.Float ((x -. origin) *. 1e6) in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("ph", J.Str "X");
        ("ts", us s.start);
        ("dur", J.Float (duration s *. 1e6));
        ("pid", J.Int 1);
        ("tid", J.Int s.domain);
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("tag", J.Str s.tag) ]);
      ]
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string (J.Obj [ ("traceEvents", J.Arr (List.map event spans)) ]));
      output_char oc '\n')
