(** Order statistics over timing samples. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

(** The [q]-quantile ([0 <= q <= 1]) by linear interpolation between the
    closest order statistics; [nan] for no samples. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let median xs = percentile 0.5 xs

let geomean xs =
  match xs with
  | [] -> Float.nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(** First and third quartile exactly as Python's
    [statistics.quantiles(xs, n=4)] computes them (the default "exclusive"
    method), so a spread computed here matches one computed there. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let cut i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 3)
  end

(** Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. median xs
