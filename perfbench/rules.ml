(* Pure reporting rules shared by the benchmark and its tests: the
   percentile refusal rule, Python-compatible quartiles, the open-loop
   max-rate rule, failure counting and the metric-name grammar. *)

(* Samples strictly beyond the [p]-th percentile of [n] samples, for an
   integer percent [p]: floor (n * (100 - p) / 100). *)
let samples_beyond ~n ~p = n * (100 - p) / 100

(* A percentile is reported only when at least ten samples lie beyond
   it; p50 is always reportable once there is one sample. *)
let percentile_supported ~n ~p = n > 0 && (p <= 50 || samples_beyond ~n ~p >= 10)

(* Quartiles exactly as Python's [statistics.quantiles data ~n:4]
   (method 'exclusive'), so the spread printed here is the one an
   outside harness computes from the same values. *)
let quartiles values =
  let data = Array.of_list values in
  Array.sort compare data;
  let ld = Array.length data in
  if ld = 0 then invalid_arg "Rules.quartiles: no values";
  if ld = 1 then (data.(0), data.(0), data.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((data.(j - 1) *. float_of_int (4 - delta)) +. (data.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
  end

let median values =
  let _, m, _ = quartiles values in
  m

type rung = {
  rate : float;  (** offered arrivals per second *)
  p99_us : float option;  (** [None] when the p99 is refused *)
  offered : int;  (** arrivals inside the measurement window *)
  committed : int;  (** acknowledgements inside the window *)
}

(* A rung sustains its rate when its p99 meets the latency limit and the
   window's commits keep up with its arrivals to within [backlog_share]
   — otherwise the queue, and every later request's wait, is growing. A
   refused p99 never passes. *)
let rung_passes ~limit_us ~backlog_share r =
  match r.p99_us with
  | None -> false
  | Some p99 ->
      p99 <= limit_us
      && float_of_int r.committed >= (1. -. backlog_share) *. float_of_int r.offered

(* The highest ladder rate that passes; 0 when none does. *)
let max_rate ~limit_us ~backlog_share rungs =
  List.fold_left
    (fun best r ->
      if rung_passes ~limit_us ~backlog_share r && r.rate > best then r.rate
      else best)
    0. rungs

let fail_ratio ~attempted ~failed =
  if attempted < 1 then invalid_arg "Rules.fail_ratio: nothing attempted";
  float_of_int failed /. float_of_int attempted

(* Metric names: 1 to 64 of [A-Za-z0-9_.-], starting with a letter or a
   digit. *)
let valid_name name =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length name in
  n >= 1 && n <= 64
  && (match name.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char name

let max_end_to_end = 16
let max_per_layer = 128

(* Every problem with a metric list: bad names, duplicates, too many. *)
let name_errors ~cap names =
  let bad = List.filter (fun n -> not (valid_name n)) names in
  let rec dups seen = function
    | [] -> []
    | n :: rest -> if List.mem n seen then n :: dups seen rest else dups (n :: seen) rest
  in
  List.map (Printf.sprintf "invalid metric name %S") bad
  @ List.map (Printf.sprintf "duplicate metric name %S") (dups [] names)
  @
  if List.length names > cap then
    [ Printf.sprintf "%d metrics exceed the cap of %d" (List.length names) cap ]
  else []
