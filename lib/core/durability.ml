type report = {
  committed : int;
  recovered : int;
  lost : int list;
  extra : int list;
}

module Int_set = Set.Make (Int)

let compare_txids ~committed ~recovered =
  let committed_set = Int_set.of_list committed in
  let recovered_set = Int_set.of_list recovered in
  let lost = Int_set.elements (Int_set.diff committed_set recovered_set) in
  let extra = Int_set.elements (Int_set.diff recovered_set committed_set) in
  {
    committed = Int_set.cardinal committed_set;
    recovered = Int_set.cardinal (Int_set.inter committed_set recovered_set);
    lost;
    extra;
  }

(* The same comparison for callers that maintain the acknowledged set
   as a sorted array: one merge walk, no per-call set building. The
   crash sweep calls this once per crash point. *)
let compare_sorted ~committed ~n ~recovered =
  let lost = ref [] and extra = ref [] and inter = ref 0 in
  let i = ref 0 in
  List.iter
    (fun r ->
      while !i < n && committed.(!i) < r do
        lost := committed.(!i) :: !lost;
        incr i
      done;
      if !i < n && committed.(!i) = r then begin
        incr i;
        incr inter
      end
      else extra := r :: !extra)
    recovered;
  while !i < n do
    lost := committed.(!i) :: !lost;
    incr i
  done;
  { committed = n; recovered = !inter; lost = List.rev !lost; extra = List.rev !extra }

let holds report = report.lost = []

type store_diff = { key : int; expected : string option; actual : string option }

let diff_stores ~expected ~actual =
  let diffs = ref [] in
  Hashtbl.iter
    (fun key value ->
      match Hashtbl.find_opt actual key with
      | Some v when String.equal v value -> ()
      | actual_value ->
          diffs := { key; expected = Some value; actual = actual_value } :: !diffs)
    expected;
  Hashtbl.iter
    (fun key value ->
      if not (Hashtbl.mem expected key) then
        diffs := { key; expected = None; actual = Some value } :: !diffs)
    actual;
  List.sort (fun a b -> Int.compare a.key b.key) !diffs

(* [diff_stores] over the keys [skip] rejects, checked against it by
   test. One pass over [expected], skipping [skip] keys. The pass over
   [actual] only finds keys [expected] lacks; it is skipped when every
   kept expected key matched and [actual] holds nothing else: its size
   is the matched keys plus the skipped expected keys it holds. *)
let diff_stores_skipping ~skip ~expected ~actual =
  let diffs = ref [] and matched = ref 0 and skipped_held = ref 0 in
  Hashtbl.iter
    (fun key value ->
      if skip key then begin
        if Hashtbl.mem actual key then incr skipped_held
      end
      else
        match Hashtbl.find_opt actual key with
        | Some v when String.equal v value -> incr matched
        | actual_value ->
            diffs := { key; expected = Some value; actual = actual_value } :: !diffs)
    expected;
  if not (!diffs = [] && Hashtbl.length actual = !matched + !skipped_held) then
    Hashtbl.iter
      (fun key value ->
        if not (skip key || Hashtbl.mem expected key) then
          diffs := { key; expected = None; actual = Some value } :: !diffs)
      actual;
  List.sort (fun a b -> Int.compare a.key b.key) !diffs

(* Coalescing merges overlapping sector rewrites, so drained bytes can be
   smaller than acked bytes; conservation is "nothing acknowledged is still
   sitting in the buffer". *)
let logger_conservation logger = Trusted_logger.buffered_bytes logger = 0

let pp_report fmt report =
  Format.fprintf fmt "committed=%d recovered=%d lost=%d extra=%d" report.committed
    report.recovered (List.length report.lost) (List.length report.extra)
