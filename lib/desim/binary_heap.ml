(* The binary min-heap backend: three parallel arrays (times and
   sequence numbers unboxed, payloads plain), hole-based sifts, no
   per-event allocation in the steady state. This was the [Event_queue]
   implementation through PR 7; it now serves as the reference backend
   the timer wheel is model-checked and benchmarked against, and as the
   wheel's own overflow store for far-future events. Unlike the wheel it
   accepts inserts in any time order. *)

type 'a t = {
  mutable times : int array;      (* Time.to_ns of each entry *)
  mutable seqs : int array;       (* insertion order, breaks time ties *)
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
  mutable max_size : int;         (* high-water mark, for observability *)
}

(* Payload arrays cannot be pre-filled before the first element exists,
   so a queue starts at capacity zero and allocates on the first [add]. *)
let create () =
  { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0;
    max_size = 0 }

let lt q i tj sj = q.times.(i) < tj || (q.times.(i) = tj && q.seqs.(i) < sj)

let grow q payload =
  let cap = Array.length q.times in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let times = Array.make cap' 0 in
  let seqs = Array.make cap' 0 in
  let payloads = Array.make cap' payload in
  Array.blit q.times 0 times 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.payloads 0 payloads 0 q.size;
  q.times <- times;
  q.seqs <- seqs;
  q.payloads <- payloads

let set q i time seq payload =
  q.times.(i) <- time;
  q.seqs.(i) <- seq;
  q.payloads.(i) <- payload

(* Hole-based sifts: carry the displaced element in registers and write
   it exactly once, instead of swapping three arrays at every level. *)

let rec sift_up q i time seq payload =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt q parent time seq then set q i time seq payload
    else begin
      set q i q.times.(parent) q.seqs.(parent) q.payloads.(parent);
      sift_up q parent time seq payload
    end
  end
  else set q i time seq payload

let rec sift_down q i time seq payload =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  if l >= q.size then set q i time seq payload
  else begin
    let smallest = if r < q.size && lt q r q.times.(l) q.seqs.(l) then r else l in
    if lt q smallest time seq then begin
      set q i q.times.(smallest) q.seqs.(smallest) q.payloads.(smallest);
      sift_down q smallest time seq payload
    end
    else set q i time seq payload
  end

(* The raw form the timer wheel's overflow store uses: the wheel assigns
   sequence numbers itself (one counter across both structures), so the
   heap must accept them verbatim rather than stamp its own. *)
let add_seq q ~time_ns ~seq payload =
  if q.size = Array.length q.times then grow q payload;
  q.size <- q.size + 1;
  if q.size > q.max_size then q.max_size <- q.size;
  sift_up q (q.size - 1) time_ns seq payload

let add q ~time payload =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  add_seq q ~time_ns:(Time.to_ns time) ~seq payload

let length q = q.size
let max_length q = q.max_size
let scheduled q = q.next_seq
let is_empty q = q.size = 0

let min_time_ns q =
  assert (q.size > 0);
  q.times.(0)

let min_seq q =
  assert (q.size > 0);
  q.seqs.(0)

let min_time q = Time.of_ns (min_time_ns q)

(* Shared removal of the root. The freed slot is overwritten with a live
   payload so popped closures are not retained by the heap; only a fully
   drained queue keeps its final payload reachable until the next add. *)
let remove_min q =
  let root = q.payloads.(0) in
  q.size <- q.size - 1;
  let n = q.size in
  if n > 0 then begin
    let time = q.times.(n) and seq = q.seqs.(n) and payload = q.payloads.(n) in
    sift_down q 0 time seq payload;
    q.payloads.(n) <- q.payloads.(0)
  end;
  root

let pop_min q =
  assert (q.size > 0);
  remove_min q

let drain_one q ~f =
  if q.size = 0 then false
  else begin
    let time = Time.of_ns q.times.(0) in
    f time (remove_min q);
    true
  end
