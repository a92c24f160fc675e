(* Table-driven CRC-32 over plain (untagged-arithmetic) ints,
   slicing-by-eight.

   The recovery scan CRC-checks every log record and every page image,
   and the crash-surface sweep runs recovery at tens of thousands of
   boundaries — so this is a hot path. Working in boxed [Int32] costs
   an allocation per byte; native ints are wide enough to hold the
   32-bit register on every platform OCaml 5 supports, so the inner
   loop is allocation-free. Slicing-by-eight folds eight input bytes
   per iteration through eight precomputed tables — the standard
   construction: [T.(0)] is the byte-at-a-time table, and
   [T.(k+1).(n) = T.(0).(T.(k).(n) land 0xFF) lxor (T.(k).(n) lsr 8)]
   advances a value through one more zero byte. The public interface
   still speaks [int32] (the on-disk trailer format), and the digests
   are bit-identical to the byte-at-a-time implementation. *)

let mask = 0xFFFFFFFF

(* Built eagerly at module initialisation, which runs on the main domain
   before the program can spawn another. A [lazy] here would be forced
   by whichever sweep worker computes the first CRC, and two domains
   forcing one lazy value at once is a race that raises
   [CamlinternalLazy.Undefined]. Once built the tables are never
   written, so every domain may read them. *)
let tables =
  let t0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
          else c := !c lsr 1
        done;
        !c)
  in
  let tables = Array.make 8 t0 in
  for k = 1 to 7 do
    let prev = tables.(k - 1) in
    tables.(k) <-
      Array.init 256 (fun n ->
          let c = prev.(n) in
          t0.(c land 0xFF) lxor (c lsr 8))
  done;
  tables

let t0 = tables.(0)
and t1 = tables.(1)
and t2 = tables.(2)
and t3 = tables.(3)
and t4 = tables.(4)
and t5 = tables.(5)
and t6 = tables.(6)
and t7 = tables.(7)

let[@inline] byte_s s i = Char.code (String.unsafe_get s i)
let[@inline] byte_b b i = Char.code (Bytes.unsafe_get b i)

let update_string_raw crc0 s ~pos ~len =
  assert (pos >= 0 && len >= 0);
  (* Locals, so the loop below keeps the tables in registers. *)
  let t0 = t0 and t1 = t1 and t2 = t2 and t3 = t3 in
  let t4 = t4 and t5 = t5 and t6 = t6 and t7 = t7 in
  let crc = ref crc0 in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 8 do
    let j = !i in
    let c = !crc in
    crc :=
      Array.unsafe_get t7 ((c lxor byte_s s j) land 0xFF)
      lxor Array.unsafe_get t6 (((c lsr 8) lxor byte_s s (j + 1)) land 0xFF)
      lxor Array.unsafe_get t5 (((c lsr 16) lxor byte_s s (j + 2)) land 0xFF)
      lxor Array.unsafe_get t4 (((c lsr 24) lxor byte_s s (j + 3)) land 0xFF)
      lxor Array.unsafe_get t3 (byte_s s (j + 4))
      lxor Array.unsafe_get t2 (byte_s s (j + 5))
      lxor Array.unsafe_get t1 (byte_s s (j + 6))
      lxor Array.unsafe_get t0 (byte_s s (j + 7));
    i := j + 8
  done;
  while !i < stop do
    crc := Array.unsafe_get t0 ((!crc lxor byte_s s !i) land 0xFF) lxor (!crc lsr 8);
    incr i
  done;
  !crc

let digest_string_raw s ~pos ~len =
  Int32.of_int (update_string_raw mask s ~pos ~len lxor mask land mask)

let digest_bytes_raw b ~pos ~len =
  assert (pos >= 0 && len >= 0);
  (* Locals, so the loop below keeps the tables in registers. *)
  let t0 = t0 and t1 = t1 and t2 = t2 and t3 = t3 in
  let t4 = t4 and t5 = t5 and t6 = t6 and t7 = t7 in
  let crc = ref mask in
  let i = ref pos in
  let stop = pos + len in
  while stop - !i >= 8 do
    let j = !i in
    let c = !crc in
    crc :=
      Array.unsafe_get t7 ((c lxor byte_b b j) land 0xFF)
      lxor Array.unsafe_get t6 (((c lsr 8) lxor byte_b b (j + 1)) land 0xFF)
      lxor Array.unsafe_get t5 (((c lsr 16) lxor byte_b b (j + 2)) land 0xFF)
      lxor Array.unsafe_get t4 (((c lsr 24) lxor byte_b b (j + 3)) land 0xFF)
      lxor Array.unsafe_get t3 (byte_b b (j + 4))
      lxor Array.unsafe_get t2 (byte_b b (j + 5))
      lxor Array.unsafe_get t1 (byte_b b (j + 6))
      lxor Array.unsafe_get t0 (byte_b b (j + 7));
    i := j + 8
  done;
  while !i < stop do
    crc := Array.unsafe_get t0 ((!crc lxor byte_b b !i) land 0xFF) lxor (!crc lsr 8);
    incr i
  done;
  Int32.of_int (!crc lxor mask land mask)

let digest s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.digest";
  digest_string_raw s ~pos ~len

let digest_string s = digest_string_raw s ~pos:0 ~len:(String.length s)

let digest_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.digest_bytes";
  digest_bytes_raw b ~pos ~len

(* Incremental interface over the same untagged register: the log
   append path feeds each field into the CRC as it writes it into the
   stream buffer, so no contiguous copy of the record ever exists. *)

type state = int

let init = mask

let[@inline] update_byte crc b =
  Array.unsafe_get t0 ((crc lxor b) land 0xFF) lxor (crc lsr 8)

(* Fixed-width fields go through the slicing kernel a word at a time:
   xor the register into the little-endian low four bytes and look up
   every byte position in its own table, exactly as the eight-byte loop
   above does for bytes read from a string. *)

let update_int32_le crc v =
  let x = crc lxor (v land mask) in
  Array.unsafe_get t3 (x land 0xFF)
  lxor Array.unsafe_get t2 ((x lsr 8) land 0xFF)
  lxor Array.unsafe_get t1 ((x lsr 16) land 0xFF)
  lxor Array.unsafe_get t0 ((x lsr 24) land 0xFF)

let update_int64_le crc v =
  let x = crc lxor (v land mask) in
  Array.unsafe_get t7 (x land 0xFF)
  lxor Array.unsafe_get t6 ((x lsr 8) land 0xFF)
  lxor Array.unsafe_get t5 ((x lsr 16) land 0xFF)
  lxor Array.unsafe_get t4 ((x lsr 24) land 0xFF)
  lxor Array.unsafe_get t3 ((v lsr 32) land 0xFF)
  lxor Array.unsafe_get t2 ((v lsr 40) land 0xFF)
  lxor Array.unsafe_get t1 ((v lsr 48) land 0xFF)
  lxor Array.unsafe_get t0 ((v asr 56) land 0xFF)

let update_string crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update_string";
  update_string_raw crc s ~pos ~len

let finish crc = crc lxor mask land mask
