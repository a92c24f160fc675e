type t =
  | Begin of { txid : int }
  | Update of { txid : int; key : int; before : string; after : string }
  | Commit of { txid : int }
  | Abort of { txid : int }
  | Checkpoint of { redo_lsn : Lsn.t }
  | Noop of { filler : int }
  | Commit_multi of { txid : int; deps : int array }
  | Abort_multi of { txid : int; deps : int array }

let magic = 0xA55A

(* Framing: a 7-byte prefix (magic, kind, len), the body, then a trailing
   CRC-32 of everything from the kind byte onwards. Keeping the CRC last
   makes its covered region contiguous, so no temporary buffer is needed
   to check it. [header_size] is the total framing overhead. *)
let prefix_size = 7
let trailer_size = 4
let header_size = prefix_size + trailer_size
let max_body = 1 lsl 20

let pp fmt = function
  | Begin { txid } -> Format.fprintf fmt "Begin(%d)" txid
  | Update { txid; key; before; after } ->
      Format.fprintf fmt "Update(txid=%d key=%d %dB->%dB)" txid key
        (String.length before) (String.length after)
  | Commit { txid } -> Format.fprintf fmt "Commit(%d)" txid
  | Abort { txid } -> Format.fprintf fmt "Abort(%d)" txid
  | Checkpoint { redo_lsn } -> Format.fprintf fmt "Checkpoint(%a)" Lsn.pp redo_lsn
  | Noop { filler } -> Format.fprintf fmt "Noop(%d)" filler
  | Commit_multi { txid; deps } ->
      Format.fprintf fmt "CommitV(txid=%d deps=[%s])" txid
        (String.concat ";" (Array.to_list (Array.map string_of_int deps)))
  | Abort_multi { txid; deps } ->
      Format.fprintf fmt "AbortV(txid=%d deps=[%s])" txid
        (String.concat ";" (Array.to_list (Array.map string_of_int deps)))

let kind_code = function
  | Begin _ -> 1
  | Update _ -> 2
  | Commit _ -> 3
  | Abort _ -> 4
  | Checkpoint _ -> 5
  | Noop _ -> 6
  | Commit_multi _ -> 7
  | Abort_multi _ -> 8

(* The multi-stream outcome records are fixed-width in the stream count:
   the engine computes a commit record's end LSN *before* appending it
   (the record's own dependency slot includes itself), which only works
   because the size does not depend on the dependency values. *)
let body_size = function
  | Begin _ | Commit _ | Abort _ -> 8
  | Update { before; after; _ } -> 8 + 8 + 4 + String.length before + 4 + String.length after
  | Checkpoint _ -> 8
  | Noop { filler } -> filler
  | Commit_multi { deps; _ } | Abort_multi { deps; _ } -> 8 + 1 + (8 * Array.length deps)

let encoded_size t = header_size + body_size t

let encode_body t body =
  let set64 pos v = Bytes.set_int64_le body pos (Int64.of_int v) in
  match t with
  | Begin { txid } | Commit { txid } | Abort { txid } -> set64 0 txid
  | Checkpoint { redo_lsn } -> set64 0 (Lsn.to_int redo_lsn)
  | Noop _ -> ()
  | Update { txid; key; before; after } ->
      set64 0 txid;
      set64 8 key;
      Bytes.set_int32_le body 16 (Int32.of_int (String.length before));
      Bytes.blit_string before 0 body 20 (String.length before);
      let after_pos = 20 + String.length before in
      Bytes.set_int32_le body after_pos (Int32.of_int (String.length after));
      Bytes.blit_string after 0 body (after_pos + 4) (String.length after)
  | Commit_multi { txid; deps } | Abort_multi { txid; deps } ->
      assert (Array.length deps <= 255);
      set64 0 txid;
      Bytes.set_uint8 body 8 (Array.length deps);
      Array.iteri (fun i dep -> set64 (9 + (8 * i)) dep) deps

let encode t =
  let blen = body_size t in
  assert (blen <= max_body);
  let buf = Bytes.make (header_size + blen) '\000' in
  let body = Bytes.make blen '\000' in
  encode_body t body;
  Bytes.set_uint16_le buf 0 magic;
  Bytes.set_uint8 buf 2 (kind_code t);
  Bytes.set_int32_le buf 3 (Int32.of_int blen);
  Bytes.blit body 0 buf prefix_size blen;
  Bytes.set_int32_le buf (prefix_size + blen)
    (Crc32.digest_bytes buf ~pos:2 ~len:(prefix_size - 2 + blen));
  Bytes.unsafe_to_string buf

(* Single-pass encoding: each field goes into the stream buffer and the
   running CRC together, little-endian, with no intermediate record
   buffer and no boxed int32/int64 temporaries (the [Buffer] writers are
   inlined from the stdlib). Fixed-width fields are checksummed a word
   at a time and the [Noop] filler in blocks, both through the
   slicing-by-8 kernel. This is the per-append hot path of every WAL
   stream — with the buffer warm (no growth) it allocates nothing, which
   bench/perf.exe gates. Loops are tail recursion rather than closures
   so no environment is built. *)

let put_u32 buf crc v =
  Buffer.add_int32_le buf (Int32.of_int v);
  Crc32.update_int32_le crc v

let put_u64 buf crc v =
  Buffer.add_int64_le buf (Int64.of_int v);
  Crc32.update_int64_le crc v

let put_string buf crc s =
  Buffer.add_string buf s;
  Crc32.update_string crc s ~pos:0 ~len:(String.length s)

let zeros = String.make 256 '\000'

let rec put_zeros buf crc n =
  if n = 0 then crc
  else begin
    let k = min n (String.length zeros) in
    Buffer.add_substring buf zeros 0 k;
    put_zeros buf (Crc32.update_string crc zeros ~pos:0 ~len:k) (n - k)
  end

let rec put_deps buf crc deps i =
  if i = Array.length deps then crc
  else put_deps buf (put_u64 buf crc (Array.unsafe_get deps i)) deps (i + 1)

let encode_into t buf =
  let blen = body_size t in
  assert (blen <= max_body);
  Buffer.add_uint16_le buf magic;
  let kind = kind_code t in
  Buffer.add_uint8 buf kind;
  let crc = put_u32 buf (Crc32.update_byte Crc32.init kind) blen in
  let crc =
    match t with
    | Begin { txid } | Commit { txid } | Abort { txid } -> put_u64 buf crc txid
    | Checkpoint { redo_lsn } -> put_u64 buf crc (Lsn.to_int redo_lsn)
    | Noop { filler } -> put_zeros buf crc filler
    | Update { txid; key; before; after } ->
        let crc = put_u64 buf crc txid in
        let crc = put_u64 buf crc key in
        let crc = put_u32 buf crc (String.length before) in
        let crc = put_string buf crc before in
        let crc = put_u32 buf crc (String.length after) in
        put_string buf crc after
    | Commit_multi { txid; deps } | Abort_multi { txid; deps } ->
        assert (Array.length deps <= 255);
        let crc = put_u64 buf crc txid in
        let count = Array.length deps in
        Buffer.add_uint8 buf count;
        put_deps buf (Crc32.update_byte crc count) deps 0
  in
  Buffer.add_int32_le buf (Int32.of_int (Crc32.finish crc))

let u64 s pos = Int64.to_int (String.get_int64_le s pos)
let u32 s pos = Int32.to_int (String.get_int32_le s pos)

let decode_body kind s ~pos ~len =
  let fits n = len >= n in
  match kind with
  | 1 when fits 8 -> Some (Begin { txid = u64 s pos })
  | 3 when fits 8 -> Some (Commit { txid = u64 s pos })
  | 4 when fits 8 -> Some (Abort { txid = u64 s pos })
  | 5 when fits 8 -> Some (Checkpoint { redo_lsn = Lsn.of_int (u64 s pos) })
  | 6 -> Some (Noop { filler = len })
  | 2 when fits 20 ->
      let blen = u32 s (pos + 16) in
      if blen < 0 || 20 + blen + 4 > len then None
      else begin
        let alen = u32 s (pos + 20 + blen) in
        if alen < 0 || 20 + blen + 4 + alen <> len then None
        else
          Some
            (Update
               {
                 txid = u64 s pos;
                 key = u64 s (pos + 8);
                 before = String.sub s (pos + 20) blen;
                 after = String.sub s (pos + 24 + blen) alen;
               })
      end
  | (7 | 8) when fits 9 ->
      let count = String.get_uint8 s (pos + 8) in
      if len <> 9 + (8 * count) then None
      else begin
        let deps = Array.init count (fun i -> u64 s (pos + 9 + (8 * i))) in
        let txid = u64 s pos in
        if kind = 7 then Some (Commit_multi { txid; deps })
        else Some (Abort_multi { txid; deps })
      end
  | _ -> None

(* The framing decision: the record at [pos] judged from the bytes
   [pos, len) alone. [Short n]: a valid start so far, and at least [n]
   more bytes decide it. Bytes past the record never change a verdict. *)
type frame = Record of t * int | Short of int | Invalid

let frame s ~pos ~len =
  let avail = len - pos in
  if avail < prefix_size then Short (prefix_size - avail)
  else if String.get_uint16_le s pos <> magic then Invalid
  else begin
    let blen = u32 s (pos + 3) in
    if blen < 0 || blen > max_body then Invalid
    else if avail < header_size + blen then Short (header_size + blen - avail)
    else begin
      let kind = String.get_uint8 s (pos + 2) in
      let crc = String.get_int32_le s (pos + prefix_size + blen) in
      if Crc32.digest s ~pos:(pos + 2) ~len:(prefix_size - 2 + blen) <> crc then
        Invalid
      else
        match decode_body kind s ~pos:(pos + prefix_size) ~len:blen with
        | Some record -> Record (record, header_size + blen)
        | None -> Invalid
    end
  end

let decode s ~pos =
  match frame s ~pos ~len:(String.length s) with
  | Record (record, size) -> Some (record, size)
  | Short _ | Invalid -> None

(* The window holds the stream bytes [base, base + length window) and
   decoding stands at [pos] (at most one initial skip lies past the
   window's end). On [Short n] only the unconsumed tail is kept and at
   least [n] more bytes are requested, so the stream is read once, in
   order, and stops within one request of the record that ends it. *)
let scan ~base ~pos read =
  let rec go window base pos acc =
    let len = String.length window in
    match frame window ~pos:(pos - base) ~len with
    | Record (record, size) ->
        let pos = pos + size in
        go window base pos ((record, Lsn.of_int pos) :: acc)
    | Invalid -> List.rev acc
    | Short need -> (
        match read need with
        | "" -> List.rev acc
        | more ->
            let used = min (pos - base) len in
            let window =
              if used = len then more else String.sub window used (len - used) ^ more
            in
            go window (base + used) pos acc)
  in
  go "" base pos []

let decode_stream s =
  let pending = ref s in
  scan ~base:0 ~pos:0 (fun _ ->
      let next = !pending in
      pending := "";
      next)
