(* The exact-read log scan: it must decode exactly what a whole-region
   read decodes, and read only the valid log plus one request. *)

open Testu
open Dbms

let ss = 512
let capacity = 1 lsl 17 (* sectors: 64 MiB *)

let pad_to_sector s =
  let r = String.length s mod ss in
  if r = 0 then s else s ^ String.make (ss - r) '\000'

let write media ~lba bytes =
  if bytes <> "" then Storage.Block.Media.write media ~lba ~data:(pad_to_sector bytes)

(* A frozen device over [media] that counts the bytes its durable reads
   return. *)
let counting_device media =
  let read_bytes = ref 0 in
  let frozen = Storage.Block.of_media media in
  let dev =
    Storage.Block.make ~info:(Storage.Block.info frozen)
      ~stats:(Storage.Disk_stats.create ())
      ~ops:
        {
          Storage.Block.op_read = (fun ~lba:_ ~sectors:_ -> assert false);
          op_write = (fun ~lba:_ ~data:_ ~fua:_ -> assert false);
          op_flush = (fun () -> assert false);
          op_power_cut = (fun () -> ());
          op_durable_read =
            (fun ~lba ~sectors ->
              read_bytes := !read_bytes + (sectors * ss);
              Storage.Block.Media.read media ~lba ~sectors);
          op_durable_extent = (fun () -> Storage.Block.Media.extent media);
        }
      ()
  in
  (dev, read_bytes)

let region_bytes dev ~start ~limit_lba =
  let extent = min (Storage.Block.durable_extent dev) limit_lba in
  if extent <= start then ""
  else Storage.Block.durable_read dev ~lba:start ~sectors:(extent - start)

(* -- Generated logs ------------------------------------------------------- *)

let gen_record =
  let open QCheck2.Gen in
  let txid = int_range 0 1_000_000 in
  (* Values up to 40 KiB, so records straddle the scan's chunks. *)
  let value =
    map (fun n -> String.make n 'v') (frequency [ (6, int_range 0 64); (1, int_range 0 40_000) ])
  in
  oneof
    [
      map (fun txid -> Log_record.Begin { txid }) txid;
      map (fun txid -> Log_record.Commit { txid }) txid;
      map (fun txid -> Log_record.Abort { txid }) txid;
      map3
        (fun txid before after -> Log_record.Update { txid; key = txid mod 97; before; after })
        txid value value;
      map (fun filler -> Log_record.Noop { filler }) (int_range 0 20_000);
      map2
        (fun txid deps -> Log_record.Commit_multi { txid; deps = Array.of_list deps })
        txid (list_size (int_range 1 4) (int_range 0 100_000));
    ]

type tail =
  | Clean  (** zeros after the log *)
  | Torn of int  (** the last record cut after this many bytes (mod its size) *)
  | Garbage_header of int  (** valid magic claiming this body length *)
  | Junk of string

let gen_tail =
  let open QCheck2.Gen in
  oneof
    [
      pure Clean;
      map (fun n -> Torn n) (int_range 0 1_000_000);
      map (fun n -> Garbage_header n)
        (oneof [ int_range 0 100_000; pure Log_record.max_body; pure (Log_record.max_body + 1) ]);
      map (fun s -> Junk s) (string_size (int_range 1 64));
    ]

type case = {
  records : Log_record.t list;
  tail : tail;
  start : int;  (** region start LBA *)
  gap : int;  (** zero sectors after the log before [far] *)
  far : bool;  (** a data page far up the device *)
  limit : int option;  (** [Some k]: the region ends [k] sectors after [start] *)
  next_stream : bool;  (** a second valid log starts right at the limit *)
}

let gen_case =
  let open QCheck2.Gen in
  let* records = list_size (int_range 0 40) gen_record in
  let* tail = gen_tail in
  let* start = int_range 0 3 in
  let* gap = int_range 0 64 in
  let* far = bool in
  let* limit = option (int_range 0 400) in
  let* next_stream = bool in
  pure { records; tail; start; gap; far; limit; next_stream }

let print_case c =
  Printf.sprintf "records=%d tail=%s start=%d gap=%d far=%b limit=%s next_stream=%b"
    (List.length c.records)
    (match c.tail with
    | Clean -> "clean"
    | Torn n -> Printf.sprintf "torn %d" n
    | Garbage_header n -> Printf.sprintf "garbage header blen=%d" n
    | Junk s -> Printf.sprintf "junk %d bytes" (String.length s))
    c.start c.gap c.far
    (match c.limit with None -> "none" | Some k -> string_of_int k)
    c.next_stream

let garbage_header blen =
  let b = Bytes.make 7 '\000' in
  Bytes.set_uint16_le b 0 0xA55A;
  Bytes.set_uint8 b 2 2;
  Bytes.set_int32_le b 3 (Int32.of_int blen);
  Bytes.to_string b ^ String.make 100 '\xff'

let build c =
  let media = Storage.Block.Media.create ~sector_size:ss ~capacity_sectors:capacity in
  let log = String.concat "" (List.map Log_record.encode c.records) in
  let log =
    match c.tail with
    | Clean -> log
    | Torn _ when c.records = [] -> log
    | Torn n ->
        let last = Log_record.encode (List.nth c.records (List.length c.records - 1)) in
        let cut = n mod String.length last in
        String.sub log 0 (String.length log - String.length last + cut)
    | Garbage_header blen -> log ^ garbage_header blen
    | Junk s -> log ^ s
  in
  write media ~lba:c.start log;
  let log_sectors = (String.length log + ss - 1) / ss in
  let limit_lba = match c.limit with None -> max_int | Some k -> c.start + k in
  if c.next_stream && limit_lba < capacity - 64 then
    write media ~lba:limit_lba
      (Log_record.encode (Log_record.Begin { txid = 1 })
      ^ Log_record.encode (Log_record.Commit { txid = 1 }));
  if c.gap > 0 then
    (* zero sectors written after the log push the extent out *)
    write media ~lba:(c.start + log_sectors) (String.make (c.gap * ss) '\000');
  if c.far then write media ~lba:(capacity - 16) (String.make (8 * ss) '\x5a');
  (media, limit_lba)

let scan_equals_whole_region_decode =
  prop "exact-read scan = decode_stream of the whole region" ~count:300 ~print:print_case
    gen_case (fun c ->
      let media, limit_lba = build c in
      let dev = Storage.Block.of_media media in
      Recovery.scan_records_region ~log_device:dev ~start:c.start ~limit_lba
      = Log_record.decode_stream (region_bytes dev ~start:c.start ~limit_lba))

(* [Log_record.scan]'s result does not depend on how [read] slices the
   stream. *)
let scan_independent_of_read_sizes =
  prop "Log_record.scan is independent of read sizes" ~count:300
    QCheck2.Gen.(triple (list_size (int_range 0 20) gen_record) (string_size (int_range 0 40))
                   (list_size (int_range 1 8) (int_range 1 5000)))
    (fun (records, junk, sizes) ->
      let stream = String.concat "" (List.map Log_record.encode records) ^ junk in
      let off = ref 0 and sizes = ref sizes in
      let read need =
        let k = match !sizes with [] -> need | k :: rest -> sizes := rest; max 1 k in
        let k = min k (String.length stream - !off) in
        let s = String.sub stream !off k in
        off := !off + k;
        s
      in
      Log_record.scan ~base:0 ~pos:0 read = Log_record.decode_stream stream)

let region_past_extent () =
  let media = Storage.Block.Media.create ~sector_size:ss ~capacity_sectors:capacity in
  write media ~lba:0 (Log_record.encode (Log_record.Commit { txid = 3 }));
  let dev = Storage.Block.of_media media in
  Alcotest.(check int) "start past the extent" 0
    (List.length (Recovery.scan_records_region ~log_device:dev ~start:5 ~limit_lba:max_int));
  Alcotest.(check int) "limit at the start" 0
    (List.length (Recovery.scan_records_region ~log_device:dev ~start:0 ~limit_lba:0))

(* -- Read volume ---------------------------------------------------------- *)

(* A log of [bytes] bytes of small update records at LBA 0, with one
   sector written at the end of a 64 MiB device. *)
let log_on_large_device bytes =
  let media = Storage.Block.Media.create ~sector_size:ss ~capacity_sectors:capacity in
  let buf = Buffer.create bytes in
  let n = ref 0 in
  while Buffer.length buf < bytes do
    incr n;
    Log_record.encode_into
      (Log_record.Update { txid = !n; key = !n; before = "b"; after = String.make 60 'a' })
      buf
  done;
  write media ~lba:0 (Buffer.contents buf);
  write media ~lba:(capacity - 1) (String.make ss '\x5a');
  (media, Buffer.length buf, !n)

let read_volume_bounded ~bytes () =
  let media, log_len, n = log_on_large_device bytes in
  let dev, read_bytes = counting_device media in
  let records = Recovery.scan_records_region ~log_device:dev ~start:0 ~limit_lba:max_int in
  Alcotest.(check int) "every record" n (List.length records);
  let bound = log_len + Recovery.scan_chunk_bytes + ss in
  if !read_bytes > bound then
    Alcotest.failf "read %d bytes for a %d-byte log (bound %d)" !read_bytes log_len bound

let suites =
  [
    ( "dbms.log_scan_exact",
      [
        scan_equals_whole_region_decode;
        scan_independent_of_read_sizes;
        case "start or limit at or past the extent" region_past_extent;
        case "10 KB log on a 64 MB device reads log + one chunk"
          (read_volume_bounded ~bytes:10_000);
        case "12 MB log reads log + one chunk" (read_volume_bounded ~bytes:12_000_000);
      ] );
  ]
