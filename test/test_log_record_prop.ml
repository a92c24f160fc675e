(* Property tests for the log-record wire format.

   Recovery's entire trust in the log rests on two properties of the
   encoding: every record round-trips exactly, and corruption is
   detected — a damaged record must read as end-of-log, never as a
   *different* valid record. The second property is the one a
   hand-picked example can miss: it must hold for every single byte
   position, including the kind and length fields, which is why the CRC
   covers the whole frame and not just the body. *)

open Testu
open QCheck2

let record_gen =
  let open Gen in
  let txid = int_range 0 0xFF_FFFF in
  let key = int_range 0 0xFFFF in
  let value = string_size ~gen:printable (int_range 0 64) in
  oneof
    [
      map (fun txid -> Dbms.Log_record.Begin { txid }) txid;
      map
        (fun (txid, key, before, after) ->
          Dbms.Log_record.Update { txid; key; before; after })
        (quad txid key value value);
      map (fun txid -> Dbms.Log_record.Commit { txid }) txid;
      map (fun txid -> Dbms.Log_record.Abort { txid }) txid;
      map
        (fun lsn -> Dbms.Log_record.Checkpoint { redo_lsn = Dbms.Lsn.of_int lsn })
        (int_range 0 0xFF_FFFF);
      map (fun filler -> Dbms.Log_record.Noop { filler }) (int_range 0 64);
      map2
        (fun txid deps ->
          Dbms.Log_record.Commit_multi { txid; deps = Array.of_list deps })
        txid
        (list_size (int_range 0 8) (int_range 0 0xFF_FFFF));
      map2
        (fun txid deps ->
          Dbms.Log_record.Abort_multi { txid; deps = Array.of_list deps })
        txid
        (list_size (int_range 0 8) (int_range 0 0xFF_FFFF));
    ]

let roundtrip =
  prop "encode/decode round-trip" ~count:500 record_gen (fun record ->
      let encoded = Dbms.Log_record.encode record in
      String.length encoded = Dbms.Log_record.encoded_size record
      &&
      match Dbms.Log_record.decode encoded ~pos:0 with
      | Some (decoded, size) ->
          decoded = record && size = String.length encoded
      | None -> false)

(* The streaming encoder is the one the WAL append path uses; it must
   produce the same bytes as the one-shot [encode] — including the CRC,
   which it computes incrementally as the fields go into the buffer. *)
let encode_into_matches_encode =
  prop "encode_into is byte-identical to encode" ~count:500 record_gen
    (fun record ->
      let buf = Buffer.create 64 in
      Buffer.add_string buf "prefix";
      Dbms.Log_record.encode_into record buf;
      Buffer.contents buf = "prefix" ^ Dbms.Log_record.encode record)

(* The same over every int a field can hold — negative ones included —
   and [Noop] fillers longer than the encoder's block of zeros. *)
let encode_into_matches_encode_wide =
  let open Gen in
  let wide = oneof [ int; oneofl [ 0; -1; min_int; max_int; 0xFFFF_FFFF ] ] in
  let value = string_size ~gen:char (int_range 0 300) in
  let record_gen =
    oneof
      [
        map (fun txid -> Dbms.Log_record.Commit { txid }) wide;
        map
          (fun lsn -> Dbms.Log_record.Checkpoint { redo_lsn = Dbms.Lsn.of_int lsn })
          (int_range 0 max_int);
        map (fun filler -> Dbms.Log_record.Noop { filler }) (int_range 0 1200);
        map
          (fun (txid, key, before, after) ->
            Dbms.Log_record.Update { txid; key; before; after })
          (quad wide wide value value);
        map2
          (fun txid deps ->
            Dbms.Log_record.Commit_multi { txid; deps = Array.of_list deps })
          wide
          (list_size (int_range 0 8) wide);
      ]
  in
  prop "encode_into = encode for full-range fields and long fillers" ~count:300
    record_gen (fun record ->
      let buf = Buffer.create 16 in
      Dbms.Log_record.encode_into record buf;
      Buffer.contents buf = Dbms.Log_record.encode record)

(* Flip one byte anywhere in the frame (all 256 alternative values at a
   generated position): the decoder must either reject the record or —
   never — return something other than the original. "Accept the
   original" cannot happen since the byte differs somewhere the CRC or
   magic covers; the property tolerates it only to state the real
   invariant: no *different* valid record. *)
let single_byte_flip =
  prop "single byte flip never yields a different valid record" ~count:200
    Gen.(pair record_gen (int_range 0 1000))
    (fun (record, position_seed) ->
      let encoded = Dbms.Log_record.encode record in
      let pos = position_seed mod String.length encoded in
      let original = Bytes.of_string encoded in
      let ok = ref true in
      for replacement = 0 to 255 do
        if replacement <> Char.code (Bytes.get original pos) then begin
          let corrupted = Bytes.copy original in
          Bytes.set corrupted pos (Char.chr replacement);
          match Dbms.Log_record.decode (Bytes.to_string corrupted) ~pos:0 with
          | None -> ()
          | Some (decoded, _) -> if decoded <> record then ok := false
        end
      done;
      !ok)

(* A valid record followed by garbage still decodes (framing is
   self-delimiting), and decoding at an offset inside the body fails
   rather than resynchronising on accident. *)
let trailing_garbage =
  prop "record followed by garbage still decodes" ~count:200 record_gen
    (fun record ->
      let encoded = Dbms.Log_record.encode record in
      let stream = encoded ^ String.make 16 '\xFF' in
      match Dbms.Log_record.decode stream ~pos:0 with
      | Some (decoded, size) -> decoded = record && size = String.length encoded
      | None -> false)

let truncation_rejected =
  prop "every strict prefix is rejected" ~count:100 record_gen (fun record ->
      let encoded = Dbms.Log_record.encode record in
      let ok = ref true in
      for len = 0 to String.length encoded - 1 do
        match Dbms.Log_record.decode (String.sub encoded 0 len) ~pos:0 with
        | None -> ()
        | Some _ -> ok := false
      done;
      !ok)

let suites =
  [
    ( "dbms.log_record_prop",
      [
        roundtrip;
        encode_into_matches_encode;
        encode_into_matches_encode_wide;
        single_byte_flip;
        trailing_garbage;
        truncation_rejected;
      ] );
  ]
