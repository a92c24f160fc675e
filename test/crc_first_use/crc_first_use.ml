(* Forces the first CRC of the process from several domains at once.

   The CRC tables used to be a [lazy] forced on first use; when two
   domains forced it together one of them raised
   [CamlinternalLazy.Undefined]. This program must therefore run in a
   fresh process each time (the dune rule beside it runs it 20 times),
   and nothing here may compute a CRC before the domains start. Exits
   non-zero if any domain raises or computes a wrong digest. *)

let domains = 4

let () =
  let ready = Atomic.make 0 in
  let work () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    let buf = Buffer.create 64 in
    Dbms.Log_record.encode_into (Dbms.Log_record.Commit { txid = 7 }) buf;
    ( Dbms.Crc32.digest_string "123456789",
      Buffer.contents buf = Dbms.Log_record.encode (Dbms.Log_record.Commit { txid = 7 }) )
  in
  let results =
    List.init domains (fun _ -> Domain.spawn (fun () -> try Ok (work ()) with e -> Error e))
    |> List.map Domain.join
  in
  List.iteri
    (fun i -> function
      | Ok (0xCBF43926l, true) -> ()
      | Ok (crc, same) ->
          Printf.eprintf "domain %d: crc %08lx, encode_into = encode: %b\n" i crc same;
          exit 1
      | Error e ->
          Printf.eprintf "domain %d raised %s\n" i (Printexc.to_string e);
          exit 1)
    results
