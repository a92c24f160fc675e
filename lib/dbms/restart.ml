let tail_bytes ~log_device ~wal_config ~durable_end =
  let ss = (Storage.Block.info log_device).Storage.Block.sector_size in
  let flushed_b = Lsn.to_int durable_end in
  let partial = flushed_b mod ss in
  if partial = 0 then ""
  else begin
    let sector =
      Storage.Block.durable_read log_device
        ~lba:(wal_config.Wal.log_start_lba + (flushed_b / ss))
        ~sectors:1
    in
    String.sub sector 0 partial
  end

(* Compensate every loser in the durable log: redoing the log then ends
   in the undone state, and the abort records retire the transactions
   from any future analysis pass. *)
let neutralise_losers wal (recovery : Recovery.result) =
  let loser_set = Hashtbl.create 8 in
  List.iter (fun txid -> Hashtbl.replace loser_set txid ()) recovery.Recovery.losers;
  if Hashtbl.length loser_set > 0 then begin
    List.iter
      (fun (record, _lsn) ->
        match record with
        | Log_record.Update { txid; key; before; after }
          when Hashtbl.mem loser_set txid ->
            ignore
              (Wal.append wal
                 (Log_record.Update { txid; key; before = after; after = before }))
        | Log_record.Update _ | Log_record.Begin _ | Log_record.Commit _
        | Log_record.Abort _ | Log_record.Commit_multi _
        | Log_record.Abort_multi _ | Log_record.Checkpoint _
        | Log_record.Noop _ ->
            ())
      recovery.Recovery.records_rev;
    Hashtbl.iter
      (fun txid () -> ignore (Wal.append wal (Log_record.Abort { txid })))
      loser_set;
    Wal.force wal (Wal.end_lsn wal)
  end

let seed_pool pool pool_config (recovery : Recovery.result) =
  let keys_per_page = pool_config.Buffer_pool.keys_per_page in
  let pages = Hashtbl.create 256 in
  Hashtbl.iter
    (fun key value ->
      let id = Page.page_of_key ~keys_per_page key in
      let page =
        match Hashtbl.find_opt pages id with
        | Some page -> page
        | None ->
            let page = Page.create ~id in
            Hashtbl.replace pages id page;
            page
      in
      (* The recovered value reflects every durable record, so the page
         LSN is the durable log end. *)
      Page.set page ~key ~value ~lsn:recovery.Recovery.durable_end)
    recovery.Recovery.store;
  Hashtbl.iter
    (fun id page ->
      Buffer_pool.install pool page
        ~dirty_at:(Some recovery.Recovery.durable_end)
        ~parity:(Hashtbl.find_opt recovery.Recovery.parities id))
    pages

let max_seen_txid (recovery : Recovery.result) =
  let max_of = List.fold_left max 0 in
  max (max_of recovery.Recovery.committed)
    (max (max_of recovery.Recovery.aborted) (max_of recovery.Recovery.losers))

let restart ~vmm ~profile ?async_commit ~log_device ~data_device ~wal_config
    ~pool_config () =
  let sim = Hypervisor.Vmm.sim vmm in
  let recovery = Recovery.run ~log_device ~data_device ~wal_config ~pool_config in
  let wal =
    Wal.create_resumed sim wal_config ~device:log_device
      ~flushed:recovery.Recovery.durable_end
      ~tail:
        (tail_bytes ~log_device ~wal_config
           ~durable_end:recovery.Recovery.durable_end)
  in
  neutralise_losers wal recovery;
  let pool =
    Buffer_pool.create sim pool_config ~device:data_device
      ~wal_force:(fun ~page:_ lsn -> Wal.force wal lsn)
  in
  seed_pool pool pool_config recovery;
  let engine =
    Engine.create ~vmm ~profile ?async_commit
      ~first_txid:(max_seen_txid recovery + 1)
      ~wal ~pool ()
  in
  (engine, recovery)
