(* Mutation tests: the durability audit must have teeth.

   Every safe-mode experiment passing is only meaningful if the audit
   would actually catch a broken system. Here we inject bugs — a device
   that silently drops writes, one that lies about flushes, a logger fed
   by lossy hardware — and assert the audit REPORTS the damage. *)

open Desim
open Testu

let sector = 512

(* A device whose firmware silently discards every [period]-th write but
   completes it normally. *)
let lossy_device sim ~period =
  let real = Storage.Ssd.create sim Storage.Ssd.default in
  let counter = ref 0 in
  let ops =
    {
      Storage.Block.op_read =
        (fun ~lba ~sectors -> Storage.Block.read real ~lba ~sectors);
      op_write =
        (fun ~lba ~data ~fua ->
          incr counter;
          if !counter mod period = 0 then
            (* Take the time, drop the data. *)
            Process.sleep (Time.us 300)
          else Storage.Block.write real ~fua ~lba data);
      op_flush = (fun () -> Storage.Block.flush real);
      op_power_cut = (fun () -> Storage.Block.power_cut real);
      op_durable_read =
        (fun ~lba ~sectors -> Storage.Block.durable_read real ~lba ~sectors);
      op_durable_extent = (fun () -> Storage.Block.durable_extent real);
    }
  in
  Storage.Block.make ~info:(Storage.Block.info real)
    ~stats:(Storage.Disk_stats.create ())
    ~ops ()

(* Run a small committed workload against a hand-built engine whose log
   device is [log_dev]; return (acked txids, recovery result). *)
let run_workload sim ~log_dev ~data_dev =
  let vmm = Hypervisor.Vmm.create sim Hypervisor.Vmm.native in
  let wal = Dbms.Wal.create sim Dbms.Wal.default_config ~device:log_dev in
  let pool =
    Dbms.Buffer_pool.create sim Dbms.Buffer_pool.default_config ~device:data_dev
      ~wal_force:(fun ~page:_ lsn -> Dbms.Wal.force wal lsn)
  in
  let engine =
    Dbms.Engine.create ~vmm ~profile:Dbms.Engine_profile.postgres_like ~wal ~pool ()
  in
  let acked = ref [] in
  ignore
    (Hypervisor.Vmm.spawn_guest vmm (fun () ->
         for i = 1 to 100 do
           let r =
             Dbms.Engine.exec engine
               [ Dbms.Engine.Put { key = i; value = Printf.sprintf "v%d" i } ]
           in
           acked := r.Dbms.Engine.txid :: !acked
         done));
  Sim.run sim;
  let recovery =
    Dbms.Recovery.run ~log_device:log_dev ~data_device:data_dev
      ~wal_config:Dbms.Wal.default_config
      ~pool_config:Dbms.Buffer_pool.default_config
  in
  (!acked, recovery)

let audit_catches_silent_write_drops () =
  let sim = Sim.create () in
  let log_dev = lossy_device sim ~period:7 in
  let data_dev = Storage.Ssd.create sim Storage.Ssd.default in
  let acked, recovery = run_workload sim ~log_dev ~data_dev in
  let report =
    Rapilog.Durability.compare_txids ~committed:acked
      ~recovered:recovery.Dbms.Recovery.committed
  in
  Alcotest.(check bool) "loss detected" false (Rapilog.Durability.holds report);
  Alcotest.(check bool) "substantial loss reported" true
    (List.length report.Rapilog.Durability.lost > 5)

let healthy_device_control () =
  (* The control: the identical workload on honest hardware audits clean
     (otherwise the mutation test above proves nothing). *)
  let sim = Sim.create () in
  let log_dev = Storage.Ssd.create sim Storage.Ssd.default in
  let data_dev = Storage.Ssd.create sim Storage.Ssd.default in
  let acked, recovery = run_workload sim ~log_dev ~data_dev in
  let report =
    Rapilog.Durability.compare_txids ~committed:acked
      ~recovered:recovery.Dbms.Recovery.committed
  in
  Alcotest.(check bool) "clean" true (Rapilog.Durability.holds report)

let audit_catches_lossy_drain_target () =
  (* The trusted logger's guarantee is only as good as its physical
     device: drain onto lying hardware and the audit must expose it. *)
  let sim = Sim.create () in
  let faulty = lossy_device sim ~period:3 in
  let trusted =
    Hypervisor.Domain.create sim ~name:"rl" ~kind:Hypervisor.Domain.Trusted
  in
  let logger =
    Rapilog.Trusted_logger.create sim ~domain:trusted
      Rapilog.Trusted_logger.default_config ~device:faulty
  in
  let guest = Hypervisor.Domain.create sim ~name:"g" ~kind:Hypervisor.Domain.Guest in
  let backend = Rapilog.Trusted_logger.backend logger in
  ignore
    (Hypervisor.Domain.spawn guest (fun () ->
         (* Gapped addresses defeat drain coalescing, so each write is
            its own physical drain write. *)
         for i = 0 to 63 do
           backend.Hypervisor.Virtio_blk.be_write ~lba:(i * 2)
             ~data:(String.make sector 'x') ~fua:false
         done));
  Sim.run sim;
  (* Everything was acknowledged and "drained", but sectors are missing
     from media. *)
  Alcotest.(check int) "all acked" 64 (Rapilog.Trusted_logger.acked_writes logger);
  let missing = ref 0 in
  for i = 0 to 63 do
    if
      Storage.Block.durable_read faulty ~lba:(i * 2) ~sectors:1
      = String.make sector '\000'
    then incr missing
  done;
  Alcotest.(check bool) (Printf.sprintf "media holes visible (%d)" !missing) true
    (!missing > 0)

let diff_stores_catches_value_corruption () =
  (* State-exactness must notice a flipped value even when the txid sets
     match. *)
  let sim = Sim.create () in
  let log_dev = Storage.Ssd.create sim Storage.Ssd.default in
  let data_dev = Storage.Ssd.create sim Storage.Ssd.default in
  let acked, recovery = run_workload sim ~log_dev ~data_dev in
  ignore acked;
  let model = Hashtbl.copy recovery.Dbms.Recovery.store in
  Hashtbl.replace model 50 "corrupted-expectation";
  let diffs =
    Rapilog.Durability.diff_stores ~expected:model
      ~actual:recovery.Dbms.Recovery.store
  in
  Alcotest.(check int) "exactly the corrupted key" 1 (List.length diffs);
  match diffs with
  | [ { Rapilog.Durability.key; _ } ] -> Alcotest.(check int) "key 50" 50 key
  | _ -> Alcotest.fail "unexpected diff shape"

(* The audit's copy-free diff against the definition it replaces:
   skipping keys by predicate must give exactly [diff_stores] over
   copies of both tables with those keys removed. The actual table is
   the expected one lightly mutated — values changed, keys dropped or
   added, skipped or not — so both the clean shortcut (no pass over
   [actual]) and the full two-pass diff are exercised. *)
let diff_stores_skipping_prop =
  let filtered table skip =
    let copy = Hashtbl.create 16 in
    Hashtbl.iter (fun k v -> if not (skip k) then Hashtbl.replace copy k v) table;
    copy
  in
  prop "skip-predicate diff equals diff over filtered copies" ~count:500
    QCheck2.Gen.(
      triple
        (small_list (pair (int_bound 40) (int_bound 3)))
        (small_list (triple (int_bound 2) (int_bound 50) (int_bound 3)))
        (small_list (int_bound 50)))
    (fun (entries, mutations, skipped) ->
      let expected = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace expected k (string_of_int v)) entries;
      let actual = Hashtbl.copy expected in
      List.iter
        (fun (op, k, v) ->
          match op with
          | 0 -> Hashtbl.remove actual k
          | _ -> Hashtbl.replace actual k (string_of_int v))
        mutations;
      let skip k = List.mem k skipped in
      Rapilog.Durability.diff_stores_skipping ~skip ~expected ~actual
      = Rapilog.Durability.diff_stores ~expected:(filtered expected skip)
          ~actual:(filtered actual skip))

let suites =
  [
    ( "audit.mutation",
      [
        case "silent write drops are detected" audit_catches_silent_write_drops;
        case "healthy control audits clean" healthy_device_control;
        case "lossy drain target exposed" audit_catches_lossy_drain_target;
        case "value corruption caught by state diff" diff_stores_catches_value_corruption;
        diff_stores_skipping_prop;
      ] );
  ]
