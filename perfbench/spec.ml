(* The metrics the benchmark reports, in output order. BENCHMARK.json
   at the repository root declares the same names, units and
   directions; the test suite holds the two lists equal. *)

type better = Higher | Lower
type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

let workloads = [ "openloop-hdd"; "tpcc-nvme"; "sweep-fork-hdd"; "sweep-replay-sharded" ]

(* Printed with --trace 0 on every workload: the simulator's cost as a
   user of the reproduction sees it. The modelled system's results are
   simulated time, exact for a seed, and are printed and checked by the
   run instead (see NOTES.md). *)
let end_to_end =
  [ m "setup_s" "s" Lower; m "peak_heap_mb" "MiB" Lower; m "host_ops_per_s" "1/s" Higher ]

let stage_names =
  [
    "commit.total";
    "commit.exec";
    "commit.force";
    "wal.force_write";
    "logger.admission";
    "logger.ring_wait";
    "logger.drain_write";
    "device.write";
  ]

(* Printed with --trace 1 on every workload; 0 where the workload does
   no such work (see NOTES.md). *)
let per_layer =
  [
    m "desim.events_per_txn" "events/txn" Lower;
    m "desim.host_ns_per_event" "ns" Lower;
    m "desim.max_pending" "count" Lower;
    m "desim.run_s" "s" Lower;
    m "gc.minor_words_per_txn" "words/txn" Lower;
    m "gc.promoted_words_per_txn" "words/txn" Lower;
    m "gc.major_collections" "count" Lower;
    m "gc.minor_words_per_point" "words/point" Lower;
    m "scen.build_s" "s" Lower;
    m "harness.build_s" "s" Lower;
    m "harness.load_s" "s" Lower;
    m "harness.enumerate_s" "s" Lower;
    m "harness.boundaries" "count" Higher;
    m "harness.sweep_s" "s" Lower;
    m "harness.points" "count" Higher;
    m "harness.ms_per_point" "ms" Lower;
    m "harness.explored_ratio" "ratio" Higher;
    m "harness.oracle_ms_per_point" "ms" Lower;
    m "harness.fail_ratio" "ratio" Lower;
    m "harness.lost_commits" "count" Lower;
    m "dbms.wal.forces" "count" Lower;
    m "dbms.wal.txn_per_force" "txn/force" Higher;
    m "dbms.pool.hit_ratio" "ratio" Higher;
    m "dbms.pool.evictions" "count" Lower;
    m "dbms.pool.page_writes" "count" Lower;
    m "dbms.engine.aborted" "count" Lower;
    m "dbms.log_bytes_per_txn" "bytes/txn" Lower;
    m "dbms.recovery.run_s" "s" Lower;
    m "dbms.recovery.scan_s" "s" Lower;
    m "dbms.recovery.records" "count" Lower;
    m "dbms.recovery.redo_applied" "count" Lower;
    m "dbms.recovery.undo_applied" "count" Lower;
    m "dbms.recovery.pages_loaded" "count" Lower;
    m "core.logger.acked_writes" "count" Higher;
    m "core.logger.drain_writes" "count" Lower;
    m "core.logger.coalescing" "writes/drain" Higher;
    m "core.logger.max_buffered_bytes" "bytes" Lower;
    m "core.logger.backpressure_stalls" "count" Lower;
    m "storage.log.writes" "count" Lower;
    m "storage.log.sectors_written" "sectors" Lower;
    m "storage.log.busy_ratio" "ratio" Lower;
    m "storage.data.writes" "count" Lower;
    m "storage.data.reads" "count" Lower;
    m "storage.data.busy_ratio" "ratio" Lower;
    m "storage.write_amp" "ratio" Lower;
    m "stage.vmm.core_wait.p99_us" "us" Lower;
    m "stage.virtio.write.p99_us" "us" Lower;
  ]
  @ List.concat_map
      (fun s ->
        [ m ("stage." ^ s ^ ".p50_us") "us" Lower; m ("stage." ^ s ^ ".p99_us") "us" Lower ])
      stage_names
  @ [
      m "workload.commit_p50_us" "us" Lower;
      m "workload.commit_p99_us" "us" Lower;
      m "workload.commit_tps" "1/s" Higher;
      m "workload.offered" "txn" Higher;
      m "workload.backlog_at_end" "txn" Lower;
      m "workload.max_rate_tps" "1/s" Higher;
      m "workload.native_max_rate_tps" "1/s" Higher;
      m "shard.tenant_acked" "count" Higher;
      m "shard.tenant_breaks" "count" Lower;
      m "trace.overhead_s" "s" Lower;
      m "trace.overhead_ratio" "ratio" Lower;
      m "trace.spans" "count" Lower;
    ]

let better_name = function Higher -> "higher" | Lower -> "lower"
