let () =
  Alcotest.run "rapilog-repro"
    (Test_desim.suites @ Test_metrics.suites @ Test_storage.suites
   @ Test_power.suites
   @ Test_hypervisor.suites @ Test_dbms.suites @ Test_log_scan.suites @ Test_log_record_prop.suites
   @ Test_stream_merge.suites
   @ Test_rapilog.suites @ Test_workload.suites @ Test_harness.suites
   @ Test_crash_surface.suites @ Test_crash_journal.suites
   @ Test_net.suites @ Test_quorum.suites @ Test_shard.suites
   @ Test_model_check.suites @ Test_audit_teeth.suites @ Test_scen.suites)
