(* The repository benchmark: four workloads, each measured in one
   process on one domain, printing every metric by name and unit and a
   final JSON result line.

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run repeats one deterministic unit of work (same seed, same
   simulated results) until S seconds have passed. The first unit warms
   the heap and is left out of the host metrics, which are medians over
   the other units; simulated results must repeat exactly in every unit.
   With --trace 1 the measured units alternate traced and untraced:
   traced units record spans around each layer call and install the
   Desim.Metrics registry, and the run prints the per-layer metrics, a
   self-time table and the tracing overhead, and writes the spans as
   Chrome trace-event JSON under perfbench/out/. NOTES.md defines the
   workloads and metrics. *)

open Desim
open Harness

let now = Unix.gettimeofday
let tracer = Tracer.create ()
let span name f = Tracer.span tracer name f

(* -- per-unit accumulators ------------------------------------------- *)

type acc = (string, float) Hashtbl.t

let get (a : acc) k = Option.value ~default:0. (Hashtbl.find_opt a k)
let add (a : acc) k v = Hashtbl.replace a k (get a k +. v)
let set (a : acc) k v = Hashtbl.replace a k v

let timed a key f =
  let t0 = now () in
  let r = f () in
  add a key (now () -. t0);
  r

(* One line of the modelled system's results: simulated time, exact for
   a seed. [None] marks a refused percentile. *)
type model_line = { m_name : string; m_value : float option; m_unit : string; m_detail : string }

(* What one unit of work reports. [sim] digests every simulated result
   of the unit; all units of a run must agree on it. *)
type unit_result = {
  setup_s : float;
  ops : int;  (** committed txns or audited crash points *)
  ops_s : float;  (** host seconds those ops took *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  layers : acc;
  sim : string;
  model : model_line list;
  scaled_setup_s : float option;
  scaled_ops_s : float option;
      (** host times already scaled to the reference speed, by units that
          calibrate between their own segments; [None] scales by the
          whole unit *)
  steady : bool;  (** no segment saw the host's speed change by more than 10% *)
}

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let setup_of a = get a "scen.build_s" +. get a "harness.build_s" +. get a "harness.load_s"

(* Host-speed calibration. The shared host's speed drifts by up to 2x
   within a minute, in phases of seconds. A fixed, stdlib-only event
   loop (a Map as the event queue, a 4096-slot Hashtbl as state,
   allocation on every event) is timed before and after every unit and
   every rung of the open-loop ladder. The [scale] of the work in
   between is the kernel's mean time over [reference_kernel_s]; the
   gated host metrics divide host time by it, giving seconds at the
   reference speed. The kernel shares no code with the repository, so a
   change to the program moves the scaled metrics as much as the raw
   ones. *)
module Event_map = Map.Make (Int)

let reference_kernel_s = 0.05

let calibrate () =
  let t0 = now () in
  let state = Hashtbl.create 1024 in
  let rec loop queue seq n =
    if n > 0 then begin
      let at, event = Event_map.min_binding queue in
      let gap = event at in
      Hashtbl.replace state (at land 4095) (string_of_int at);
      let queue = Event_map.add (((at + gap) * 64) + (seq land 63)) event (Event_map.remove at queue) in
      loop queue (seq + 1) (n - 1)
    end
  in
  let first =
    List.fold_left
      (fun q i -> Event_map.add (i * 64) (fun t -> ((t * 13) land 1023) + 1) q)
      Event_map.empty (List.init 256 Fun.id)
  in
  loop first 0 150_000;
  ignore (Sys.opaque_identity state);
  now () -. t0

(* The kernel's latest time; [recalibrate] returns it with a fresh one. *)
let kernel_s = ref 0.

let recalibrate () =
  let before = !kernel_s in
  kernel_s := calibrate ();
  (before, !kernel_s)

let scale_of (before, after) = (before +. after) /. 2. /. reference_kernel_s
let steady_between (before, after) = Float.abs (after -. before) <= 0.1 *. Float.min after before

(* -- steady runs, through the public driver functions ----------------- *)

let build_config a builder =
  span "scen.Builder.build" (fun () ->
      timed a "scen.build_s" (fun () -> Scen.Builder.build builder))

let setup a cfg =
  let built =
    span "harness.Scenario.build" (fun () ->
        timed a "harness.build_s" (fun () -> Scenario.build cfg))
  in
  let track = Driver.make_tracking () in
  let loaded = ref false in
  timed a "harness.load_s" (fun () ->
      span "harness.Driver.spawn_loader" (fun () ->
          Driver.spawn_loader built track ~after_load:(fun () -> loaded := true));
      let sim = built.Scenario.sim in
      span "desim.Sim.step.load" (fun () ->
          while (not !loaded) && Sim.step sim do () done));
  if not !loaded then failwith "initial-row load never completed";
  (built, track)

type window = {
  w_commits : int;  (** acknowledged inside the measurement window *)
  w_executed : int;  (** txns committed from spawn to window end *)
  w_aborted : int;
}

(* Launch the load and step the simulation to the end of the
   measurement window; the step loop is the timed part. *)
let run_window a (built, track) =
  let sim = built.Scenario.sim in
  let cfg = built.Scenario.config in
  let engine = built.Scenario.engine in
  let ws = Time.add (Sim.now sim) cfg.Scenario.warmup in
  let we = Time.add ws cfg.Scenario.duration in
  track.Driver.window_start <- Some ws;
  track.Driver.window_end <- Some we;
  let c0 = Dbms.Engine.committed_count engine in
  let ab0 = Dbms.Engine.aborted_count engine in
  span "harness.Driver.spawn_clients" (fun () -> Driver.spawn_clients built track);
  let stop = ref false in
  Sim.schedule_at sim we (fun () -> stop := true);
  let ev0 = Sim.events_executed sim in
  let minor0, promoted0, _ = Gc.counters () in
  let t0 = now () in
  span "desim.Sim.step" (fun () -> while (not !stop) && Sim.step sim do () done);
  let dt = now () -. t0 in
  let minor1, promoted1, _ = Gc.counters () in
  let executed = Dbms.Engine.committed_count engine - c0 in
  add a "desim.run_s" dt;
  add a "_events" (float_of_int (Sim.events_executed sim - ev0));
  add a "_txns" (float_of_int executed);
  add a "_aborted" (float_of_int (Dbms.Engine.aborted_count engine - ab0));
  add a "_minor" (minor1 -. minor0);
  add a "_promoted" (promoted1 -. promoted0);
  set a "desim.max_pending"
    (Float.max (get a "desim.max_pending") (float_of_int (Sim.max_pending sim)));
  {
    w_commits = track.Driver.in_window;
    w_executed = executed;
    w_aborted = Dbms.Engine.aborted_count engine - ab0;
  }

(* Counters of the storage engine, loggers and devices after the
   headline window: the dbms, core and storage per-layer metrics. *)
let layer_stats a (built : Scenario.built) =
  let engine = built.Scenario.engine in
  let commits = Dbms.Engine.committed_count engine in
  let forces = Dbms.Wal.forces built.Scenario.wal in
  let pool = built.Scenario.pool in
  let hits = Dbms.Buffer_pool.hits pool and misses = Dbms.Buffer_pool.misses pool in
  let ratio x y = if y = 0 then 0. else float_of_int x /. float_of_int y in
  set a "dbms.wal.forces" (float_of_int forces);
  set a "dbms.wal.txn_per_force" (ratio commits forces);
  set a "dbms.pool.hit_ratio" (ratio hits (hits + misses));
  set a "dbms.pool.evictions" (float_of_int (Dbms.Buffer_pool.evictions pool));
  set a "dbms.pool.page_writes" (float_of_int (Dbms.Buffer_pool.page_writes pool));
  set a "dbms.engine.aborted" (float_of_int (Dbms.Engine.aborted_count engine));
  let log_bytes_per_txn = Dbms.Engine.log_bytes_per_txn engine in
  set a "dbms.log_bytes_per_txn" log_bytes_per_txn;
  let loggers = Scenario.all_loggers built in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 loggers in
  let acked = sum Rapilog.Trusted_logger.acked_writes in
  let drains = sum Rapilog.Trusted_logger.drain_writes in
  set a "core.logger.acked_writes" (float_of_int acked);
  set a "core.logger.drain_writes" (float_of_int drains);
  set a "core.logger.coalescing" (ratio acked drains);
  set a "core.logger.max_buffered_bytes"
    (float_of_int (sum Rapilog.Trusted_logger.max_buffered_bytes));
  set a "core.logger.backpressure_stalls"
    (float_of_int (sum Rapilog.Trusted_logger.backpressure_stalls));
  let elapsed_us = Time.span_to_float_us (Time.diff (Sim.now built.Scenario.sim) Time.zero) in
  let busy st = Time.span_to_float_us (Storage.Disk_stats.busy st) /. elapsed_us in
  let log = Storage.Block.stats built.Scenario.log_physical in
  let data = Storage.Block.stats built.Scenario.data_physical in
  set a "storage.log.writes" (float_of_int (Storage.Disk_stats.writes log));
  set a "storage.log.sectors_written" (float_of_int (Storage.Disk_stats.sectors_written log));
  set a "storage.log.busy_ratio" (busy log);
  set a "storage.data.writes" (float_of_int (Storage.Disk_stats.writes data));
  set a "storage.data.reads" (float_of_int (Storage.Disk_stats.reads data));
  set a "storage.data.busy_ratio" (busy data);
  let sector b = (Storage.Block.info b).Storage.Block.sector_size in
  let device_bytes =
    (Storage.Disk_stats.sectors_written log * sector built.Scenario.log_physical)
    + (Storage.Disk_stats.sectors_written data * sector built.Scenario.data_physical)
  in
  let logged = log_bytes_per_txn *. float_of_int commits in
  set a "storage.write_amp" (if logged > 0. then float_of_int device_bytes /. logged else 0.)

type tail = { t_acked : int; t_lost : int; t_exact : bool; t_records : int }

(* End the headline run with a mains power cut (the guest halts at the
   cut, the trusted logger's power-fail discipline), let the drain
   settle, then recover from the durable media and audit every
   acknowledged commit: one crash point per run. *)
let crash_tail a (built, track) =
  let sim = built.Scenario.sim in
  span "power.Power_domain.cut" (fun () ->
      Power.Power_domain.cut built.Scenario.power;
      Hypervisor.Vmm.crash_guest built.Scenario.vmm);
  span "desim.Sim.run.settle" (fun () -> Sim.run sim);
  let minor0, _, _ = Gc.counters () in
  let t0 = now () in
  let log_device = Scenario.recovery_log_device built in
  let recovery =
    span "dbms.Recovery.run" (fun () ->
        timed a "dbms.recovery.run_s" (fun () ->
            Dbms.Recovery.run ~log_device ~data_device:built.Scenario.data_physical
              ~wal_config:built.Scenario.wal_config
              ~pool_config:built.Scenario.config.Scenario.pool))
  in
  let audit =
    span "harness.Audit.check" (fun () ->
        Audit.check ~model:track.Driver.model ~acked:track.Driver.acked ~recovery)
  in
  add a "harness.sweep_s" (now () -. t0);
  let minor1, _, _ = Gc.counters () in
  add a "_point_minor" (minor1 -. minor0);
  add a "harness.points" 1.;
  ignore
    (span "dbms.Recovery.scan_records" (fun () ->
         timed a "dbms.recovery.scan_s" (fun () ->
             Dbms.Recovery.scan_records ~log_device ~wal_config:built.Scenario.wal_config)));
  let stats = Dbms.Recovery.stats recovery in
  set a "dbms.recovery.records" (float_of_int stats.Dbms.Recovery.s_durable_records);
  set a "dbms.recovery.redo_applied" (float_of_int stats.Dbms.Recovery.s_redo_applied);
  set a "dbms.recovery.undo_applied" (float_of_int stats.Dbms.Recovery.s_undo_applied);
  set a "dbms.recovery.pages_loaded" (float_of_int stats.Dbms.Recovery.s_pages_loaded);
  let lost = List.length audit.Audit.durability.Rapilog.Durability.lost in
  add a "harness.lost_commits" (float_of_int lost);
  {
    t_acked = List.length track.Driver.acked;
    t_lost = lost;
    t_exact = audit.Audit.state_exact;
    t_records = stats.Dbms.Recovery.s_durable_records;
  }

let tail_line ~where t =
  {
    m_name = "lost_commits";
    m_value = Some (float_of_int t.t_lost);
    m_unit = "count";
    m_detail =
      Printf.sprintf "of %d acknowledged, power cut %s; state exact %b; %d log records recovered"
        t.t_acked where t.t_exact t.t_records;
  }

(* Stage histograms of the traced headline run. A stage name stands
   for the histogram of that name merged with every "<name>:<model>". *)
let stage_metrics a registry =
  let merged stage =
    let h = Metrics.Histogram.create () in
    let prefix = stage ^ ":" in
    let lp = String.length prefix in
    Metrics.fold registry
      (fun () name metric ->
        match metric with
        | Metrics.Histogram src
          when name = stage || (String.length name > lp && String.sub name 0 lp = prefix) ->
            Metrics.Histogram.merge_into ~into:h src
        | _ -> ())
      ();
    h
  in
  let put key h p =
    let n = Metrics.Histogram.count h in
    set a key
      (if Rules.percentile_supported ~n ~p then
         Metrics.Histogram.quantile h (float_of_int p /. 100.)
       else 0.)
  in
  List.iter
    (fun s ->
      let h = merged s in
      put ("stage." ^ s ^ ".p50_us") h 50;
      put ("stage." ^ s ^ ".p99_us") h 99)
    Spec.stage_names;
  put "stage.vmm.core_wait.p99_us" (merged "vmm.core_wait") 99;
  put "stage.virtio.write.p99_us" (merged "virtio.write") 99

(* Run [f] with a fresh Desim.Metrics registry installed when the unit
   is traced; the registry feeds the stage.* metrics. *)
let with_registry a ~traced f =
  if not traced then f ()
  else begin
    let registry = Metrics.create () in
    let r = Metrics.with_recording registry f in
    stage_metrics a registry;
    r
  end

let percentiles (s : Stats.Sample.t) =
  let n = Stats.Sample.count s in
  let pct p =
    if Rules.percentile_supported ~n ~p then Some (Stats.Sample.percentile s (float_of_int p))
    else None
  in
  (n, pct 50, pct 99)

(* Commit latency and throughput of a measurement window, as model
   lines and as the workload.commit_* per-layer metrics (0 = refused). *)
let commit_lines a ~what latencies window =
  let n, p50, p99 = percentiles latencies in
  let secs = Time.span_to_float_sec window in
  let tps = float_of_int n /. secs in
  set a "workload.commit_p50_us" (Option.value ~default:0. p50);
  set a "workload.commit_p99_us" (Option.value ~default:0. p99);
  set a "workload.commit_tps" tps;
  [
    { m_name = "commit_p50_us"; m_value = p50; m_unit = "us"; m_detail = Printf.sprintf "n=%d, %s" n what };
    {
      m_name = "commit_p99_us";
      m_value = p99;
      m_unit = "us";
      m_detail = Printf.sprintf "n=%d, %d beyond, %s" n (Rules.samples_beyond ~n ~p:99) what;
    };
    {
      m_name = "commit_tps";
      m_value = Some tps;
      m_unit = "1/s";
      m_detail = Printf.sprintf "%d commits in %.3f simulated s, %s" n secs what;
    };
  ]

let fmt_opt = function Some v -> Printf.sprintf "%.1f" v | None -> "refused"

(* -- workload: openloop-hdd ------------------------------------------ *)

let micro_keys n value_bytes =
  Scenario.Micro
    { Workload.Microbench.default_config with Workload.Microbench.keys = n; value_bytes }

let rapilog_rates = [ 1000.; 4000.; 16000.; 32000.; 36000.; 40000. ]
let native_rates = [ 100.; 200.; 400.; 800.; 1600. ]
let headline_rate = 16000.
let latency_limit_us = 20_000.
let backlog_share = 0.01

(* Long enough for >= 1,500 window samples (so the p99 is reportable)
   and never shorter than half a simulated second. *)
let window_for rate = Time.ms (max 500 (int_of_float (Float.ceil (1.5e6 /. rate))))

(* The open-loop dispatcher's arrival instants are a pure function of
   the rng state at spawn. A twin of the scenario, stepped through the
   same load, reaches that state; a sampler split from it replays the
   dispatcher's arrivals exactly, without touching the measured run.
   Returns the arrivals inside the window and those before its end. *)
let offered_arrivals cfg ~rate =
  let built = Scenario.build cfg in
  let sim = built.Scenario.sim in
  let loaded = ref false in
  Driver.spawn_loader built (Driver.make_tracking ()) ~after_load:(fun () -> loaded := true);
  while (not !loaded) && Sim.step sim do () done;
  let sampler = Workload.Arrival.create (Sim.rng sim) (Workload.Arrival.Poisson { rate }) in
  let ws = Time.add Time.zero cfg.Scenario.warmup in
  let we = Time.add ws cfg.Scenario.duration in
  let rec count at in_window to_end =
    let at = Time.add at (Workload.Arrival.next_gap sampler ~since:(Time.diff at Time.zero)) in
    if Time.compare at we >= 0 then (in_window, to_end)
    else count at (if Time.compare at ws >= 0 then in_window + 1 else in_window) (to_end + 1)
  in
  count Time.zero 0 0

type rung_result = { mode_name : string; rung : Rules.rung; p50 : float option; samples : int; backlog : int }

let passes r = Rules.rung_passes ~limit_us:latency_limit_us ~backlog_share r.rung

let openloop_unit ~seed:run_seed ~traced =
  let a = Hashtbl.create 64 in
  let headline = ref None in
  let run_rung run_mode rate =
    span (Printf.sprintf "rung.%s.%.0f" (Scenario.mode_name run_mode) rate) @@ fun () ->
    let setup0 = setup_of a and run0 = get a "desim.run_s" in
    let cfg =
      build_config a
        Scen.Builder.(
          start () |> mode run_mode |> hdd |> clients 16
          |> workload (micro_keys 4096 128)
          |> keys (Scen.Uniform_keys 4096)
          |> open_loop (Workload.Arrival.Poisson { rate })
          |> seed run_seed |> warmup (Time.ms 200) |> duration (window_for rate))
    in
    let offered, to_end = span "workload.Arrival.offered" (fun () -> offered_arrivals cfg ~rate) in
    let is_headline = run_mode = Scenario.Rapilog && rate = headline_rate in
    let run () =
      let st = setup a cfg in
      let w = run_window a st in
      let backlog = to_end - w.w_executed in
      if is_headline then begin
        layer_stats a (fst st);
        let tail = crash_tail a st in
        set a "workload.offered" (float_of_int offered);
        set a "workload.backlog_at_end" (float_of_int backlog);
        headline := Some ((snd st).Driver.latencies, cfg.Scenario.duration, tail)
      end;
      (w, (snd st).Driver.latencies, backlog)
    in
    let w, latencies, backlog = if is_headline then with_registry a ~traced run else run () in
    let scale = scale_of (recalibrate ()) in
    add a "_scaled_setup" ((setup_of a -. setup0) /. scale);
    add a "_scaled_run" ((get a "desim.run_s" -. run0) /. scale);
    let samples, p50, p99 = percentiles latencies in
    {
      mode_name = Scenario.mode_name run_mode;
      rung = { Rules.rate; p99_us = p99; offered; committed = w.w_commits };
      p50;
      samples;
      backlog;
    }
  in
  let rapilog = List.map (run_rung Scenario.Rapilog) rapilog_rates in
  let native = List.map (run_rung Scenario.Native_sync) native_rates in
  let max_rate rungs =
    Rules.max_rate ~limit_us:latency_limit_us ~backlog_share (List.map (fun r -> r.rung) rungs)
  in
  let max_rapilog = max_rate rapilog and max_native = max_rate native in
  set a "workload.max_rate_tps" max_rapilog;
  set a "workload.native_max_rate_tps" max_native;
  let latencies, window, tail = Option.get !headline in
  let rung_line r =
    {
      m_name = Printf.sprintf "ladder.%s.%.0f.p99_us" r.mode_name r.rung.Rules.rate;
      m_value = r.rung.Rules.p99_us;
      m_unit = "us";
      m_detail =
        Printf.sprintf "n=%d; p50 %s us; offered %d, committed %d, backlog %d at end: %s" r.samples
          (fmt_opt r.p50) r.rung.Rules.offered r.rung.Rules.committed r.backlog
          (if passes r then "meets the rule" else "misses the rule");
    }
  in
  let lowest = List.hd rapilog in
  let aborted = int_of_float (get a "_aborted") in
  {
    setup_s = setup_of a;
    ops = int_of_float (get a "_txns");
    ops_s = get a "desim.run_s";
    attempted = int_of_float (get a "_txns") + aborted + 1;
    failed = aborted + tail.t_lost;
    checks =
      [
        ("openloop: no acknowledged commit lost at the power cut", tail.t_lost = 0 && tail.t_exact);
        ( "openloop: the 1000/s rung keeps up with its offered arrivals",
          passes lowest && lowest.backlog <= 16 );
        ("openloop: RapiLog sustains a higher rate than native-sync", max_rapilog > max_native);
      ];
    layers = a;
    sim = digest (rapilog, native, tail);
    scaled_setup_s = Some (get a "_scaled_setup");
    scaled_ops_s = Some (get a "_scaled_run");
    steady = true;
    model =
      commit_lines a ~what:"RapiLog at 16000/s" latencies window
      @ [
          {
            m_name = "max_rate_tps";
            m_value = Some max_rapilog;
            m_unit = "1/s";
            m_detail =
              Printf.sprintf "RapiLog ladder; rule: p99 <= %.0f us and window commits >= %.0f%% of arrivals"
                latency_limit_us ((1. -. backlog_share) *. 100.);
          };
          {
            m_name = "native_max_rate_tps";
            m_value = Some max_native;
            m_unit = "1/s";
            m_detail = "native-sync ladder, same rule";
          };
          tail_line ~where:"after the 16000/s window" tail;
        ]
      @ List.map rung_line (rapilog @ native);
  }

(* A steady run ending in a power cut: tpcc-nvme's whole run, and each
   sweep's reference run of its scenario. It feeds the commit, dbms,
   core and storage per-layer metrics, and its audit is a durability
   check. *)
let run_with_cut a ~traced cfg =
  with_registry a ~traced (fun () ->
      let st = setup a cfg in
      let w = run_window a st in
      layer_stats a (fst st);
      let tail = crash_tail a st in
      ((snd st).Driver.latencies, w, tail))

(* -- workload: tpcc-nvme --------------------------------------------- *)

let tpcc_unit ~seed:run_seed ~traced =
  let a = Hashtbl.create 64 in
  let cfg =
    build_config a
      Scen.Builder.(
        start () |> mode Scenario.Rapilog |> nvme |> clients 32 |> think Time.zero_span
        |> workload (Scenario.Tpcc Workload.Tpcc_lite.default_config)
        |> seed run_seed |> warmup (Time.ms 50) |> duration (Time.ms 400))
  in
  let latencies, w, tail = run_with_cut a ~traced cfg in
  set a "workload.offered" (float_of_int (w.w_executed + w.w_aborted));
  let model = commit_lines a ~what:"closed loop, 32 clients" latencies cfg.Scenario.duration in
  {
    setup_s = setup_of a;
    ops = w.w_executed;
    ops_s = get a "desim.run_s";
    attempted = w.w_executed + w.w_aborted + 1;
    failed = w.w_aborted + tail.t_lost;
    checks =
      [
        ("tpcc: the post-cut audit is state_exact", tail.t_exact);
        ("tpcc: no acknowledged commit lost at the power cut", tail.t_lost = 0);
      ];
    layers = a;
    sim = digest (model, w, tail);
    scaled_setup_s = None;
    scaled_ops_s = None;
    steady = true;
    model = model @ [ tail_line ~where:"after the window" tail ];
  }

(* -- the crash sweeps ------------------------------------------------- *)

let enumerate_all a surface =
  span "harness.Crash_surface.enumerate" (fun () ->
      timed a "harness.enumerate_s" (fun () ->
          List.map (fun kind -> Crash_surface.enumerate surface kind) surface.Crash_surface.kinds))

let sum_verdicts f vs = List.fold_left (fun acc v -> acc + f v) 0 vs

(* Run the crash-point [segments] in order and time each. The host
   speed is recalibrated after every segment, outside the timed and
   allocation-counted part, and each segment's time is scaled by it. *)
let timed_points a segments =
  let total = ref 0. in
  let verdicts =
    List.concat_map
      (fun segment ->
        let minor0, _, _ = Gc.counters () in
        let t0 = now () in
        let verdicts = segment () in
        let dt = now () -. t0 in
        let minor1, _, _ = Gc.counters () in
        total := !total +. dt;
        add a "harness.sweep_s" dt;
        add a "_point_minor" (minor1 -. minor0);
        add a "harness.points" (float_of_int (List.length verdicts));
        let kernel = recalibrate () in
        add a "_scaled_sweep" (dt /. scale_of kernel);
        if not (steady_between kernel) then add a "_unsteady" 1.;
        verdicts)
      segments
  in
  (verdicts, !total)

let sweep_unit a ~traced ~cfg ~enums ~sweep =
  let latencies, w, tail = run_with_cut a ~traced cfg in
  let setup_s = setup_of a +. get a "harness.enumerate_s" in
  let verdicts, sweep_s = sweep () in
  let points = List.length verdicts in
  let boundaries = List.fold_left (fun acc e -> acc + e.Crash_surface.e_boundaries) 0 enums in
  let breaks = List.length (List.filter (fun v -> not v.Crash_surface.v_contract_ok) verdicts) in
  let lost = sum_verdicts (fun v -> v.Crash_surface.v_lost) verdicts in
  let tenant_acked = sum_verdicts (fun v -> v.Crash_surface.v_tenant_acked) verdicts in
  let tenant_breaks = sum_verdicts (fun v -> v.Crash_surface.v_tenant_breaks) verdicts in
  set a "harness.boundaries" (float_of_int boundaries);
  set a "harness.explored_ratio" (float_of_int points /. float_of_int (max 1 boundaries));
  set a "shard.tenant_acked" (float_of_int tenant_acked);
  set a "shard.tenant_breaks" (float_of_int tenant_breaks);
  add a "harness.lost_commits" (float_of_int lost);
  let commits = commit_lines a ~what:"the swept scenario's reference run" latencies cfg.Scenario.duration in
  {
    setup_s;
    ops = points;
    ops_s = sweep_s;
    attempted = w.w_executed + w.w_aborted + 1 + points;
    failed = w.w_aborted + tail.t_lost + breaks;
    checks =
      [
        ( Printf.sprintf "sweep: RapiLog keeps the contract at all %d explored boundaries" points,
          points > 0 && breaks = 0 && lost = 0 );
        ("sweep: no tenant loses an acknowledged entry", tenant_breaks = 0);
        ("sweep: the reference run loses no acknowledged commit at its power cut", tail.t_lost = 0 && tail.t_exact);
      ];
    layers = a;
    sim = digest (verdicts, tail, commits, boundaries);
    scaled_setup_s = None;
    scaled_ops_s = Some (get a "_scaled_sweep");
    steady = get a "_unsteady" = 0.;
    model =
      {
        m_name = "lost_commits";
        m_value = Some (float_of_int lost);
        m_unit = "count";
        m_detail =
          Printf.sprintf "summed over %d crash points of %d boundaries; %d contract breaks; %d tenant breaks of %d tenant acks"
            points boundaries breaks tenant_breaks tenant_acked;
      }
      :: tail_line ~where:"after the reference window" tail
      :: commits;
  }

(* crash_surface.ml's scenario: micro workload, 256 keys, 4 clients. *)
let fork_scenario ~seed:run_seed run_mode =
  Scen.Builder.(
    start () |> mode run_mode |> hdd |> clients 4
    |> workload (micro_keys 256 64)
    |> seed run_seed |> warmup (Time.ms 1) |> duration (Time.ms 50))

(* Every boundary of a 10 ms window, three crash kinds. *)
let fork_surface scenario =
  { (Crash_surface.default scenario) with Crash_surface.window_length = Time.ms 10 }

let sweep_fork_unit ~seed:run_seed ~traced =
  let a = Hashtbl.create 64 in
  let cfg = build_config a (fork_scenario ~seed:run_seed Scenario.Rapilog) in
  let surface = fork_surface cfg in
  let enums = enumerate_all a surface in
  sweep_unit a ~traced ~cfg ~enums ~sweep:(fun () ->
      (* One sweep per kind: sweep_fork treats kinds independently, so
         the concatenation is the all-kinds verdict list, and the host
         speed is recalibrated between kinds. *)
      timed_points a
        (List.map
           (fun kind () ->
             span "harness.Crash_surface.sweep_fork" (fun () ->
                 (Crash_surface.sweep_fork ~jobs:1 { surface with Crash_surface.kinds = [ kind ] })
                   .Crash_surface.r_verdicts))
           surface.Crash_surface.kinds))

(* Checks made once per run, outside the timed units. *)

(* Fork verdicts, media digests included, against run_point replay on a
   strided subset of the same surface. *)
let fork_oracle a ~seed:run_seed =
  let cfg = Scen.Builder.build (fork_scenario ~seed:run_seed Scenario.Rapilog) in
  let oracle = { (fork_surface cfg) with Crash_surface.stride = 151; media_digests = true } in
  let fork =
    span "harness.Crash_surface.sweep_fork.oracle" (fun () -> Crash_surface.sweep_fork ~jobs:1 oracle)
  in
  let t0 = now () in
  let replay =
    List.concat_map
      (fun kind ->
        let e = span "harness.Crash_surface.enumerate" (fun () -> Crash_surface.enumerate oracle kind) in
        Array.to_list e.Crash_surface.e_candidates
        |> List.map (fun (event_index, at_ns) ->
               span "harness.Crash_surface.run_point" (fun () ->
                   Crash_surface.run_point oracle kind ~event_index ~at_ns)))
      oracle.Crash_surface.kinds
  in
  let points = List.length replay in
  set a "harness.oracle_ms_per_point" ((now () -. t0) *. 1000. /. float_of_int (max 1 points));
  [
    ( Printf.sprintf "sweep-fork: fork verdicts equal run_point replay on %d oracle points, media digests on" points,
      points > 0 && fork.Crash_surface.r_verdicts = replay );
  ]

(* The unsafe write-cache control must lose acknowledged commits to a
   power cut somewhere, or the sweep could not see a loss at all. *)
let unsafe_control ~seed:run_seed =
  let cfg = Scen.Builder.build (fork_scenario ~seed:run_seed Scenario.Unsafe_wcache) in
  let surface = { (fork_surface cfg) with Crash_surface.kinds = [ Crash_surface.Power_cut ] } in
  let e = Crash_surface.enumerate surface Crash_surface.Power_cut in
  let cands = e.Crash_surface.e_candidates in
  let picks = List.init 8 (fun i -> cands.(((2 * i) + 1) * Array.length cands / 16)) in
  let breaks =
    List.fold_left
      (fun acc (event_index, at_ns) ->
        let v =
          span "harness.Crash_surface.run_point.control" (fun () ->
              Crash_surface.run_point surface Crash_surface.Power_cut ~event_index ~at_ns)
        in
        if v.Crash_surface.v_contract_ok then acc else acc + 1)
      0 picks
  in
  [ (Printf.sprintf "sweep-fork: the unsafe-wcache control breaks the contract (%d of 8 points)" breaks, breaks > 0) ]

(* sharded.ml's sweep scenario: RapiLog-S, 2 shards, 8 tenants. *)
let sharded_scenario ~seed:run_seed =
  let base =
    {
      Scenario.default with
      Scenario.shard =
        {
          Shard.Tier.default_config with
          Shard.Tier.clients = 12;
          mean_interval = Time.ms 1;
          payload_bytes = 96;
        };
    }
  in
  Scen.Builder.(
    start ~base () |> mode Scenario.Rapilog_sharded |> clients 2
    |> workload (micro_keys 64 32)
    |> shards 2 |> tenants 8 |> seed run_seed |> warmup (Time.ms 1) |> duration (Time.ms 30))

let sweep_replay_unit ~seed:run_seed ~traced =
  let a = Hashtbl.create 64 in
  let cfg = build_config a (sharded_scenario ~seed:run_seed) in
  let surface =
    {
      (Crash_surface.default cfg) with
      Crash_surface.window_start = Time.ms 2;
      window_length = Time.ms 12;
      stride = 16;
    }
  in
  let enums = enumerate_all a surface in
  let res =
    sweep_unit a ~traced ~cfg ~enums ~sweep:(fun () ->
        timed_points a
          (List.map
             (fun e () ->
               Array.to_list e.Crash_surface.e_candidates
               |> List.map (fun (event_index, at_ns) ->
                      span "harness.Crash_surface.run_point" (fun () ->
                          Crash_surface.run_point surface e.Crash_surface.e_kind ~event_index ~at_ns)))
             enums))
  in
  {
    res with
    checks =
      res.checks
      @ [ ("sweep-replay: the sharded tier acknowledged tenant entries", get a "shard.tenant_acked" > 0.) ];
  }

(* -- host fingerprint ------------------------------------------------- *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let s = In_channel.input_all ic in
      close_in ic;
      Some s

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some info ->
      String.split_on_char '\n' info
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.trim (String.sub line 0 i) = "model name" ->
                 Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> None)
      |> Option.value ~default:"unknown"

(* The checked-out commit, read from .git without running git; "none"
   in a checkout without .git. *)
let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
      let head = String.trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_file (Filename.concat ".git" r) with
          | Some h -> String.trim h
          | None ->
              Option.bind (read_file ".git/packed-refs") (fun packed ->
                  String.split_on_char '\n' packed
                  |> List.find_map (fun l ->
                         match String.split_on_char ' ' l with
                         | [ h; name ] when name = r -> Some h
                         | _ -> None))
              |> Option.value ~default:"unknown")
      | _ -> head)

let fingerprint () =
  Printf.sprintf "host: nproc=%d ocaml=%s cpu=%S commit=%s host_hash=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (cpu_model ()) (git_commit ())
    (String.sub (Digest.to_hex (Digest.string (Unix.gethostname ()))) 0 12)

(* -- the run ---------------------------------------------------------- *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" Spec.workloads
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

type measured = { traced : bool; host_s : float; majors : int; scale : float; steady : bool; r : unit_result }

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: t :: rest ->
        trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed_int, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0. -> (s, t, tr)
    | _ -> usage ()
  in
  let seed = Int64.of_int seed_int in
  let unit_fn, ops_name, ops_unit =
    match !workload with
    | "openloop-hdd" -> (openloop_unit ~seed, "host_txn_per_s", "txn/s")
    | "tpcc-nvme" -> (tpcc_unit ~seed, "host_txn_per_s", "txn/s")
    | "sweep-fork-hdd" -> (sweep_fork_unit ~seed, "crash_points_per_s", "points/s")
    | "sweep-replay-sharded" -> (sweep_replay_unit ~seed, "crash_points_per_s", "points/s")
    | _ -> usage ()
  in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d jobs=1\n%s\n%!" !workload
    seed_int seconds (Bool.to_int trace) (fingerprint ());
  (* Once-per-run checks, outside the timed units. *)
  let once = Hashtbl.create 4 in
  Tracer.set_enabled tracer trace;
  let once_checks =
    if !workload = "sweep-fork-hdd" then fork_oracle once ~seed @ unsafe_control ~seed else []
  in
  Tracer.set_enabled tracer false;
  (* Unit 1 warms the heap; then units run until the time is up, at
     least one measured (with --trace 1, one traced and one not). *)
  let t_start = now () in
  let units = ref [] in
  let i = ref 0 in
  ignore (recalibrate ());
  while !i < (if trace then 3 else 2) || now () -. t_start < seconds do
    incr i;
    let traced = trace && !i mod 2 = 0 in
    Tracer.set_run tracer !i;
    Tracer.set_enabled tracer traced;
    let before = !kernel_s in
    let majors0 = (Gc.quick_stat ()).Gc.major_collections in
    let t0 = now () in
    let r = unit_fn ~traced in
    let host_s = now () -. t0 in
    Tracer.set_enabled tracer false;
    let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
    let _, after = recalibrate () in
    let scale = scale_of (before, after) in
    let steady = r.steady && (r.scaled_ops_s <> None || steady_between (before, after)) in
    units := { traced; host_s; majors; scale; steady; r } :: !units
  done;
  let all = List.rev !units in
  let first = (List.hd all).r in
  let measured = List.tl all in
  let attempted = List.fold_left (fun acc u -> acc + u.r.attempted) 0 all in
  let failed = List.fold_left (fun acc u -> acc + u.r.failed) 0 all in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let line name value unit detail = Printf.printf "  %-30s %16s %-9s %s\n" name value unit detail in
  let quart name unit values =
    let q1, med, q3 = Rules.quartiles values in
    line name (Printf.sprintf "%.6g" med) unit
      (Printf.sprintf "median of %d units, q1 %.6g, q3 %.6g: %s" (List.length values) q1 q3
         (String.concat " " (List.map (Printf.sprintf "%.4g") values)));
    med
  in
  print_endline "modelled system (simulated time, exact for the seed):";
  List.iter (fun m -> line m.m_name (fmt_opt m.m_value) m.m_unit m.m_detail) first.model;
  print_endline "simulator (host, scaled to the reference speed; raw host values below):";
  let untraced = List.filter (fun u -> not u.traced) measured in
  (* Units across which the host's speed changed (the kernel's times
     before and after differ by more than 10%) are scaled unreliably;
     the gated metrics use the others when at least three remain. *)
  let gated =
    match List.filter (fun u -> u.steady) untraced with
    | (_ :: _ :: _ :: _) as steady -> steady
    | _ -> untraced
  in
  let rate u = float_of_int u.r.ops /. Float.max u.r.ops_s 1e-9 in
  let scaled_setup u = Option.value u.r.scaled_setup_s ~default:(u.r.setup_s /. u.scale) in
  let scaled_rate u =
    match u.r.scaled_ops_s with
    | Some ops_s -> float_of_int u.r.ops /. Float.max ops_s 1e-9
    | None -> rate u *. u.scale
  in
  let setup_s = quart "setup_s" "s" (List.map scaled_setup gated) in
  let host_ops = quart ops_name ops_unit (List.map scaled_rate gated) in
  ignore (quart "raw setup_s" "s" (List.map (fun u -> u.r.setup_s) untraced));
  ignore (quart ("raw " ^ ops_name) ops_unit (List.map rate untraced));
  ignore (quart "speed scale" "x" (List.map (fun u -> u.scale) untraced));
  line "peak_heap_mb" (Printf.sprintf "%.6g" peak_heap_mb) "MiB" "Gc.top_heap_words at exit";
  line "fail_ratio"
    (Printf.sprintf "%.6g" (Rules.fail_ratio ~attempted ~failed))
    "ratio" (Printf.sprintf "%d failed of %d attempted" failed attempted);
  let metrics =
    if not trace then
      [ ("setup_s", setup_s); ("peak_heap_mb", peak_heap_mb); ("host_ops_per_s", host_ops) ]
    else begin
      let traced = List.filter (fun u -> u.traced) measured in
      let med l = Rules.median (List.map (fun u -> u.host_s /. u.scale) l) in
      let overhead = med traced -. med untraced in
      let spans = Tracer.spans tracer in
      let value name u =
        let a = u.r.layers in
        let per x y = if y > 0. then x /. y else 0. in
        match name with
        | "desim.events_per_txn" -> per (get a "_events") (get a "_txns")
        | "desim.host_ns_per_event" -> per (get a "desim.run_s" *. 1e9) (get a "_events")
        | "gc.minor_words_per_txn" -> per (get a "_minor") (get a "_txns")
        | "gc.promoted_words_per_txn" -> per (get a "_promoted") (get a "_txns")
        | "gc.major_collections" -> float_of_int u.majors
        | "gc.minor_words_per_point" -> per (get a "_point_minor") (get a "harness.points")
        | "harness.ms_per_point" -> per (get a "harness.sweep_s" *. 1000.) (get a "harness.points")
        | "harness.oracle_ms_per_point" -> get once name
        | "harness.fail_ratio" -> Rules.fail_ratio ~attempted:u.r.attempted ~failed:u.r.failed
        | "trace.overhead_s" -> overhead
        | "trace.overhead_ratio" -> overhead /. med untraced
        | "trace.spans" -> float_of_int (List.length spans)
        | _ -> get a name
      in
      print_endline "per-layer metrics (median over traced units; 0 = no such work or refused):";
      let values =
        List.map
          (fun (m : Spec.metric) ->
            let v = Rules.median (List.map (value m.Spec.name) traced) in
            line m.Spec.name (Printf.sprintf "%.6g" v) m.Spec.unit "";
            (m.Spec.name, v))
          Spec.per_layer
      in
      print_endline "self time by span, all traced units:";
      Printf.printf "  %-44s %7s %12s %12s\n" "span" "count" "total_ms" "self_ms";
      List.iter
        (fun r ->
          Printf.printf "  %-44s %7d %12.3f %12.3f\n" r.Tracer.r_name r.Tracer.r_count
            (r.Tracer.r_total_us /. 1000.) (r.Tracer.r_self_us /. 1000.))
        (Tracer.table spans);
      Printf.printf
        "tracing overhead: %.6f s per unit, scaled (traced median %.6f s over %d units, untraced median %.6f s over %d)\n"
        overhead (med traced) (List.length traced) (med untraced) (List.length untraced);
      let dir = Filename.concat "perfbench" "out" in
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" !workload seed_int) in
      Tracer.write_chrome spans path;
      Printf.printf "spans: %d written to %s\n" (List.length spans) path;
      values
    end
  in
  let checks =
    once_checks @ first.checks
    @ [
        ( Printf.sprintf "every unit reproduces the simulated results exactly (%d units, %d traced)"
            (List.length all)
            (List.length (List.filter (fun u -> u.traced) all)),
          List.for_all (fun u -> u.r.sim = first.sim) all );
      ]
  in
  List.iter (fun (name, ok) -> Printf.printf "check %s %s\n" (if ok then "ok  " else "FAIL") name) checks;
  let correct = List.for_all snd checks && failed = 0 in
  let units_of = List.map (fun (m : Spec.metric) -> (m.Spec.name, m.Spec.unit)) (Spec.end_to_end @ Spec.per_layer) in
  let metrics_json =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) (List.assoc name units_of))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " metrics_json);
  if not correct then exit 1
