(* Tests for the workload generators and clients. *)

open Desim
open Testu
open Workload

(* -- Value_gen ---------------------------------------------------------- *)

let value_gen_length_and_tag () =
  let rng = Rng.create 1L in
  let v = Value_gen.make rng ~tag:"cu:1:" ~len:32 in
  Alcotest.(check int) "length" 32 (String.length v);
  Alcotest.(check string) "tag prefix" "cu:1:" (String.sub v 0 5)

let value_gen_tag_truncated () =
  let rng = Rng.create 1L in
  let v = Value_gen.make rng ~tag:"very-long-tag" ~len:4 in
  Alcotest.(check string) "truncated" "very" v

(* -- Key_dist ------------------------------------------------------------ *)

let key_dist_uniform_bounds () =
  let rng = Rng.create 2L in
  let dist = Key_dist.uniform ~n:50 in
  Alcotest.(check int) "n" 50 (Key_dist.n dist);
  for _ = 1 to 1000 do
    let k = Key_dist.sample rng dist in
    if k < 0 || k >= 50 then Alcotest.fail "out of range"
  done

let key_dist_zipf_skew () =
  let rng = Rng.create 3L in
  let dist = Key_dist.zipf ~n:100 ~theta:0.99 in
  let zero = ref 0 in
  for _ = 1 to 10_000 do
    if Key_dist.sample rng dist = 0 then incr zero
  done;
  Alcotest.(check bool) "head key popular" true (!zero > 300)

(* -- Microbench ----------------------------------------------------------- *)

let micro_config = { Microbench.default_config with Microbench.keys = 100 }

let micro_initial_rows () =
  let gen = Microbench.create (Rng.create 4L) micro_config in
  let rows = Microbench.initial_rows gen in
  Alcotest.(check int) "one per key" 100 (List.length rows);
  List.iter
    (fun (key, value) ->
      if key < 0 || key >= 100 then Alcotest.fail "key range";
      Alcotest.(check int) "value size" 128 (String.length value))
    rows

let micro_next_shape () =
  let gen = Microbench.create (Rng.create 5L) micro_config in
  for _ = 1 to 100 do
    match Microbench.next gen with
    | [ Dbms.Engine.Put { key; value } ] ->
        if key < 0 || key >= 100 then Alcotest.fail "key range";
        Alcotest.(check int) "value bytes" 128 (String.length value)
    | ops -> Alcotest.failf "expected one put, got %d ops" (List.length ops)
  done

let micro_multi_update () =
  let gen =
    Microbench.create (Rng.create 6L)
      { micro_config with Microbench.updates_per_txn = 4 }
  in
  Alcotest.(check int) "four updates" 4 (List.length (Microbench.next gen))

let micro_deterministic () =
  let run () =
    let gen = Microbench.create (Rng.create 7L) micro_config in
    List.init 20 (fun _ -> Microbench.next gen)
  in
  Alcotest.(check bool) "same seed, same stream" true (run () = run ())

(* -- Tpcc_lite -------------------------------------------------------------- *)

let tpcc_config = Tpcc_lite.default_config

let tpcc_initial_row_count () =
  let gen = Tpcc_lite.create (Rng.create 8L) tpcc_config in
  let c = tpcc_config in
  let expected =
    c.Tpcc_lite.warehouses
    + (c.Tpcc_lite.warehouses * 10)
    + (c.Tpcc_lite.warehouses * 10 * c.Tpcc_lite.customers_per_district)
    + (c.Tpcc_lite.warehouses * c.Tpcc_lite.items_per_warehouse)
  in
  Alcotest.(check int) "schema size" expected (List.length (Tpcc_lite.initial_rows gen))

let tpcc_initial_rows_unique_keys () =
  let gen = Tpcc_lite.create (Rng.create 9L) tpcc_config in
  let rows = Tpcc_lite.initial_rows gen in
  let keys = List.map fst rows in
  Alcotest.(check int) "no duplicates" (List.length keys)
    (List.length (List.sort_uniq Int.compare keys))

let tpcc_values_nonempty () =
  let gen = Tpcc_lite.create (Rng.create 10L) tpcc_config in
  List.iter
    (fun (_, value) ->
      Alcotest.(check int) "row size" tpcc_config.Tpcc_lite.value_bytes
        (String.length value))
    (Tpcc_lite.initial_rows gen)

let tpcc_mix_ratios () =
  let gen = Tpcc_lite.create (Rng.create 11L) tpcc_config in
  for _ = 1 to 10_000 do
    ignore (Tpcc_lite.next gen)
  done;
  let count kind =
    Option.value (List.assoc_opt kind (Tpcc_lite.mix_counts gen)) ~default:0
  in
  let no = count Tpcc_lite.New_order and pay = count Tpcc_lite.Payment in
  let ro = count Tpcc_lite.Order_status + count Tpcc_lite.Stock_level in
  Alcotest.(check bool) (Printf.sprintf "new-order ~45%% (%d)" no) true
    (no > 4100 && no < 4900);
  Alcotest.(check bool) (Printf.sprintf "payment ~43%% (%d)" pay) true
    (pay > 3900 && pay < 4700);
  Alcotest.(check bool) (Printf.sprintf "read-only ~8%% (%d)" ro) true
    (ro > 500 && ro < 1100)

let tpcc_new_order_shape () =
  let gen = Tpcc_lite.create (Rng.create 12L) tpcc_config in
  let rec find_new_order () =
    match Tpcc_lite.next gen with
    | Tpcc_lite.New_order, ops -> ops
    | _ -> find_new_order ()
  in
  let ops = find_new_order () in
  let puts = List.length (List.filter (function Dbms.Engine.Put _ -> true | Dbms.Engine.Get _ | Dbms.Engine.Delete _ -> false) ops) in
  let gets = List.length ops - puts in
  (* district + order + per line (stock + order line): 2 + 2*[5..15] *)
  Alcotest.(check bool) (Printf.sprintf "puts in range (%d)" puts) true
    (puts >= 12 && puts <= 32);
  Alcotest.(check bool) (Printf.sprintf "has reads (%d)" gets) true (gets >= 2)

let tpcc_order_status_read_only () =
  let gen = Tpcc_lite.create (Rng.create 13L) tpcc_config in
  let rec find () =
    match Tpcc_lite.next gen with
    | Tpcc_lite.Order_status, ops -> ops
    | _ -> find ()
  in
  List.iter
    (function
      | Dbms.Engine.Get _ -> ()
      | Dbms.Engine.Put _ | Dbms.Engine.Delete _ -> Alcotest.fail "order-status must be read-only")
    (find ())

let tpcc_inserts_use_fresh_keys () =
  let gen = Tpcc_lite.create (Rng.create 14L) tpcc_config in
  let schema_keys = List.map fst (Tpcc_lite.initial_rows gen) in
  let max_schema = List.fold_left max 0 schema_keys in
  let rec new_order_puts tries =
    if tries = 0 then []
    else
      match Tpcc_lite.next gen with
      | Tpcc_lite.New_order, ops ->
          List.filter_map
            (function
              | Dbms.Engine.Put { key; _ } when key >= 20_000_000 -> Some key
              | Dbms.Engine.Put _ | Dbms.Engine.Get _ | Dbms.Engine.Delete _ -> None)
            ops
      | _ -> new_order_puts (tries - 1)
  in
  let fresh = new_order_puts 100 in
  Alcotest.(check bool) "order rows beyond the schema" true
    (fresh <> [] && List.for_all (fun k -> k > max_schema) fresh)

let tpcc_kind_names () =
  Alcotest.(check string) "new-order" "new-order" (Tpcc_lite.kind_name Tpcc_lite.New_order);
  Alcotest.(check string) "delivery" "delivery" (Tpcc_lite.kind_name Tpcc_lite.Delivery)

let tpcc_deterministic () =
  let run () =
    let gen = Tpcc_lite.create (Rng.create 15L) tpcc_config in
    List.init 50 (fun _ -> snd (Tpcc_lite.next gen))
  in
  Alcotest.(check bool) "same seed, same stream" true (run () = run ())

(* -- Client ------------------------------------------------------------------- *)

let client_rig () =
  let sim = Sim.create ~seed:20L () in
  let vmm = Hypervisor.Vmm.create sim Hypervisor.Vmm.native in
  let log_dev = Storage.Ssd.create sim Storage.Ssd.default in
  let data_dev = Storage.Ssd.create sim Storage.Ssd.default in
  let wal = Dbms.Wal.create sim Dbms.Wal.default_config ~device:log_dev in
  let pool =
    Dbms.Buffer_pool.create sim Dbms.Buffer_pool.default_config ~device:data_dev
      ~wal_force:(fun ~page:_ lsn -> Dbms.Wal.force wal lsn)
  in
  let engine =
    Dbms.Engine.create ~vmm ~profile:Dbms.Engine_profile.postgres_like ~wal ~pool ()
  in
  (sim, vmm, engine)

let clients_commit_until_stopped () =
  let sim, vmm, engine = client_rig () in
  let acks = ref 0 in
  ignore
    (Client.spawn ~vmm Client.default_config ~count:3
       ~gen:(fun ~client ->
         [ Dbms.Engine.Put { key = client; value = "x" } ])
       ~engine
       ~on_commit:(fun ~client:_ _ -> incr acks));
  Sim.schedule_after sim (Time.ms 50) (fun () -> Hypervisor.Vmm.crash_guest vmm);
  Sim.run sim;
  Alcotest.(check bool) (Printf.sprintf "many acks (%d)" !acks) true (!acks > 10)

let clients_think_time_limits_rate () =
  let run think_time =
    let sim, vmm, engine = client_rig () in
    let acks = ref 0 in
    ignore
      (Client.spawn ~vmm { Client.think_time } ~count:1
         ~gen:(fun ~client:_ -> [ Dbms.Engine.Put { key = 1; value = "x" } ])
         ~engine
         ~on_commit:(fun ~client:_ _ -> incr acks));
    Sim.schedule_after sim (Time.ms 100) (fun () -> Hypervisor.Vmm.crash_guest vmm);
    Sim.run sim;
    !acks
  in
  let eager = run Time.zero_span in
  let lazy_rate = run (Time.ms 10) in
  Alcotest.(check bool)
    (Printf.sprintf "think time throttles (%d vs %d)" lazy_rate eager)
    true
    (lazy_rate < eager / 2);
  Alcotest.(check bool) "roughly one per think period" true
    (lazy_rate >= 8 && lazy_rate <= 12)

let clients_pass_client_index () =
  let sim, vmm, engine = client_rig () in
  let seen = Hashtbl.create 8 in
  ignore
    (Client.spawn ~vmm Client.default_config ~count:4
       ~gen:(fun ~client -> [ Dbms.Engine.Put { key = client; value = "x" } ])
       ~engine
       ~on_commit:(fun ~client result ->
         List.iter
           (fun (key, _) -> Hashtbl.replace seen (client, key) ())
           result.Dbms.Engine.writes));
  Sim.schedule_after sim (Time.ms 10) (fun () -> Hypervisor.Vmm.crash_guest vmm);
  Sim.run sim;
  for client = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "client %d wrote its own key" client)
      true
      (Hashtbl.mem seen (client, client))
  done

let suites =
  [
    ( "workload.value_gen",
      [
        case "length and tag" value_gen_length_and_tag;
        case "tag truncation" value_gen_tag_truncated;
      ] );
    ( "workload.key_dist",
      [
        case "uniform bounds" key_dist_uniform_bounds;
        case "zipf skew" key_dist_zipf_skew;
      ] );
    ( "workload.microbench",
      [
        case "initial rows" micro_initial_rows;
        case "single-update transactions" micro_next_shape;
        case "multi-update configuration" micro_multi_update;
        case "deterministic by seed" micro_deterministic;
      ] );
    ( "workload.tpcc_lite",
      [
        case "initial row count matches the schema" tpcc_initial_row_count;
        case "initial keys unique" tpcc_initial_rows_unique_keys;
        case "row payload sizes" tpcc_values_nonempty;
        case "transaction mix ratios" tpcc_mix_ratios;
        case "new-order shape" tpcc_new_order_shape;
        case "order-status is read-only" tpcc_order_status_read_only;
        case "inserts allocate fresh keys" tpcc_inserts_use_fresh_keys;
        case "kind names" tpcc_kind_names;
        case "deterministic by seed" tpcc_deterministic;
      ] );
    ( "workload.client",
      [
        case "closed loop commits until stopped" clients_commit_until_stopped;
        case "think time throttles the rate" clients_think_time_limits_rate;
        case "client index reaches generator and callback" clients_pass_client_index;
      ] );
  ]

(* -- Ycsb_lite (appended) -------------------------------------------------- *)

let ycsb_config = { Ycsb_lite.default_config with Ycsb_lite.keys = 200 }

let ycsb_initial_rows () =
  let gen = Ycsb_lite.create (Rng.create 30L) ycsb_config in
  Alcotest.(check int) "one per key" 200 (List.length (Ycsb_lite.initial_rows gen))

let ycsb_read_fraction_respected () =
  let gen =
    Ycsb_lite.create (Rng.create 31L)
      { ycsb_config with Ycsb_lite.read_fraction = 0.8; ops_per_txn = 1 }
  in
  for _ = 1 to 5000 do
    ignore (Ycsb_lite.next gen)
  done;
  let reads = Ycsb_lite.reads_issued gen and updates = Ycsb_lite.updates_issued gen in
  let frac = float_of_int reads /. float_of_int (reads + updates) in
  Alcotest.(check bool) (Printf.sprintf "~80%% reads (%.2f)" frac) true
    (frac > 0.76 && frac < 0.84)

let ycsb_read_only_extreme () =
  let gen =
    Ycsb_lite.create (Rng.create 32L) { ycsb_config with Ycsb_lite.read_fraction = 1.0 }
  in
  for _ = 1 to 100 do
    List.iter
      (function
        | Dbms.Engine.Get _ -> ()
        | Dbms.Engine.Put _ | Dbms.Engine.Delete _ -> Alcotest.fail "read-only workload wrote")
      (Ycsb_lite.next gen)
  done

let ycsb_update_only_extreme () =
  let gen =
    Ycsb_lite.create (Rng.create 33L) { ycsb_config with Ycsb_lite.read_fraction = 0.0 }
  in
  for _ = 1 to 100 do
    List.iter
      (function
        | Dbms.Engine.Put { value; _ } ->
            Alcotest.(check int) "value size" 100 (String.length value)
        | Dbms.Engine.Get _ -> Alcotest.fail "update-only workload read"
        | Dbms.Engine.Delete _ -> ())
      (Ycsb_lite.next gen)
  done

let ycsb_ops_per_txn () =
  let gen =
    Ycsb_lite.create (Rng.create 34L) { ycsb_config with Ycsb_lite.ops_per_txn = 5 }
  in
  Alcotest.(check int) "five ops" 5 (List.length (Ycsb_lite.next gen))

let ycsb_suite =
  ( "workload.ycsb_lite",
    [
      case "initial rows" ycsb_initial_rows;
      case "read fraction respected" ycsb_read_fraction_respected;
      case "read-only extreme" ycsb_read_only_extreme;
      case "update-only extreme" ycsb_update_only_extreme;
      case "ops per transaction" ycsb_ops_per_txn;
    ] )

let suites = suites @ [ ycsb_suite ]

(* -- Known answers --------------------------------------------------------- *)

(* Values and transaction streams pinned to what the original generators
   produced (Printf-built tags, record-of-int64 Rng). Every workload's
   random stream, and so every simulated result, depends on these bytes
   and on the number of draws behind them. *)

let value_gen_known_answers () =
  let rng = Rng.create 42L in
  List.iter
    (fun (tag, len, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "tag %S len %d" tag len)
        expected (Value_gen.make rng ~tag ~len))
    [
      ("k1:", 16, "k1:tqp8ud7bvbmt4");
      ("", 8, "51whttgv");
      ("toolongtag", 4, "tool");
      ("cu:", 40, "cu:6zda9h87c9a8f8xjqjx1d9ejm8w0mnmcmundv");
      ("y123:", 1, "y");
    ]

(* MD5 of everything [emit] writes. *)
let digest_of emit =
  let buf = Buffer.create 4096 in
  emit (Buffer.add_string buf);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let op_text = function
  | Dbms.Engine.Put { key; value } -> Printf.sprintf "P%d=%s;" key value
  | Dbms.Engine.Get { key } -> Printf.sprintf "G%d;" key
  | Dbms.Engine.Delete { key } -> Printf.sprintf "D%d;" key

let row_text (key, value) = Printf.sprintf "%d=%s\n" key value

let tpcc_known_digest () =
  let stream =
    digest_of (fun add ->
        let gen = Tpcc_lite.create (Rng.create 42L) Tpcc_lite.default_config in
        for _ = 1 to 1000 do
          let kind, ops = Tpcc_lite.next gen in
          add (Tpcc_lite.kind_name kind);
          List.iter (fun op -> add (op_text op)) ops;
          add "\n"
        done)
  in
  Alcotest.(check string) "1000 transactions" "3ec22029b8cdb07ae85d2d4e866168f9" stream;
  let rows =
    digest_of (fun add ->
        let gen = Tpcc_lite.create (Rng.create 42L) Tpcc_lite.default_config in
        List.iter (fun row -> add (row_text row)) (Tpcc_lite.initial_rows gen))
  in
  Alcotest.(check string) "initial rows" "ccdc4e1bdef2444e5c081e0eff65258c" rows

(* Initial rows, then 1,000 transactions, one line each. *)
let rows_and_stream_digest rows next =
  digest_of (fun add ->
      List.iter (fun row -> add (row_text row)) rows;
      for _ = 1 to 1000 do
        List.iter (fun op -> add (op_text op)) (next ());
        add "\n"
      done)

let micro_and_ycsb_known_digests () =
  let micro =
    let config = { micro_config with Microbench.updates_per_txn = 3; delete_fraction = 0.1 } in
    let gen = Microbench.create (Rng.create 42L) config in
    let rows = Microbench.initial_rows gen in
    rows_and_stream_digest rows (fun () -> Microbench.next gen)
  in
  Alcotest.(check string) "microbench rows + 1000 transactions"
    "595eae970bdb5ffea23fe965b528021f" micro;
  let ycsb =
    let config = { Ycsb_lite.default_config with Ycsb_lite.keys = 100 } in
    let gen = Ycsb_lite.create (Rng.create 42L) config in
    let rows = Ycsb_lite.initial_rows gen in
    rows_and_stream_digest rows (fun () -> Ycsb_lite.next gen)
  in
  Alcotest.(check string) "ycsb rows + 1000 transactions"
    "8d1fe70534a19b6046336fdf6450c4d1" ycsb

let known_answer_suite =
  ( "workload.known_answers",
    [
      case "value_gen outputs" value_gen_known_answers;
      case "tpcc-lite stream digest" tpcc_known_digest;
      case "microbench and ycsb-lite stream digests" micro_and_ycsb_known_digests;
    ] )

let suites = suites @ [ known_answer_suite ]
