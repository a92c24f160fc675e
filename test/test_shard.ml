(* Tests for the sharded multi-tenant logger tier (RapiLog-S): the
   tenant txid packing, the registry's bucket table under rebalancing,
   the per-tenant recovery merge — including the qcheck law that
   interleaving two tenants' streams (and splitting the interleaving
   across shards) never changes either tenant's recovered prefix — and
   the tier end-to-end: a driven two-tenant interleaving through real
   shards, and a power cut landing mid-rebalance that must recover the
   source and the destination shard with no tenant entry lost. *)

open Desim
open Testu

(* -- tenant txid packing -------------------------------------------------- *)

let gen_tenant_seq =
  let open QCheck2.Gen in
  let* tenant = int_range 1 Rapilog.Tenant.max_tenant in
  let* seq = int_range 1 Rapilog.Tenant.max_seq in
  return (tenant, seq)

let pack_roundtrip_law (tenant, seq) =
  let txid = Rapilog.Tenant.pack ~tenant ~seq in
  Rapilog.Tenant.is_tagged txid
  && Rapilog.Tenant.tenant_of txid = tenant
  && Rapilog.Tenant.seq_of txid = seq

(* Plain DBMS txids — any value a sequential allocator could produce
   before the tag boundary — must never read as tenant-tagged. *)
let untagged_law plain =
  let plain = 1 + (abs plain mod Rapilog.Tenant.max_seq) in
  not (Rapilog.Tenant.is_tagged plain)

let tenant_suite =
  ( "shard.tenant",
    [
      prop "pack/unpack roundtrip, always tagged" gen_tenant_seq
        pack_roundtrip_law;
      prop "plain txids below 2^seq_bits are never tagged" QCheck2.Gen.int
        untagged_law;
      case "tag boundary" (fun () ->
          Alcotest.(check bool)
            "max_seq alone is below the tag boundary" false
            (Rapilog.Tenant.is_tagged Rapilog.Tenant.max_seq);
          Alcotest.(check bool) "2^seq_bits is tagged" true
            (Rapilog.Tenant.is_tagged (Rapilog.Tenant.max_seq + 1));
          Alcotest.(check int) "tenant 1 seq 1 packs just past the boundary"
            (Rapilog.Tenant.max_seq + 2)
            (Rapilog.Tenant.pack ~tenant:1 ~seq:1));
    ] )

(* -- registry -------------------------------------------------------------- *)

let total_owned reg =
  let sum = ref 0 in
  for s = 0 to Shard.Registry.shards reg - 1 do
    sum := !sum + Shard.Registry.owned reg s
  done;
  !sum

(* An arbitrary sequence of valid splits: buckets are conserved, every
   tenant still routes to a valid shard, its bucket never moves, and
   the epoch counts the splits. *)
let gen_splits =
  let open QCheck2.Gen in
  let* shards = int_range 2 6 in
  let* splits = list_size (int_range 0 8) (pair (int_range 0 5) (int_range 0 5)) in
  return (shards, splits)

let registry_split_law (shards, splits) =
  let reg = Shard.Registry.create ~shards ~buckets:64 () in
  let buckets = Shard.Registry.bucket_count reg in
  let tenants = List.init 40 (fun i -> i + 1) in
  let bucket0 =
    List.map (fun t -> Shard.Registry.bucket_of_tenant reg ~tenant:t) tenants
  in
  let applied = ref 0 in
  List.iter
    (fun (source, target) ->
      let source = source mod shards and target = target mod shards in
      (* epoch counts splits that moved something: repeated splits can
         drain a source to zero buckets, and a split of an empty source
         is a no-op that must not bump the epoch *)
      if source <> target && Shard.Registry.split reg ~source ~target > 0 then
        incr applied)
    splits;
  total_owned reg = buckets
  && Shard.Registry.epoch reg = !applied
  && List.for_all2
       (fun tenant b0 ->
         let shard = Shard.Registry.shard_of_tenant reg ~tenant in
         shard >= 0 && shard < shards
         && Shard.Registry.bucket_of_tenant reg ~tenant = b0)
       tenants bucket0

let registry_suite =
  ( "shard.registry",
    [
      case "round-robin creation covers every bucket" (fun () ->
          let reg = Shard.Registry.create ~shards:4 () in
          Alcotest.(check int) "buckets" 1024 (Shard.Registry.bucket_count reg);
          Alcotest.(check int) "all owned" 1024 (total_owned reg);
          for s = 0 to 3 do
            Alcotest.(check int) "even share" 256 (Shard.Registry.owned reg s)
          done);
      case "split moves half the source's buckets" (fun () ->
          let reg = Shard.Registry.create ~shards:2 ~buckets:64 () in
          let moved = Shard.Registry.split reg ~source:0 ~target:1 in
          Alcotest.(check int) "half of 32" 16 moved;
          Alcotest.(check int) "source keeps half" 16 (Shard.Registry.owned reg 0);
          Alcotest.(check int) "target gains" 48 (Shard.Registry.owned reg 1);
          Alcotest.(check int) "moves counted" 16 (Shard.Registry.moves reg));
      prop "splits conserve buckets and never move a tenant's bucket"
        gen_splits registry_split_law;
    ] )

(* -- the recovery merge: interleaving invariance --------------------------- *)

(* A fabricated recovery result carrying only committed txids — all the
   merge reads. *)
let fake_result committed =
  {
    Dbms.Recovery.store = Hashtbl.create 1;
    records_rev = [];
    parities = Hashtbl.create 1;
    committed;
    aborted = [];
    losers = [];
    durable_records = 0;
    durable_end = Dbms.Lsn.zero;
    redo_start = Dbms.Lsn.zero;
    redo_applied = 0;
    undo_applied = 0;
    pages_loaded = 0;
  }

let shuffle key l =
  List.mapi (fun i x -> (((i + 1) * 1103515245) + key, x)) l
  |> List.sort compare |> List.map snd

let recovered_prefix results ~tenant =
  let seqs = Shard.Recover.tenant_seqs results in
  let l = match Hashtbl.find_opt seqs tenant with Some l -> l | None -> [] in
  Shard.Recover.prefix_length l

(* The ISSUE's law: two tenants' streams, interleaved any way at all,
   diluted with plain DBMS txids, split at an arbitrary point across
   two shards' recovery results (a rebalance leaves exactly this shape)
   with an arbitrary overlap re-reported by both shards — neither
   tenant's recovered prefix moves. *)
let gen_interleaving =
  let open QCheck2.Gen in
  let* n1 = int_range 0 60 in
  let* n2 = int_range 0 60 in
  let* noise = int_range 0 20 in
  let* key = int_range 0 1_000_000 in
  let* cut = int_range 0 (n1 + n2 + noise) in
  let* overlap = int_range 0 10 in
  return (n1, n2, noise, key, cut, overlap)

let interleave_invariance_law (n1, n2, noise, key, cut, overlap) =
  let t1 = List.init n1 (fun i -> Rapilog.Tenant.pack ~tenant:7 ~seq:(i + 1)) in
  let t2 = List.init n2 (fun i -> Rapilog.Tenant.pack ~tenant:9 ~seq:(i + 1)) in
  let dbms = List.init noise (fun i -> i + 1) in
  let stream = shuffle key (t1 @ t2 @ dbms) in
  (* One shard holding everything... *)
  let whole = [ fake_result stream ] in
  (* ...versus the stream cut across two shards, the boundary region
     double-reported (an in-flight append can land durably on the
     source while the registry already routes the tenant to the
     destination). *)
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  let rec drop n = function
    | _ :: rest when n > 0 -> drop (n - 1) rest
    | l -> l
  in
  let split =
    [
      fake_result (take (min (List.length stream) (cut + overlap)) stream);
      fake_result (drop (max 0 (cut - overlap)) stream);
    ]
  in
  List.for_all
    (fun (tenant, n) ->
      recovered_prefix whole ~tenant = n
      && recovered_prefix split ~tenant = n)
    [ (7, n1); (9, n2) ]

let recover_suite =
  ( "shard.recover",
    [
      case "prefix_length" (fun () ->
          Alcotest.(check int) "empty" 0 (Shard.Recover.prefix_length []);
          Alcotest.(check int) "full" 4 (Shard.Recover.prefix_length [ 1; 2; 3; 4 ]);
          Alcotest.(check int) "gap stops the prefix" 2
            (Shard.Recover.prefix_length [ 1; 2; 4; 5 ]);
          Alcotest.(check int) "no 1" 0 (Shard.Recover.prefix_length [ 2; 3 ]));
      prop "interleaving two tenants' streams never changes either prefix"
        ~count:300 gen_interleaving interleave_invariance_law;
    ] )

(* -- the tier end-to-end ---------------------------------------------------- *)

(* Drive a real two-tenant tier with a generated interleaving (no
   open-loop clients), quiesce, and audit: every submission of both
   tenants must be acknowledged, recovered, and form a complete
   per-tenant prefix — whatever the interleaving order. *)
let driven_tier_law order =
  let sim = Sim.create ~seed:77L () in
  let vmm = Hypervisor.Vmm.create sim Hypervisor.Vmm.default_sel4 in
  let power = Power.Power_domain.create sim Power.Psu.default in
  let tier =
    Shard.Tier.attach sim ~vmm ~power
      ~config:
        {
          Shard.Tier.default_config with
          Shard.Tier.shards = 2;
          tenants = 2;
          clients = 0;
          payload_bytes = 64;
          horizon = Time.ms 50;
        }
      ~make_device:(fun () -> Storage.Hdd.create sim Storage.Hdd.default_7200rpm)
      ()
  in
  ignore
    (Process.spawn sim ~name:"driver" (fun () ->
         List.iter
           (fun first ->
             Shard.Tier.submit tier ~tenant:(if first then 1 else 2);
             Process.sleep (Time.us 120))
           order;
         Shard.Tier.quiesce tier));
  Sim.run sim;
  let n1 = List.length (List.filter Fun.id order) in
  let n2 = List.length order - n1 in
  let audit = Shard.Recover.audit tier in
  let results =
    [ Shard.Recover.shard_result tier 0; Shard.Recover.shard_result tier 1 ]
  in
  Shard.Tier.acked tier = List.length order
  && Shard.Tier.tenant_acked_count tier ~tenant:1 = n1
  && Shard.Tier.tenant_acked_count tier ~tenant:2 = n2
  && recovered_prefix results ~tenant:1 = n1
  && recovered_prefix results ~tenant:2 = n2
  && audit.Shard.Recover.a_lost = 0
  && audit.Shard.Recover.a_breaks = 0

let gen_order = QCheck2.Gen.(list_size (int_range 0 50) bool)

(* The ISSUE's rebalance unit test: a split lands mid-run and mains
   power dies shortly after, while traffic is flowing — so moved
   tenants have appends durable on the source *and* the destination.
   Recovery must read both shards and lose nothing acknowledged. *)
let mid_rebalance_crash () =
  let sim = Sim.create ~seed:90_1104L () in
  let vmm = Hypervisor.Vmm.create sim Hypervisor.Vmm.default_sel4 in
  let power = Power.Power_domain.create sim Power.Psu.default in
  let tier =
    Shard.Tier.attach sim ~vmm ~power
      ~config:
        {
          Shard.Tier.default_config with
          Shard.Tier.shards = 2;
          tenants = 32;
          clients = 64;
          mean_interval = Time.ms 1;
          payload_bytes = 96;
          horizon = Time.ms 40;
        }
      ~make_device:(fun () -> Storage.Hdd.create sim Storage.Hdd.default_7200rpm)
      ()
  in
  let moved = ref 0 in
  Sim.schedule_at sim (Time.of_ns 15_000_000) (fun () ->
      moved := Shard.Tier.split_shard tier ~source:0 ~target:1);
  Power.Power_domain.cut_at power (Time.of_ns 20_000_000);
  Sim.run sim;
  Alcotest.(check bool) "the split moved buckets" true (!moved > 0);
  Alcotest.(check bool) "the cut stopped the tier" true
    (Shard.Tier.stopped tier);
  Alcotest.(check bool) "tenants were acknowledged" true
    (Shard.Tier.acked tier > 0);
  (* Some moved tenant's history must genuinely straddle the shards —
     otherwise this test is not exercising the mid-rebalance shape. *)
  let seqs_of shard =
    Shard.Recover.tenant_seqs [ Shard.Recover.shard_result tier shard ]
  in
  let on0 = seqs_of 0 and on1 = seqs_of 1 in
  let straddlers =
    Hashtbl.fold
      (fun tenant _ acc -> if Hashtbl.mem on1 tenant then acc + 1 else acc)
      on0 0
  in
  Alcotest.(check bool) "a tenant's history spans source and destination" true
    (straddlers > 0);
  let audit = Shard.Recover.audit tier in
  Alcotest.(check int) "no acknowledged entry lost" 0
    audit.Shard.Recover.a_lost;
  Alcotest.(check int) "no tenant broken" 0 audit.Shard.Recover.a_breaks

(* Same cell config, run twice through [Cell.run]: bit-identical
   digests — the determinism the bench's jobs=1 ≡ jobs=N gate rests
   on, pinned as a unit test. *)
let cell_deterministic () =
  let config =
    {
      Shard.Cell.c_name = "det";
      c_tier =
        {
          Shard.Tier.default_config with
          Shard.Tier.shards = 2;
          tenants = 8;
          clients = 16;
          mean_interval = Time.ms 2;
          horizon = Time.ms 30;
        };
      c_seed = 4242L;
      c_fault =
        {
          Shard.Cell.f_cut_at = None;
          f_split_at = Some (Time.ms 15, 0, 1);
        };
    }
  in
  let a = Shard.Cell.run config and b = Shard.Cell.run config in
  Alcotest.(check string) "digest" (Shard.Cell.digest a) (Shard.Cell.digest b);
  Alcotest.(check bool) "split happened" true (a.Shard.Cell.r_buckets_moved > 0);
  Alcotest.(check int) "clean audit" 0 a.Shard.Cell.r_audit.Shard.Recover.a_lost

let tier_suite =
  ( "shard.tier",
    [
      prop "driven two-tenant interleavings recover complete prefixes"
        ~count:15 gen_order driven_tier_law;
      case "mid-rebalance power cut recovers both shards" mid_rebalance_crash;
      case "cell runs are deterministic" cell_deterministic;
    ] )

let suites = [ tenant_suite; registry_suite; recover_suite; tier_suite ]
