open Desim

type op =
  | Put of { key : int; value : string }
  | Get of { key : int }
  | Delete of { key : int }

type txn_result = {
  txid : int;
  writes : (int * string option) list;
  reads : (int * string option) list;
  latency : Time.span;
}

(* Commit-path stage handles ({!Desim.Metrics} discipline: resolved once
   at create, [None] when metrics are off). [commit.exec] covers client
   submit to commit-record append; [commit.force] the wait for log
   durability (or the ack point, for async commit); [commit.total] the
   whole client-visible latency of a write transaction. *)
type engine_metrics = {
  m_exec : Metrics.Histogram.t;
  m_force : Metrics.Histogram.t;
  m_total : Metrics.Histogram.t;
  m_commits : Metrics.Counter.t;
}

type t = {
  vmm : Hypervisor.Vmm.t;
  profile : Engine_profile.t;
  async_commit : bool;
  wal : Wal.t;
  pool : Buffer_pool.t;
  streams : int;  (* Wal.stream_count, cached for the append path *)
  keys_per_page : int;  (* page partitioning decides a key's stream *)
  locks : Lock_table.t;
  txns : Txn.Manager.t;
  commit_serialiser : Resource.Mutex.t;  (* used by the Serial policy *)
  mutable committed_txids : int list;  (* descending *)
  latencies : Stats.Sample.t;
  metrics : engine_metrics option;
}

let create ~vmm ~profile ?(async_commit = false) ?first_txid ~wal ~pool () =
  let sim = Hypervisor.Vmm.sim vmm in
  Wal.set_policy wal profile.Engine_profile.commit_policy;
  {
    vmm;
    profile;
    async_commit;
    wal;
    pool;
    streams = Wal.stream_count wal;
    keys_per_page = (Buffer_pool.config pool).Buffer_pool.keys_per_page;
    locks = Lock_table.create sim;
    txns = Txn.Manager.create ?first_txid ();
    commit_serialiser = Resource.Mutex.create sim;
    committed_txids = [];
    latencies = Stats.Sample.create ();
    metrics =
      Option.map
        (fun reg ->
          {
            m_exec = Metrics.histogram reg "commit.exec";
            m_force = Metrics.histogram reg "commit.force";
            m_total = Metrics.histogram reg "commit.total";
            m_commits = Metrics.counter reg "engine.write_commits";
          })
        (Metrics.recording ());
  }

let spawn_wal_writer t domain ~interval =
  assert (Time.compare_span interval Time.zero_span > 0);
  Hypervisor.Domain.spawn domain ~name:"wal-writer" (fun () ->
      while true do
        Process.sleep interval;
        for s = 0 to t.streams - 1 do
          Wal.force ~stream:s t.wal (Wal.end_lsn ~stream:s t.wal)
        done
      done)

(* Multi-stream routing: a page's records all live on one stream (page
   id mod streams), so the per-stream page-LSN guards recovery relies on
   stay sound; a transaction's outcome record lives on its home stream
   (txid mod streams). Pure integer arithmetic — the stream-append
   decision is on the commit hot path and must not allocate. *)
let stream_of_key t key =
  if t.streams = 1 then 0
  else Page.page_of_key ~keys_per_page:t.keys_per_page key mod t.streams

let home_stream t txid = if t.streams = 1 then 0 else txid mod t.streams

let no_deps = [||]

let profile t = t.profile
let wal t = t.wal
let pool t = t.pool

let write_set ops =
  (* Lock acquisition in key order prevents deadlock; the last write to a
     key within one transaction wins. A [None] value is a delete. The
     sort is stable, so the last of each key's run is its final write. *)
  let rec last_of_each = function
    | (a, _) :: ((b, _) :: _ as rest) when a = b -> last_of_each rest
    | write :: rest -> write :: last_of_each rest
    | [] -> []
  in
  List.filter_map
    (function
      | Put { key; value } ->
          assert (String.length value > 0);
          Some (key, Some value)
      | Delete { key } -> Some (key, None)
      | Get _ -> None)
    ops
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
  |> last_of_each

let read_set ops =
  List.filter_map (function Get { key } -> Some key | Put _ | Delete _ -> None) ops

let apply_update t txn ~deps ~key ~value =
  Buffer_pool.with_page t.pool ~key (fun page ->
      let before = Option.value (Page.get page ~key) ~default:"" in
      Txn.record_update txn ~key ~before;
      let stream = stream_of_key t key in
      (* An empty after-image encodes the delete, mirroring the empty
         before-image for "key did not exist". *)
      let after = Option.value value ~default:"" in
      let lsn =
        Wal.append ~stream t.wal
          (Log_record.Update { txid = Txn.txid txn; key; before; after })
      in
      let lsn =
        if t.profile.Engine_profile.update_meta_bytes > 0 then
          Wal.append ~stream t.wal
            (Log_record.Noop { filler = t.profile.Engine_profile.update_meta_bytes })
        else lsn
      in
      if deps != no_deps then
        deps.(stream) <- max deps.(stream) (Lsn.to_int lsn);
      Buffer_pool.mark_dirty t.pool page ~lsn;
      match value with
      | Some v -> Page.set page ~key ~value:v ~lsn
      | None ->
          Hashtbl.remove page.Page.values key;
          page.Page.page_lsn <- Lsn.max page.Page.page_lsn lsn)

let cpu t span = Hypervisor.Vmm.exec t.vmm span

let run_ops t txn ~deps ops =
  let writes = write_set ops in
  List.iter (fun (key, _) -> Lock_table.lock t.locks ~txid:(Txn.txid txn) ~key;
              Txn.record_lock txn key)
    writes;
  let reads =
    List.map
      (fun key ->
        cpu t t.profile.Engine_profile.op_cpu;
        (key, Buffer_pool.with_page t.pool ~key (fun page -> Page.get page ~key)))
      (read_set ops)
  in
  List.iter
    (fun (key, value) ->
      cpu t t.profile.Engine_profile.op_cpu;
      apply_update t txn ~deps ~key ~value)
    writes;
  (writes, reads)

let release txn t = Lock_table.unlock_all t.locks ~txid:(Txn.txid txn) ~keys:(Txn.locked_keys txn)

(* Append the transaction's outcome record. Single-stream: the classic
   [Commit]. Multi-stream: fold the WAL's cross-stream watermark into
   the transaction's own per-stream append ends, add the commit record
   itself (its size is independent of the dependency values, so its end
   LSN is known before appending), publish the vector back — all
   without a blocking point, so the read-modify-write of the watermark
   is atomic in the cooperative simulation. The fold is what totally
   orders multi-stream commits: any crash that preserves this commit's
   dependencies also preserves every earlier commit's. *)
let append_commit_record t ~deps ~home txid =
  if t.streams = 1 then Wal.append t.wal (Log_record.Commit { txid })
  else begin
    let g = Wal.dep_watermark t.wal in
    for s = 0 to t.streams - 1 do
      if g.(s) > deps.(s) then deps.(s) <- g.(s)
    done;
    let record = Log_record.Commit_multi { txid; deps } in
    let end_b =
      Lsn.to_int (Wal.end_lsn ~stream:home t.wal) + Log_record.encoded_size record
    in
    if end_b > deps.(home) then deps.(home) <- end_b;
    let lsn = Wal.append ~stream:home t.wal record in
    assert (Lsn.to_int lsn = deps.(home));
    for s = 0 to t.streams - 1 do
      if deps.(s) > g.(s) then g.(s) <- deps.(s)
    done;
    lsn
  end

(* Make the commit durable: every stream the dependency vector names,
   the home stream through the policy's batched force. *)
let force_commit t ~deps ~home lsn =
  if Time.compare_span t.profile.Engine_profile.commit_delay Time.zero_span > 0
  then Process.sleep t.profile.Engine_profile.commit_delay;
  if t.streams = 1 then Wal.force_batched t.wal lsn
  else begin
    for s = 0 to t.streams - 1 do
      if s <> home && deps.(s) > 0 then Wal.force ~stream:s t.wal (Lsn.of_int deps.(s))
    done;
    Wal.force_batched ~stream:home t.wal (Lsn.of_int deps.(home))
  end

let serialised_commit t ~deps ~home =
  Resource.Mutex.with_lock t.commit_serialiser (fun () ->
      if t.streams = 1 then Wal.force_exclusive t.wal
      else begin
        for s = 0 to t.streams - 1 do
          if s <> home && deps.(s) > 0 then
            Wal.force ~stream:s t.wal (Lsn.of_int deps.(s))
        done;
        Wal.force_exclusive ~stream:home t.wal
      end)

let exec t ops =
  let sim = Hypervisor.Vmm.sim t.vmm in
  let started = Sim.now sim in
  let started_ns = Time.to_ns started in
  cpu t t.profile.Engine_profile.txn_base_cpu;
  let txn = Txn.Manager.begin_txn t.txns in
  let deps = if t.streams = 1 then no_deps else Array.make t.streams 0 in
  let home = home_stream t (Txn.txid txn) in
  ignore (Wal.append ~stream:home t.wal (Log_record.Begin { txid = Txn.txid txn }));
  let writes, reads = run_ops t txn ~deps ops in
  if writes = [] then begin
    (* Read-only transactions commit without touching the log device. *)
    Txn.Manager.finish t.txns txn Txn.Committed;
    release txn t
  end
  else begin
    let commit_lsn = append_commit_record t ~deps ~home (Txn.txid txn) in
    let force_started =
      match t.metrics with
      | Some m ->
          Metrics.Span.finish m.m_exec sim started_ns;
          Metrics.Span.start sim
      | None -> 0
    in
    if t.async_commit then ()  (* ack without forcing: the unsafe classic *)
    else begin
      match t.profile.Engine_profile.commit_policy with
      | Commit_policy.Serial ->
          (* No group commit: every transaction pays its own physical
             log write, serialised. *)
          serialised_commit t ~deps ~home
      | Commit_policy.Fixed _ | Commit_policy.Adaptive _ ->
          force_commit t ~deps ~home commit_lsn
    end;
    (match t.metrics with
    | Some m ->
        Metrics.Span.finish m.m_force sim force_started;
        Metrics.Counter.incr m.m_commits
    | None -> ());
    Txn.Manager.finish t.txns txn Txn.Committed;
    release txn t
  end;
  let latency = Time.diff (Sim.now sim) started in
  (match t.metrics with
  | Some m when writes <> [] -> Metrics.Histogram.observe_span m.m_total latency
  | Some _ | None -> ());
  t.committed_txids <- Txn.txid txn :: t.committed_txids;
  Stats.Sample.add_span t.latencies latency;
  { txid = Txn.txid txn; writes; reads; latency }

let undo_in_memory t txn ~deps =
  (* Each rollback step is logged as a compensating update so that redo
     repeats the rollback after a crash. *)
  List.iter
    (fun (key, before) ->
      Buffer_pool.with_page t.pool ~key (fun page ->
          let current = Option.value (Page.get page ~key) ~default:"" in
          let stream = stream_of_key t key in
          let lsn =
            Wal.append ~stream t.wal
              (Log_record.Update
                 { txid = Txn.txid txn; key; before = current; after = before })
          in
          if deps != no_deps then
            deps.(stream) <- max deps.(stream) (Lsn.to_int lsn);
          Buffer_pool.mark_dirty t.pool page ~lsn;
          if String.length before = 0 then Hashtbl.remove page.Page.values key
          else Page.set page ~key ~value:before ~lsn;
          page.Page.page_lsn <- Lsn.max page.Page.page_lsn lsn))
    (Txn.undo_log txn)

let exec_abort t ops =
  cpu t t.profile.Engine_profile.txn_base_cpu;
  let txn = Txn.Manager.begin_txn t.txns in
  let deps = if t.streams = 1 then no_deps else Array.make t.streams 0 in
  let home = home_stream t (Txn.txid txn) in
  ignore (Wal.append ~stream:home t.wal (Log_record.Begin { txid = Txn.txid txn }));
  ignore (run_ops t txn ~deps ops);
  undo_in_memory t txn ~deps;
  (if t.streams = 1 then
     ignore (Wal.append t.wal (Log_record.Abort { txid = Txn.txid txn }))
   else begin
     (* The abort's dependency vector covers its own compensating
        updates (no watermark fold — aborts do not order against other
        transactions): durable-and-valid means the rollback fully
        reached the log, so recovery must not undo again; anything less
        leaves the transaction an ordinary loser. *)
     let record = Log_record.Abort_multi { txid = Txn.txid txn; deps } in
     let end_b =
       Lsn.to_int (Wal.end_lsn ~stream:home t.wal) + Log_record.encoded_size record
     in
     if end_b > deps.(home) then deps.(home) <- end_b;
     ignore (Wal.append ~stream:home t.wal record)
   end);
  (* An abort need not be forced: if it is lost, recovery undoes the
     transaction as a loser with the same outcome. *)
  Txn.Manager.finish t.txns txn Txn.Aborted;
  release txn t;
  Txn.txid txn

let committed_txids t = List.rev t.committed_txids
let committed_count t = Txn.Manager.committed t.txns
let aborted_count t = Txn.Manager.aborted t.txns
let latencies t = t.latencies

let log_bytes_per_txn t =
  let committed = committed_count t in
  if committed = 0 then 0.
  else begin
    let total = ref 0 in
    for s = 0 to t.streams - 1 do
      total := !total + Lsn.to_int (Wal.end_lsn ~stream:s t.wal)
    done;
    float_of_int !total /. float_of_int committed
  end
