type t = {
  durability : Rapilog.Durability.report;
  state_exact : bool;
  diff_count : int;
  excluded_keys : int;
}

module Int_set = Set.Make (Int)

let keys_written_by recovery txids =
  if txids = [] then Int_set.empty
  else
  let txid_set = Int_set.of_list txids in
  List.fold_left
    (fun keys (record, _lsn) ->
      match record with
      | Dbms.Log_record.Update { txid; key; _ } when Int_set.mem txid txid_set ->
          Int_set.add key keys
      | Dbms.Log_record.Update _ | Dbms.Log_record.Begin _
      | Dbms.Log_record.Commit _ | Dbms.Log_record.Abort _
      | Dbms.Log_record.Commit_multi _ | Dbms.Log_record.Abort_multi _
      | Dbms.Log_record.Checkpoint _ | Dbms.Log_record.Noop _ ->
          keys)
    Int_set.empty recovery.Dbms.Recovery.records_rev

(* Durable-but-unacknowledged commits (and, under a lost-ack race,
   aborted-after-ack ones) legitimately diverge from the client-side
   model on exactly the keys they wrote. *)
let check_with ~model ~durability ~recovery =
  let excluded = keys_written_by recovery durability.Rapilog.Durability.extra in
  let diffs =
    Rapilog.Durability.diff_stores_skipping
      ~skip:(fun key -> Int_set.mem key excluded)
      ~expected:model ~actual:recovery.Dbms.Recovery.store
  in
  {
    durability;
    state_exact = diffs = [] && Rapilog.Durability.holds durability;
    diff_count = List.length diffs;
    excluded_keys = Int_set.cardinal excluded;
  }

let check ~model ~acked ~recovery =
  check_with ~model ~recovery
    ~durability:
      (Rapilog.Durability.compare_txids ~committed:acked
         ~recovered:recovery.Dbms.Recovery.committed)

let check_sorted ~model ~acked ~n_acked ~recovery =
  check_with ~model ~recovery
    ~durability:
      (Rapilog.Durability.compare_sorted ~committed:acked ~n:n_acked
         ~recovered:recovery.Dbms.Recovery.committed)

let pp fmt t =
  Format.fprintf fmt "%a state-exact=%b diffs=%d excluded=%d"
    Rapilog.Durability.pp_report t.durability t.state_exact t.diff_count
    t.excluded_keys
