type info = { model : string; sector_size : int; capacity_sectors : int }

type ops = {
  op_read : lba:int -> sectors:int -> string;
  op_write : lba:int -> data:string -> fua:bool -> unit;
  op_flush : unit -> unit;
  op_power_cut : unit -> unit;
  op_durable_read : lba:int -> sectors:int -> string;
  op_durable_extent : unit -> int;
}

type t = { info : info; stats : Disk_stats.t; ops : ops; journal_id : int }

let make ?(journal_id = -1) ~info ~stats ~ops () =
  { info; stats; ops; journal_id }

let info t = t.info
let stats t = t.stats
let journal_id t = t.journal_id

let check_range t ~lba ~sectors =
  assert (lba >= 0 && sectors > 0);
  assert (lba + sectors <= t.info.capacity_sectors)

let read t ~lba ~sectors =
  check_range t ~lba ~sectors;
  t.ops.op_read ~lba ~sectors

let write t ?(fua = false) ~lba data =
  let len = String.length data in
  assert (len > 0 && len mod t.info.sector_size = 0);
  check_range t ~lba ~sectors:(len / t.info.sector_size);
  t.ops.op_write ~lba ~data ~fua

let flush t = t.ops.op_flush ()
let power_cut t = t.ops.op_power_cut ()

let durable_read t ~lba ~sectors =
  check_range t ~lba ~sectors;
  t.ops.op_durable_read ~lba ~sectors

let durable_extent t = t.ops.op_durable_extent ()

let sectors_of_bytes t bytes =
  (bytes + t.info.sector_size - 1) / t.info.sector_size

module Media = struct
  (* Page-level copy-on-write store (PR 8). Sectors group into pages of
     [page_sectors]; a page is a flat [Bytes.t] plus the epoch token of
     the media that owns it. A media may mutate a page in place only
     while the page's epoch is physically its own current epoch; any
     other page is shared — with a {!fork} sibling or a pre-fork
     ancestor image — and the first write copies it. {!fork} is
     therefore O(pages-in-table): copy the table, hand BOTH sides fresh
     epoch tokens (every pre-fork page becomes shared), and let
     subsequent writes diverge page by page. Shared pages are replaced,
     never mutated, so a fork can be handed to another domain while the
     parent keeps writing — the crash sweep's fork engine does exactly
     that.

     Compared to the PR 3 sector-granular table this also removes the
     String.sub-per-sector allocation from every write: steady-state
     writes blit into an owned page and allocate nothing, which benefits
     every live replay — the pair sweep's full replays most of all. *)

  let page_sectors = 8

  type page = { data : Bytes.t; epoch : unit ref }

  type t = {
    sector_size : int;
    capacity_sectors : int;
    pages : (int, page) Hashtbl.t;
    mutable epoch : unit ref;
        (* pages stamped with this exact token are exclusively ours *)
    mutable extent : int;
    base : t option;
        (* an overlay reads through to [base] where it has no page of
           its own; see {!overlay} *)
  }

  let create ~sector_size ~capacity_sectors =
    assert (sector_size > 0 && capacity_sectors > 0);
    {
      sector_size;
      capacity_sectors;
      pages = Hashtbl.create 1024;
      epoch = ref ();
      extent = 0;
      base = None;
    }

  let overlay base =
    {
      sector_size = base.sector_size;
      capacity_sectors = base.capacity_sectors;
      pages = Hashtbl.create 64;
      epoch = ref ();
      extent = base.extent;
      base = Some base;
    }

  let fork t =
    if t.base <> None then
      invalid_arg "Media.fork: fork a root image, not an overlay";
    let child = { t with pages = Hashtbl.copy t.pages; epoch = ref () } in
    (* the parent's own epoch is retired too: every pre-fork page is now
       shared with the child, so the parent must also copy-on-write *)
    t.epoch <- ref ();
    child

  let sector_size t = t.sector_size
  let capacity_sectors t = t.capacity_sectors

  let rec find_page t pidx =
    match Hashtbl.find_opt t.pages pidx with
    | Some _ as hit -> hit
    | None -> (
        match t.base with Some base -> find_page base pidx | None -> None)

  let read t ~lba ~sectors =
    let ss = t.sector_size in
    let buf = Bytes.create (sectors * ss) in
    let i = ref 0 in
    while !i < sectors do
      let s = lba + !i in
      let pidx = s / page_sectors in
      let off = s mod page_sectors in
      let n = min (page_sectors - off) (sectors - !i) in
      (match find_page t pidx with
      | Some p -> Bytes.blit p.data (off * ss) buf (!i * ss) (n * ss)
      | None -> Bytes.fill buf (!i * ss) (n * ss) '\000');
      i := !i + n
    done;
    Bytes.unsafe_to_string buf

  (* The page [pidx] as in-place-writable bytes: an owned page directly;
     a shared or read-through page via copy-up (read-modify-write at
     page granularity); an absent page as zeroes. *)
  let writable_page t pidx =
    match Hashtbl.find_opt t.pages pidx with
    | Some p when p.epoch == t.epoch -> p.data
    | Some p ->
        let data = Bytes.copy p.data in
        Hashtbl.replace t.pages pidx { data; epoch = t.epoch };
        data
    | None ->
        let data =
          match t.base with
          | Some base -> (
              match find_page base pidx with
              | Some p -> Bytes.copy p.data
              | None -> Bytes.make (page_sectors * t.sector_size) '\000')
          | None -> Bytes.make (page_sectors * t.sector_size) '\000'
        in
        Hashtbl.replace t.pages pidx { data; epoch = t.epoch };
        data

  let write_sectors t ~lba ~data ~count =
    let ss = t.sector_size in
    let i = ref 0 in
    while !i < count do
      let s = lba + !i in
      let pidx = s / page_sectors in
      let off = s mod page_sectors in
      let n = min (page_sectors - off) (count - !i) in
      let page = writable_page t pidx in
      Bytes.blit_string data (!i * ss) page (off * ss) (n * ss);
      i := !i + n
    done;
    if lba + count > t.extent then t.extent <- lba + count

  let write t ~lba ~data =
    let len = String.length data in
    assert (len mod t.sector_size = 0);
    write_sectors t ~lba ~data ~count:(len / t.sector_size)

  let write_torn t ~rng ~lba ~data =
    let len = String.length data in
    assert (len mod t.sector_size = 0);
    let total = len / t.sector_size in
    let persisted = Desim.Rng.int rng (total + 1) in
    if persisted > 0 then write_sectors t ~lba ~data ~count:persisted

  let write_prefix t ~lba ~data ~sectors =
    assert (String.length data mod t.sector_size = 0);
    assert (sectors >= 0 && sectors * t.sector_size <= String.length data);
    if sectors > 0 then write_sectors t ~lba ~data ~count:sectors

  let extent t = t.extent
  let check_range = check_range
end

(* A frozen device over a media image: only the durable (untimed) side
   exists. The crash-surface reconstruction hands these to {!Dbms}
   recovery, which by design touches nothing but [durable_read] and
   [durable_extent] of a post-crash device. *)
let of_media ?(model = "frozen") media =
  let frozen op = fun _ -> failwith ("Block.of_media: " ^ op ^ " on frozen device") in
  make
    ~info:
      {
        model;
        sector_size = Media.sector_size media;
        capacity_sectors = Media.capacity_sectors media;
      }
    ~stats:(Disk_stats.create ())
    ~ops:
      {
        op_read = (fun ~lba ~sectors -> Media.read media ~lba ~sectors);
        op_write = (fun ~lba:_ ~data:_ ~fua:_ -> frozen "write" ());
        op_flush = (fun () -> frozen "flush" ());
        op_power_cut = (fun () -> ());
        op_durable_read = (fun ~lba ~sectors -> Media.read media ~lba ~sectors);
        op_durable_extent = (fun () -> Media.extent media);
      }
    ()
