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
     every live replay — the pair sweep's full replays most of all.

     An {!overlay} copies on read, not on write: a write to a page the
     overlay does not hold yet is queued for that page, and the page is
     built from the base page plus its queued writes when it is first
     read. A crash point writes tens of pages into its overlays but
     recovery reads back only a handful, so the rest are never built. *)

  let page_sectors = 8

  type page = { data : Bytes.t; epoch : unit ref }

  (* An overlay write not yet applied to a page: [(lba, data, sectors)],
     the write's own arguments, shared by every page it touches. *)
  type queued = int * string * int

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
    queued : (int, queued list) Hashtbl.t;
        (* overlay only: per page index, the writes to a page the
           overlay does not own yet, newest-first *)
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
      queued = Hashtbl.create 1;
    }

  let overlay base =
    {
      sector_size = base.sector_size;
      capacity_sectors = base.capacity_sectors;
      pages = Hashtbl.create 16;
      epoch = ref ();
      extent = base.extent;
      base = Some base;
      queued = Hashtbl.create 64;
    }

  let fork t =
    (match t.base with
    | None -> ()
    | Some _ -> invalid_arg "Media.fork: fork a root image, not an overlay");
    let child = { t with pages = Hashtbl.copy t.pages; epoch = ref () } in
    (* the parent's own epoch is retired too: every pre-fork page is now
       shared with the child, so the parent must also copy-on-write *)
    t.epoch <- ref ();
    child

  let sector_size t = t.sector_size
  let capacity_sectors t = t.capacity_sectors

  (* The part of write [(lba, src, count)] that falls in page [pidx],
     blitted into that page's bytes [dst]. *)
  let blit_into_page ~ss ~pidx dst (lba, src, count) =
    let first = pidx * page_sectors in
    let lo = max lba first and hi = min (lba + count) (first + page_sectors) in
    Bytes.blit_string src ((lo - lba) * ss) dst ((lo - first) * ss) ((hi - lo) * ss)

  (* Copy-on-read: an overlay page with queued writes is built from the
     base page plus those writes, oldest first, on its first read, and
     owned from then on. *)
  let rec find_page t pidx =
    match Hashtbl.find_opt t.pages pidx with
    | Some _ as hit -> hit
    | None -> (
        match t.base with
        | None -> None
        | Some base -> (
            match Hashtbl.find_opt t.queued pidx with
            | None -> find_page base pidx
            | Some writes -> Some (materialise t base pidx writes)))

  and materialise t base pidx writes =
    let ss = t.sector_size in
    let data =
      match find_page base pidx with
      | Some p -> Bytes.copy p.data
      | None -> Bytes.make (page_sectors * ss) '\000'
    in
    let rec apply = function
      | [] -> ()
      | w :: older ->
          apply older;
          blit_into_page ~ss ~pidx data w
    in
    apply writes;
    Hashtbl.remove t.queued pidx;
    let page = { data; epoch = t.epoch } in
    Hashtbl.replace t.pages pidx page;
    page

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

  (* A root image's page [pidx] as in-place-writable bytes: an owned
     page directly; a shared page via copy-up; an absent page as
     zeroes. *)
  let writable_page t pidx =
    match Hashtbl.find_opt t.pages pidx with
    | Some p when p.epoch == t.epoch -> p.data
    | Some p ->
        let data = Bytes.copy p.data in
        Hashtbl.replace t.pages pidx { data; epoch = t.epoch };
        data
    | None ->
        let data = Bytes.make (page_sectors * t.sector_size) '\000' in
        Hashtbl.replace t.pages pidx { data; epoch = t.epoch };
        data

  let write_sectors t ~lba ~data ~count =
    let ss = t.sector_size in
    (match t.base with
    | None ->
        let i = ref 0 in
        while !i < count do
          let s = lba + !i in
          let pidx = s / page_sectors in
          let off = s mod page_sectors in
          let n = min (page_sectors - off) (count - !i) in
          let page = writable_page t pidx in
          Bytes.blit_string data (!i * ss) page (off * ss) (n * ss);
          i := !i + n
        done
    | Some _ when count > 0 ->
        (* An overlay never forks, so every page it holds is its own:
           blit into those, queue the write for the rest. *)
        let w = (lba, data, count) in
        for pidx = lba / page_sectors to (lba + count - 1) / page_sectors do
          match Hashtbl.find_opt t.pages pidx with
          | Some p -> blit_into_page ~ss ~pidx p.data w
          | None ->
              Hashtbl.replace t.queued pidx
                (match Hashtbl.find_opt t.queued pidx with
                | Some older -> w :: older
                | None -> [ w ])
        done
    | Some _ -> ());
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
