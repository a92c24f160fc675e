(* The durable-write journal behind the crash-surface sweep's
   incremental reconstruction path.

   During one reference run of a scenario, every mutation of durable
   media (device transfer start/complete), every trusted-buffer push and
   pop, every virtio write submission and every commit acknowledgement
   is appended here, stamped with the simulation's executed-event index
   and clock. The sweep then replays these deltas onto a single evolving
   media image instead of re-executing the whole simulation per crash
   point.

   Storage discipline matches {!Event_queue}: records live in flat
   parallel int arrays and payload bytes in one shared arena, both grown
   by doubling, so an append in the hot path allocates nothing on the
   minor heap. *)

(* Record kinds, stored as small ints in [kinds]. The meaning of the
   [a]/[b]/[c] operand slots per kind:
     Write_start     a=endpoint  b=lba  c=sectors
     Write_complete  a=endpoint  b=lba  c=sectors   payload=data
     Push            a=endpoint  b=lba  c=bytes     payload=data
     Pop             a=endpoint  b=lba  c=bytes
     Submit          a=endpoint  b=lba  c=sectors
     Ack             a=txid      b=0    c=0         payload=encoded writes *)
type kind = Write_start | Write_complete | Push | Pop | Submit | Ack

let kind_code = function
  | Write_start -> 0
  | Write_complete -> 1
  | Push -> 2
  | Pop -> 3
  | Submit -> 4
  | Ack -> 5

let kind_of_code = function
  | 0 -> Write_start
  | 1 -> Write_complete
  | 2 -> Push
  | 3 -> Pop
  | 4 -> Submit
  | 5 -> Ack
  | _ -> assert false

type endpoint = {
  ep_model : string;
  ep_is_port : bool;
  ep_sector_size : int;
  ep_capacity_sectors : int;
  ep_rng : Rng.t option;
      (* a pristine copy of the device's tear rng, taken at creation —
         the reconstruction replays torn-write draws from copies of this *)
}

type t = {
  mutable kinds : int array;
  mutable indices : int array;
  mutable times : int array;
  mutable opa : int array;
  mutable opb : int array;
  mutable opc : int array;
  mutable offs : int array;
  mutable lens : int array;
  mutable count : int;
  mutable arena : Bytes.t;
  mutable arena_used : int;
  mutable endpoints : endpoint list;  (* reversed; length = next id *)
  mutable endpoint_count : int;
}

let initial_records = 4096
let initial_arena = 1 lsl 20

let create () =
  {
    kinds = Array.make initial_records 0;
    indices = Array.make initial_records 0;
    times = Array.make initial_records 0;
    opa = Array.make initial_records 0;
    opb = Array.make initial_records 0;
    opc = Array.make initial_records 0;
    offs = Array.make initial_records 0;
    lens = Array.make initial_records 0;
    count = 0;
    arena = Bytes.create initial_arena;
    arena_used = 0;
    endpoints = [];
    endpoint_count = 0;
  }

(* The ambient recording slot, process-global. Recording is only ever
   enabled around the serial enumeration run of a journal sweep;
   Harness.Parallel.map refuses to spawn a worker domain while it is
   set. *)
let current : t option ref = ref None

let recording () = !current
let start_recording t = current := Some t
let stop_recording () = current := None

let register t ep =
  t.endpoints <- ep :: t.endpoints;
  let id = t.endpoint_count in
  t.endpoint_count <- id + 1;
  id

let register_device t ~model ~sector_size ~capacity_sectors ~rng =
  register t
    {
      ep_model = model;
      ep_is_port = false;
      ep_sector_size = sector_size;
      ep_capacity_sectors = capacity_sectors;
      ep_rng = Some (Rng.copy rng);
    }

let register_port t ~model =
  register t
    {
      ep_model = model;
      ep_is_port = true;
      ep_sector_size = 0;
      ep_capacity_sectors = 0;
      ep_rng = None;
    }

let endpoint t id =
  if id < 0 || id >= t.endpoint_count then invalid_arg "Journal.endpoint";
  List.nth t.endpoints (t.endpoint_count - 1 - id)

let grow_records t =
  let cap = Array.length t.kinds in
  let extend a = let b = Array.make (2 * cap) 0 in Array.blit a 0 b 0 cap; b in
  t.kinds <- extend t.kinds;
  t.indices <- extend t.indices;
  t.times <- extend t.times;
  t.opa <- extend t.opa;
  t.opb <- extend t.opb;
  t.opc <- extend t.opc;
  t.offs <- extend t.offs;
  t.lens <- extend t.lens

let reserve_arena t len =
  let cap = Bytes.length t.arena in
  if t.arena_used + len > cap then begin
    let target = ref (2 * cap) in
    while t.arena_used + len > !target do target := 2 * !target done;
    let arena = Bytes.create !target in
    Bytes.blit t.arena 0 arena 0 t.arena_used;
    t.arena <- arena
  end

let append t sim k ~a ~b ~c ~data =
  if t.count = Array.length t.kinds then grow_records t;
  let i = t.count in
  t.kinds.(i) <- kind_code k;
  t.indices.(i) <- Sim.events_executed sim;
  t.times.(i) <- Time.to_ns (Sim.now sim);
  t.opa.(i) <- a;
  t.opb.(i) <- b;
  t.opc.(i) <- c;
  (match data with
  | None ->
      t.offs.(i) <- 0;
      t.lens.(i) <- -1
  | Some s ->
      let len = String.length s in
      reserve_arena t len;
      Bytes.blit_string s 0 t.arena t.arena_used len;
      t.offs.(i) <- t.arena_used;
      t.lens.(i) <- len;
      t.arena_used <- t.arena_used + len);
  t.count <- i + 1

let write_start t sim ~device ~lba ~sectors =
  append t sim Write_start ~a:device ~b:lba ~c:sectors ~data:None

let write_complete t sim ~device ~lba ~sectors ~data =
  append t sim Write_complete ~a:device ~b:lba ~c:sectors ~data:(Some data)

let push t sim ~device ~lba ~data =
  append t sim Push ~a:device ~b:lba ~c:(String.length data) ~data:(Some data)

let pop t sim ~device ~lba ~bytes =
  append t sim Pop ~a:device ~b:lba ~c:bytes ~data:None

let submit t sim ~port ~lba ~sectors =
  append t sim Submit ~a:port ~b:lba ~c:sectors ~data:None

let ack t sim ~txid ~writes =
  append t sim Ack ~a:txid ~b:0 ~c:0 ~data:(Some writes)

let length t = t.count

let check t i = if i < 0 || i >= t.count then invalid_arg "Journal: record index"

let kind t i = check t i; kind_of_code t.kinds.(i)
let index t i = check t i; t.indices.(i)
let time_ns t i = check t i; t.times.(i)
let a t i = check t i; t.opa.(i)
let b t i = check t i; t.opb.(i)
let c t i = check t i; t.opc.(i)

let payload t i =
  check t i;
  if t.lens.(i) < 0 then invalid_arg "Journal.payload: record has no payload";
  Bytes.sub_string t.arena t.offs.(i) t.lens.(i)
