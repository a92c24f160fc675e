(* In-memory span recorder for the traced run. Spans are taken from the
   benchmark's own code around each call into a layer; nothing inside
   the program is instrumented. When disabled, [span] is one branch. *)

type span = {
  id : int;
  name : string;
  run : int;  (** the measured unit this span belongs to *)
  parent : int;  (** id of the enclosing span, -1 at top level *)
  start_us : float;  (** host time since the tracer was created *)
  mutable stop_us : float;
}

type t = {
  origin : float;
  mutable enabled : bool;
  mutable run : int;
  mutable stack : int list;
  mutable next_id : int;
  mutable spans : span list;  (** newest first *)
}

let create () =
  {
    origin = Unix.gettimeofday ();
    enabled = false;
    run = 0;
    stack = [];
    next_id = 0;
    spans = [];
  }

let set_enabled t on = t.enabled <- on
let set_run t run = t.run <- run
let now_us t = (Unix.gettimeofday () -. t.origin) *. 1e6

(* Record a span by hand, for tests and for spans timed elsewhere. *)
let add t ~name ~run ~parent ~start_us ~stop_us =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; name; run; parent; start_us; stop_us } :: t.spans;
  id

let span t name f =
  if not t.enabled then f ()
  else begin
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let start_us = now_us t in
    let id = add t ~name ~run:t.run ~parent ~start_us ~stop_us:start_us in
    let s = List.hd t.spans in
    t.stack <- id :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop_us <- now_us t;
        t.stack <- List.tl t.stack)
      f
  end

let spans t = List.rev t.spans

(* Self time: a span's duration minus the part of its interval that its
   children cover (overlapping children are merged, and each child is
   clipped to the parent). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      let intervals =
        List.filter_map
          (fun c ->
            let a = Float.max c.start_us s.start_us
            and b = Float.min c.stop_us s.stop_us in
            if b > a then Some (a, b) else None)
          kids
        |> List.sort compare
      in
      let covered, last =
        List.fold_left
          (fun (acc, cur) (a, b) ->
            match cur with
            | None -> (acc, Some (a, b))
            | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
            | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
          (0., None) intervals
      in
      let covered =
        match last with Some (a, b) -> covered +. (b -. a) | None -> covered
      in
      (s, s.stop_us -. s.start_us -. covered))
    spans

type row = { r_name : string; r_count : int; r_total_us : float; r_self_us : float }

(* Per-name totals, largest self time first. *)
let table spans =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let c, tot, sf =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name (c + 1, tot +. (s.stop_us -. s.start_us), sf +. self))
    (self_times spans);
  Hashtbl.fold
    (fun r_name (r_count, r_total_us, r_self_us) rows ->
      { r_name; r_count; r_total_us; r_self_us } :: rows)
    acc []
  |> List.sort (fun a b -> compare (b.r_self_us, a.r_name) (a.r_self_us, b.r_name))

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open directly. *)
let write_chrome spans path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"run\":%d}}"
        (if i = 0 then "" else ",")
        s.name s.start_us (s.stop_us -. s.start_us) s.id s.parent s.run)
    spans;
  output_string oc "\n]}\n";
  close_out oc
