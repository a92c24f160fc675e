(* A Domain-based worker pool for fanning out independent scenario
   evaluations. Every task builds its own simulation world from its
   config seed, so tasks share nothing and results are bit-identical to
   a serial run; the pool only changes wall-clock time.

   Work is distributed by an atomic cursor over the input array rather
   than pre-chunking: scenario costs vary wildly (1 client vs 64), and
   stealing the next index keeps all domains busy until the tail. *)

let env_var = "RAPILOG_JOBS"

let env_jobs () =
  match Sys.getenv_opt env_var with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

(* The Metrics and Journal ambient slots are process-global: a worker
   domain would see a slot the caller installed and race on its
   registry or journal. Fanning out while either is set is refused
   rather than left to convention. *)
let refuse_ambient_slots () =
  if
    Option.is_some (Desim.Metrics.recording ())
    || Option.is_some (Desim.Journal.recording ())
  then
    invalid_arg
      "Parallel.map: cannot fan out while a Desim.Metrics registry or a \
       Desim.Journal is recording; run serially (jobs = 1) or stop recording \
       first"

let map ?jobs f items =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = List.length items in
  if jobs = 1 || n <= 1 then List.map f items
  else begin
    refuse_ambient_slots ();
    let input = Array.of_list items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r =
            try Ok (f input.(i))
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          loop ()
        end
      in
      loop ()
    in
    (* The calling domain is worker number one; [jobs - 1] helpers join
       it, capped by the number of tasks. *)
    let helpers = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

let run ?jobs thunks = map ?jobs (fun thunk -> thunk ()) thunks
