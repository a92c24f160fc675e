(* Shared helpers for the test suite. *)

open Desim

let case name f = Alcotest.test_case name `Quick f

(* One qcheck seed per run: [QCHECK_SEED] when set, else a fresh one.
   It is printed on every run, so any failing run can be replayed. Each
   property starts its own generator from the seed, so a property draws
   the same cases whether it runs alone or in the whole suite. *)
let qcheck_seed =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | None -> Random.State.bits (Random.State.make_self_init ())
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some seed -> seed
        | None -> failwith (Printf.sprintf "QCHECK_SEED=%S is not an integer" s))
  in
  Printf.printf "qcheck random seed: %d (replay with QCHECK_SEED=%d)\n%!" seed seed;
  seed

let prop name ?(count = 200) gen law =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| qcheck_seed |])
    (QCheck2.Test.make ~name ~count gen law)

(* Run a body inside a process in a fresh simulation; returns its result
   once the event queue drains. *)
let run_in_sim ?(seed = 1L) body =
  let sim = Sim.create ~seed () in
  let result = ref None in
  ignore (Process.spawn sim ~name:"test" (fun () -> result := Some (body sim)));
  Sim.run sim;
  match !result with
  | Some value -> value
  | None -> Alcotest.fail "test process did not complete"

(* Like [run_in_sim] but also hands the simulation to the caller first
   (for spawning auxiliary processes). *)
let with_sim ?(seed = 1L) setup =
  let sim = Sim.create ~seed () in
  let check = setup sim in
  Sim.run sim;
  check ()

let span_us = Time.us
let near ?(tolerance = 1e-6) expected actual = Float.abs (expected -. actual) <= tolerance

let check_near name ?(tolerance = 1e-6) expected actual =
  if not (near ~tolerance expected actual) then
    Alcotest.failf "%s: expected %g within %g, got %g" name expected tolerance actual

let check_span name expected actual =
  Alcotest.(check int) name (Time.span_to_ns expected) (Time.span_to_ns actual)
