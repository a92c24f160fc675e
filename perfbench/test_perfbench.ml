(* Tests of the benchmark's own rules: the max-rate rule, self time
   from nested spans, percentile refusal and quartiles, failure
   counting, and the metric names declared in BENCHMARK.json. *)

let rung ?(p99 = Some 1000.) ?(offered = 1000) ?(committed = 1000) rate =
  { Rules.rate; p99_us = p99; offered; committed }

let max_rate = Rules.max_rate ~limit_us:20_000. ~backlog_share:0.01
let check_float msg want got = Alcotest.(check (float 1e-9)) msg want got

let test_max_rate_limit_edge () =
  check_float "p99 at the limit passes" 200.
    (max_rate [ rung 100.; rung ~p99:(Some 20_000.) 200.; rung ~p99:(Some 20_000.001) 400. ]);
  check_float "refused p99 never passes" 100. (max_rate [ rung 100.; rung ~p99:None 200. ])

let test_max_rate_backlog_edge () =
  check_float "commits at 99% of arrivals pass" 200.
    (max_rate [ rung 100.; rung ~offered:1000 ~committed:990 200.; rung ~offered:1000 ~committed:989 400. ]);
  check_float "the highest passing rate wins, not the first failure" 400.
    (max_rate [ rung 100.; rung ~committed:900 200.; rung 400. ])

let test_max_rate_none () =
  check_float "no rate passes" 0.
    (max_rate [ rung ~p99:(Some 30_000.) 100.; rung ~committed:10 200.; rung ~p99:None 400. ]);
  check_float "empty ladder" 0. (max_rate [])

let test_self_time () =
  let t = Tracer.create () in
  let add name parent start_us stop_us = Tracer.add t ~name ~run:1 ~parent ~start_us ~stop_us in
  let root = add "root" (-1) 0. 100. in
  let a = add "a" root 10. 30. in
  let _b = add "b" root 20. 50. in
  let _g = add "g" a 12. 15. in
  let self = List.map (fun (s, v) -> (s.Tracer.name, v)) (Tracer.self_times (Tracer.spans t)) in
  check_float "root minus the union of its overlapping children" 60. (List.assoc "root" self);
  check_float "a minus its grandchild" 17. (List.assoc "a" self);
  check_float "b has no children" 30. (List.assoc "b" self);
  check_float "g is a leaf" 3. (List.assoc "g" self);
  let rows = Tracer.table (Tracer.spans t) in
  check_float "self times sum to the root's duration" 110.
    (List.fold_left (fun acc r -> acc +. r.Tracer.r_self_us) 0. rows)

let test_live_spans_nest () =
  let t = Tracer.create () in
  Tracer.span t "off" (fun () -> ());
  Alcotest.(check int) "a disabled tracer records nothing" 0 (List.length (Tracer.spans t));
  Tracer.set_enabled t true;
  Tracer.set_run t 7;
  Tracer.span t "outer" (fun () -> Tracer.span t "inner" (fun () -> ()));
  match Tracer.spans t with
  | [ outer; inner ] ->
      Alcotest.(check int) "inner's parent is outer" outer.Tracer.id inner.Tracer.parent;
      Alcotest.(check int) "outer is top level" (-1) outer.Tracer.parent;
      Alcotest.(check int) "run id recorded" 7 inner.Tracer.run;
      Alcotest.(check bool) "inner lies inside outer" true
        (inner.Tracer.start_us >= outer.Tracer.start_us && inner.Tracer.stop_us <= outer.Tracer.stop_us)
  | spans -> Alcotest.failf "want 2 spans, got %d" (List.length spans)

let test_percentile_refusal () =
  Alcotest.(check bool) "999 samples cannot support a p99" false (Rules.percentile_supported ~n:999 ~p:99);
  Alcotest.(check bool) "1000 samples put 10 beyond the p99" true (Rules.percentile_supported ~n:1000 ~p:99);
  Alcotest.(check bool) "one sample supports a p50" true (Rules.percentile_supported ~n:1 ~p:50);
  Alcotest.(check bool) "no samples support nothing" false (Rules.percentile_supported ~n:0 ~p:50)

let test_quartiles () =
  let q l = Rules.quartiles l in
  let check msg (a, b, c) (x, y, z) =
    check_float (msg ^ " q1") a x;
    check_float (msg ^ " q2") b y;
    check_float (msg ^ " q3") c z
  in
  (* The values Python's statistics.quantiles(data, n=4) gives. *)
  check "two values" (0.75, 1.5, 2.25) (q [ 1.; 2. ]);
  check "1..10" (2.75, 5.5, 8.25) (q (List.init 10 (fun i -> float_of_int (i + 1))));
  check "unsorted" (1.5, 3., 4.5) (q [ 5.; 1.; 4.; 2.; 3. ])

let test_fail_ratio () =
  check_float "one of ten" 0.1 (Rules.fail_ratio ~attempted:10 ~failed:1);
  check_float "none failed" 0. (Rules.fail_ratio ~attempted:3 ~failed:0);
  Alcotest.check_raises "nothing attempted" (Invalid_argument "Rules.fail_ratio: nothing attempted")
    (fun () -> ignore (Rules.fail_ratio ~attempted:0 ~failed:0))

let test_name_grammar () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Rules.valid_name n))
    [ "setup_s"; "stage.commit.p99_us"; "0x"; "a-b.c_d" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Rules.valid_name n))
    [ ""; ".hidden"; "_x"; "has space"; "slash/x"; String.make 65 'a' ];
  Alcotest.(check int) "duplicates and overflow are reported" 2
    (List.length (Rules.name_errors ~cap:2 [ "a"; "b"; "a" ]))

(* BENCHMARK.json (one level up, where dune runs the test) declares exactly the metrics the benchmark prints. *)
let test_benchmark_json () =
  let open Harness.Json in
  let json = of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  let field k j = match member k j with Some v -> v | None -> Alcotest.failf "missing %s" k in
  let str = function Str s -> s | _ -> Alcotest.fail "want a string" in
  let declared key =
    match field key json with
    | Arr l -> List.map (fun m -> (str (field "name" m), str (field "unit" m), str (field "better" m))) l
    | _ -> Alcotest.failf "%s is not a list" key
  in
  let of_spec l = List.map (fun (m : Spec.metric) -> (m.Spec.name, m.Spec.unit, Spec.better_name m.Spec.better)) l in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (of_spec Spec.end_to_end) (declared "end_to_end");
  Alcotest.check triple "per_layer" (of_spec Spec.per_layer) (declared "per_layer");
  let names l = List.map (fun (m : Spec.metric) -> m.Spec.name) l in
  Alcotest.(check (list string)) "end_to_end names are valid and within the cap" []
    (Rules.name_errors ~cap:Rules.max_end_to_end (names Spec.end_to_end));
  Alcotest.(check (list string)) "per_layer names are valid and within the cap" []
    (Rules.name_errors ~cap:Rules.max_per_layer (names Spec.per_layer));
  let workloads =
    match field "workloads" json with
    | Arr l -> List.map (fun w -> str (field "name" w)) l
    | _ -> Alcotest.fail "workloads is not a list"
  in
  Alcotest.(check (list string)) "workloads" Spec.workloads workloads;
  Alcotest.(check bool) "setup_s is declared" true (List.mem "setup_s" (names Spec.end_to_end))

let () =
  Alcotest.run "perfbench"
    [
      ( "rules",
        [
          Alcotest.test_case "max rate: limit edge" `Quick test_max_rate_limit_edge;
          Alcotest.test_case "max rate: backlog edge" `Quick test_max_rate_backlog_edge;
          Alcotest.test_case "max rate: none passes gives 0" `Quick test_max_rate_none;
          Alcotest.test_case "percentile refusal" `Quick test_percentile_refusal;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "fail_ratio counting" `Quick test_fail_ratio;
          Alcotest.test_case "metric-name grammar and caps" `Quick test_name_grammar;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "self time from nested spans" `Quick test_self_time;
          Alcotest.test_case "live spans nest" `Quick test_live_spans_nest;
        ] );
      ("spec", [ Alcotest.test_case "BENCHMARK.json matches the spec" `Quick test_benchmark_json ]);
    ]
