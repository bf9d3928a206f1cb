(* Unit tests of the benchmark harness: percentiles and the tail rule,
   FIFO framing of pipelined responses, and the seeded schedule. *)

let floats = Alcotest.(float 0.0)

let samples n = Harness.sorted (List.init n (fun i -> float_of_int (n - i)))

let test_percentile () =
  let a = samples 100 in
  Alcotest.check floats "p50" 50.0 (Harness.median a);
  Alcotest.check floats "p99" 99.0 (Harness.percentile a 0.99);
  Alcotest.check floats "p100" 100.0 (Harness.percentile a 1.0);
  Alcotest.check floats "p0" 1.0 (Harness.percentile a 0.0);
  Alcotest.check floats "one sample" 7.0 (Harness.median [| 7.0 |])

(* The tail is the highest percentile that keeps ten samples, and one in
   twenty, beyond it. *)
let test_tail () =
  let t = Harness.tail (samples 100) in
  Alcotest.check floats "value" 90.0 t.value;
  Alcotest.check floats "pct" 0.9 t.pct;
  Alcotest.(check int) "beyond" 10 t.beyond;
  let t = Harness.tail (samples 1000) in
  Alcotest.check floats "one in twenty beyond at 1000 samples" 950.0 t.value;
  Alcotest.(check int) "1000 beyond" 50 t.beyond;
  let t = Harness.tail (samples 25) in
  Alcotest.check floats "25 samples" 15.0 t.value;
  Alcotest.(check int) "25 beyond" 10 t.beyond;
  (* Too few samples: the minimum, with the shortfall reported. *)
  let t = Harness.tail (samples 6) in
  Alcotest.check floats "6 samples" 1.0 t.value;
  Alcotest.(check int) "6 beyond" 5 t.beyond

let wire =
  "OK answers=2\n1\n2\n.\nERR unknown session \"s9\"\n.\nOK\n .\n.\n\
   OK size=3\n.\n"

let expected =
  [
    [ "OK answers=2"; "1"; "2" ];
    [ "ERR unknown session \"s9\"" ];
    [ "OK"; " ." ];
    [ "OK size=3" ];
  ]

let feed_in_pieces cut =
  let f = Harness.Framer.create () in
  let b = Bytes.of_string wire in
  let n = Bytes.length b in
  let rec go off acc =
    if off >= n then acc
    else
      let len = min cut (n - off) in
      go (off + len) (acc @ Harness.Framer.feed f b off len)
  in
  let r = go 0 [] in
  Alcotest.(check bool) "nothing left half-read" true (Harness.Framer.idle f);
  r

(* Pipelined responses come back whole and in request order, however
   the bytes are split across reads. *)
let test_fifo () =
  List.iter
    (fun cut ->
      Alcotest.(check (list (list string)))
        (Printf.sprintf "reads of %d bytes" cut)
        expected (feed_in_pieces cut))
    [ 1; 2; 3; 7; 64; String.length wire ];
  let f = Harness.Framer.create () in
  let b = Bytes.of_string "OK answers=1\n4" in
  Alcotest.(check (list (list string))) "incomplete" []
    (Harness.Framer.feed f b 0 (Bytes.length b));
  Alcotest.(check bool) "half-read" false (Harness.Framer.idle f)

let mix =
  { Harness.sessions = 2; keys = 100; values = 50; point = 0.75; scan = 0.15 }

let steps = [ (20.0, 2.0); (40.0, 3.0) ]

let show s =
  List.concat_map
    (fun a ->
      Array.to_list
        (Array.map
           (fun (t, op) ->
             Printf.sprintf "%.9f %s" t
               (match op with
               | Harness.Point { session; value } ->
                   Printf.sprintf "P%d/%d" session value
               | Harness.Scan { session; chain } ->
                   Printf.sprintf "S%d/%b" session chain
               | Harness.Update { session; key } ->
                   Printf.sprintf "U%d/%d" session key))
           a))
    s

let test_schedule () =
  let a = Harness.schedule ~seed:7 ~mix ~steps in
  Alcotest.(check (list string)) "same seed, same schedule" (show a)
    (show (Harness.schedule ~seed:7 ~mix ~steps));
  Alcotest.(check bool) "another seed, another schedule" false
    (show a = show (Harness.schedule ~seed:8 ~mix ~steps));
  List.iter2
    (fun (rate, duration) step ->
      let n = int_of_float (rate *. duration) in
      Alcotest.(check int) "arrivals = rate x duration" n (Array.length step);
      let count p =
        Array.fold_left (fun c (_, op) -> if p op then c + 1 else c) 0 step
      in
      Alcotest.(check int) "exact point share"
        (int_of_float (Float.round (0.75 *. float_of_int n)))
        (count (function Harness.Point _ -> true | _ -> false));
      Alcotest.(check int) "exact scan share"
        (int_of_float (Float.round (0.15 *. float_of_int n)))
        (count (function Harness.Scan _ -> true | _ -> false));
      Array.iteri
        (fun i (t, op) ->
          Alcotest.(check bool) "inside the step" true (t >= 0.0 && t < duration);
          if i > 0 then
            Alcotest.(check bool) "sorted" true (fst step.(i - 1) <= t);
          match op with
          | Harness.Point { value; session } ->
              Alcotest.(check bool) "value in range" true
                (value >= 0 && value < mix.values && session < mix.sessions)
          | Harness.Update { key; _ } ->
              Alcotest.(check bool) "key in range" true
                (key >= 0 && key < mix.keys)
          | Harness.Scan _ -> ())
        step)
    steps a

let test_zipf () =
  let cdf = Harness.zipf_cdf 50 in
  let rng = Random.State.make [| 1 |] in
  let counts = Array.make 50 0 in
  for _ = 1 to 10_000 do
    let r = Harness.zipf_draw cdf rng in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true
    (Array.for_all (fun c -> c <= counts.(0)) counts);
  Alcotest.(check bool) "every rank reachable" true
    (Array.for_all (fun c -> c > 0) counts)

let () =
  Alcotest.run "perfbench harness"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail with ten beyond" `Quick test_tail;
        ] );
      ( "framing",
        [ Alcotest.test_case "FIFO pipelined responses" `Quick test_fifo ] );
      ( "schedule",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_schedule;
          Alcotest.test_case "zipf" `Quick test_zipf;
        ] );
    ]
