module Rng = Cals_util.Rng
module Geom = Cals_util.Geom
module Subject = Cals_netlist.Subject
module Span = Cals_telemetry.Span

let default_scale = 0.25

let scaled scale base = max 1 (int_of_float (float_of_int base *. scale))

let generate ~name ~scale f =
  Span.with_ ~cat:"workload"
    ~meta:(Printf.sprintf "%s scale=%g" name scale)
    "workload.generate" f

let spla_like ?(scale = default_scale) ~seed () =
  generate ~name:"spla" ~scale @@ fun () ->
  let rng = Rng.create (0x5914 lxor seed) in
  Gen.pla ~rng ~inputs:16 ~outputs:46
    ~products:(scaled scale 2307)
    ~literals_lo:3 ~literals_hi:8
    ~terms_lo:(scaled scale 100)
    ~terms_hi:(scaled scale 200)
    ()

let pdc_like ?(scale = default_scale) ~seed () =
  generate ~name:"pdc" ~scale @@ fun () ->
  let rng = Rng.create (0x9dc0 lxor seed) in
  Gen.pla ~rng ~inputs:16 ~outputs:40
    ~products:(scaled scale 2406)
    ~literals_lo:2 ~literals_hi:9
    ~terms_lo:(scaled scale 110)
    ~terms_hi:(scaled scale 230)
    ()

let too_large_like ?(scale = default_scale) ~seed () =
  generate ~name:"too_large" ~scale @@ fun () ->
  let rng = Rng.create (0x71a6 lxor seed) in
  Gen.multilevel ~rng ~inputs:38 ~outputs:40
    ~internal_nodes:(scaled scale 4200)
    ~fanins_lo:2 ~fanins_hi:5 ~cubes_lo:2 ~cubes_hi:4 ()

let named =
  [
    ("spla", fun ~scale ~seed -> spla_like ~scale ~seed ());
    ("pdc", fun ~scale ~seed -> pdc_like ~scale ~seed ());
    ("too_large", fun ~scale ~seed -> too_large_like ~scale ~seed ());
  ]

let figure1 () =
  let b = Subject.builder () in
  let a = Subject.add_pi b "a" in
  let bb = Subject.add_pi b "b" in
  let c = Subject.add_pi b "c" in
  let n1 = Subject.add_nand b a bb in
  let n2 = Subject.add_inv b c in
  let n3 = Subject.add_nand b n1 n2 in
  let n4 = Subject.add_inv b n3 in
  Subject.set_output b "f" n4;
  let subject = Subject.freeze b in
  (* Hand placement: a and b cluster bottom-left, c sits far right — the
     geometry of the paper's Figure 1 where the min-area cell must stretch
     its fanin wires across the image. *)
  let pos = Array.make (Subject.num_nodes subject) (Geom.point 0.0 0.0) in
  let set v p = pos.(v) <- p in
  set a (Geom.point 0.0 0.0);
  set bb (Geom.point 0.0 10.0);
  set c (Geom.point 400.0 0.0);
  set n1 (Geom.point 5.0 5.0);
  set n2 (Geom.point 395.0 5.0);
  set n3 (Geom.point 50.0 5.0);
  set n4 (Geom.point 55.0 5.0);
  (subject, pos)
