type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable data : buffer;
  mutable used : int;
}

let make_buffer n : buffer =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let create ?(capacity = 1024) () =
  { data = make_buffer (max 1 capacity); used = 0 }

let data t = t.data

let capacity_bytes t =
  Bigarray.Array1.dim t.data * (Sys.word_size / 8)

let grow t need =
  let cap = Bigarray.Array1.dim t.data in
  let ncap = ref (max 16 (2 * cap)) in
  while !ncap < need do
    ncap := 2 * !ncap
  done;
  let ndata = make_buffer !ncap in
  Bigarray.Array1.blit
    (Bigarray.Array1.sub t.data 0 t.used)
    (Bigarray.Array1.sub ndata 0 t.used);
  t.data <- ndata

let alloc t n =
  if n < 0 then invalid_arg "Arena.alloc: negative size";
  let off = t.used in
  if off + n > Bigarray.Array1.dim t.data then grow t (off + n);
  t.used <- off + n;
  off

let clear t = t.used <- 0
