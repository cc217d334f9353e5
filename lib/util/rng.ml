type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value is non-negative as a native 63-bit int. *)
  let v = Int64.to_int (Int64.logand (bits64 t) 0x3FFFFFFFFFFFFFFFL) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L
let range t lo hi = lo + int t (hi - lo + 1)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t k n =
  assert (k <= n);
  (* Reservoir-free approach: shuffle a prefix of the index array. *)
  let arr = Array.init n (fun i -> i) in
  let rec pick i acc =
    if i >= k then List.rev acc
    else begin
      let j = range t i (n - 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp;
      pick (i + 1) (arr.(i) :: acc)
    end
  in
  pick 0 []
