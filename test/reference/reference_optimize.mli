(** The rebuild-every-round divisor extraction: each round builds a fresh
    candidate table keyed by cube lists, stable-sorts every candidate by
    its cheap score, rebuilds the signal readers and trial-divides the 48
    best again. {!Cals_logic.Optimize.extract_common_cubes},
    {!Cals_logic.Optimize.extract_kernels} and
    {!Cals_logic.Optimize.script_area} must reproduce it bit for bit: the
    same divisors in the same order, the same network. It ships in no
    library; test_logic compares the two. *)

val extract_common_cubes : Cals_logic.Network.t -> int
(** As {!Cals_logic.Optimize.extract_common_cubes}. *)

val extract_kernels : Cals_logic.Network.t -> int
(** As {!Cals_logic.Optimize.extract_kernels}. *)

val script_area : ?rounds:int -> Cals_logic.Network.t -> unit
(** As {!Cals_logic.Optimize.script_area}, without its telemetry. *)
