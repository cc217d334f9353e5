(** The greedy wave scan the router used before {!Cals_route.Wave}: walk
    the pending list in order, accept a segment when its search box is
    disjoint from every box already in the wave (the first is always
    accepted), defer the rest, and repeat on the deferred list until it
    is empty. Quadratic in the pending count when waves are narrow. It
    ships in no library; the wave oracle in [test_route] compares it with
    the one-pass colouring. *)

val waves : boxes:int array -> int array -> int array list
(** [waves ~boxes pend] is the wave sequence, members in pending order.
    [boxes] holds four ints [c0 r0 c1 r1] per segment index, an inclusive
    gcell rectangle. *)
