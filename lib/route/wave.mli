(** Rip-up waves of one negotiation iteration, by first-fit colouring.

    A wave is a set of pending segments whose search boxes are pairwise
    disjoint (no shared gcell), so their maze searches and commits touch
    disjoint edges and no member's search sees another's commit. Taking the pending segments in order, each joins the
    lowest-numbered wave whose boxes all miss its own box, or opens a new
    wave. This is exactly the wave sequence of the greedy scan that
    builds wave 0 from the pending list, wave 1 from what wave 0
    deferred, and so on: by induction on the wave index, a segment is
    refused by wave [w] in both methods iff its box meets the box of an
    earlier pending segment already in [w].

    The colouring is one pass: every gcell keeps a bitset of the waves
    whose boxes cover it, 62 waves per plane of [cols * rows] ints. A
    segment ORs the bitsets over its box, one plane at a time, and takes
    the lowest clear bit. Planes open as waves do and only the planes in
    use are cleared between builds. *)

type t
(** Reusable colouring scratch. Not domain-safe: one per routing call. *)

val create : unit -> t

val build :
  t -> cols:int -> rows:int -> boxes:int array -> pend:int array -> int -> unit
(** [build t ~cols ~rows ~boxes ~pend n] colours the pending segments
    [pend.(0) .. pend.(n - 1)]. Segment [s]'s box is the inclusive gcell
    rectangle [boxes.(4s) .. boxes.(4s + 3)] = [c0, r0, c1, r1] inside the
    [cols] x [rows] grid. Replaces the previous build's waves. *)

val count : t -> int
(** Waves of the last {!build} (0 when nothing was pending). *)

val start : t -> int -> int
(** [start t w], for [0 <= w <= count t]: wave [w]'s members are
    [(order t).(start t w) .. (order t).(start t (w + 1) - 1)]. *)

val order : t -> int array
(** The pending segments sorted by wave, pending order kept inside each
    wave. Valid up to [start t (count t)]; overwritten by the next
    {!build}. *)
