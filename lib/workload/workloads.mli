(** The paper's dynamic workloads (Table 2).

    All three workloads have three phases of 5000 queries: phase 1 and 3
    draw from mixes A/B, phase 2 from mixes C/D ("major shifts" at queries
    5000 and 10000).  Within phases, the mixes alternate ("minor
    shifts"):

    - W1 alternates every 1000 queries (A A B B ... / C C D D ...),
    - W2 alternates every 500 queries (A B A B ... / C D C D ...),
    - W3 alternates every 1000 queries but out of phase with W1
      (B B A A ... / D D C C ...).

    [scale] multiplies every segment length (default 1 gives the paper's
    500-query segments; tests use smaller scales). *)

val w1 : ?scale:float -> unit -> Spec.t
val w2 : ?scale:float -> unit -> Spec.t

val by_name : string -> ?scale:float -> unit -> Spec.t
(** ["W1"], ["W2"] or ["W3"] (case-insensitive); raises
    [Invalid_argument] otherwise. *)

val letters_w1 : string
(** The 30 segment mix letters of W1, e.g. ["AABBAABBAA..."]. *)

val letters_w2 : string
val letters_w3 : string

val major_shift_count : int
(** Number of major (phase) shifts: 2. *)
