(** R9 [dead-export]: a value a [lib/**/*.mli] exports that no other
    module references.

    Names are canonical dotted paths with dune's mangling split into
    segments: [Cddpd_obs__Counter.incr], [Cddpd_obs.Counter.incr] and
    [Obs.Counter.incr] under [module Obs = Cddpd_obs] are all
    ["Cddpd_obs.Counter.incr"].  References come from a module's
    typedtree (every expression, [let () =] bodies and functor arguments
    included); exports come from the parsed interface, prefixed with the
    canonical name of the compilation unit.  A module cannot name
    itself, so its own uses never count. *)

type uses
(** The values one module references, and the modules it uses whole
    ([include], first-class packing, a functor argument whose parameter
    type does not expand against the stdlib).  A functor argument
    otherwise uses just the values the parameter requires. *)

val uses : Typedtree.structure -> uses

val unit_path : string -> string list
(** Canonical segments of a compilation-unit name:
    ["Cddpd_obs__Counter"] becomes [["Cddpd_obs"; "Counter"]]. *)

type export = {
  file : string;  (** the interface, root-relative *)
  name : string list;  (** canonical segments, unit path first *)
  line : int;
  col : int;
}

val exports : unit_path:string list -> path:string -> string -> export list
(** Every [val] of the interface source at [path], nested [sig] modules
    included.  An interface that does not parse exports nothing: its
    implementation cannot have compiled either. *)

val check : uses list -> export list -> Lint_types.finding list
(** [check uses] merges the uses once; applied to exports, it gives one
    unwaived finding, at its [val], per export none of them references. *)
