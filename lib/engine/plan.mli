(** Physical access plans for select statements. *)

(** A plan names the access path's shape, never a literal: the executor
    takes the literals from the statement it runs, through
    {!Filter.seek}, so a memoized plan serves every statement with the
    same cost identity. *)
type access_path =
  | Full_scan
      (** Scan every heap page, filter, project. *)
  | Index_seek of {
      index : Cddpd_catalog.Index_def.t;
      prefix : int;  (** leading key columns bound by equality *)
      range : bool;  (** whether the next key column is range-bound *)
      covering : bool;
          (** Every column the query references is in the index key, so no
              heap fetches are needed. *)
    }
  | Index_only_scan of { index : Cddpd_catalog.Index_def.t }
      (** Scan the index leaf level instead of the (wider) heap; applicable
          when the index covers the query but no prefix is sargable.  This
          is what makes a composite index like I(a,b) useful for queries on
          b alone. *)
  | View_probe of {
      view : Cddpd_catalog.View_def.t;
      point : bool;  (** fetch one group's row; [false]: scan all groups *)
    }
      (** Answer an aggregate query from a materialized view instead of the
          base table (only for [Select_agg] statements whose predicates are
          all on the grouping column). *)

type t = {
  path : access_path;
  estimated_rows : float; (** rows expected to satisfy all predicates *)
  estimated_cost : float; (** cost-model units (page I/O equivalents) *)
}

val count_choice : t -> unit
(** Bump the [plan.chosen.*] observability counter matching this plan's
    access path.  The planner calls it once per winning plan; a no-op
    while instrumentation is disabled. *)
