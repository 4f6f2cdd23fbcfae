module Index_def = Cddpd_catalog.Index_def

type access_path =
  | Full_scan
  | Index_seek of { index : Index_def.t; prefix : int; range : bool; covering : bool }
  | Index_only_scan of { index : Index_def.t }
  | View_probe of { view : Cddpd_catalog.View_def.t; point : bool }

type t = { path : access_path; estimated_rows : float; estimated_cost : float }

(* -- observability ----------------------------------------------------------- *)

module Obs = Cddpd_obs

let m_full_scan = Obs.Registry.counter "plan.chosen.full_scan"
let m_index_seek = Obs.Registry.counter "plan.chosen.index_seek"
let m_index_only_scan = Obs.Registry.counter "plan.chosen.index_only_scan"
let m_view_probe = Obs.Registry.counter "plan.chosen.view_probe"

let count_choice t =
  Obs.Counter.incr
    (match t.path with
    | Full_scan -> m_full_scan
    | Index_seek _ -> m_index_seek
    | Index_only_scan _ -> m_index_only_scan
    | View_probe _ -> m_view_probe)
