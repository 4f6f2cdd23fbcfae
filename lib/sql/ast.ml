type value = Cddpd_storage.Tuple.value

type cmp = Eq | Lt | Le | Gt | Ge

type predicate =
  | Cmp of { column : string; op : cmp; value : value }
  | Between of { column : string; low : value; high : value }

type projection = Star | Columns of string list

type aggregate = Count_star | Sum of string

type select = {
  projection : projection;
  table : string;
  where : predicate list;
}

type statement =
  | Select of select
  | Select_agg of {
      table : string;
      group_by : string;
      aggregate : aggregate;
      where : predicate list;
    }
  | Insert of { table : string; values : value list }
  | Delete of { table : string; where : predicate list }
  | Update of {
      table : string;
      assignments : (string * value) list;
      where : predicate list;
    }

let equal_statement (a : statement) (b : statement) = a = b

let predicate_column pred =
  match pred with Cmp { column; _ } | Between { column; _ } -> column

let dedup columns =
  List.fold_left
    (fun acc c -> if List.mem c acc then acc else c :: acc)
    [] columns
  |> List.rev

let referenced_columns statement =
  match statement with
  | Insert _ -> []
  | Select { projection; where; _ } ->
      let projected =
        match projection with Star -> [] | Columns cs -> cs
      in
      dedup (projected @ List.map predicate_column where)
  | Select_agg { group_by; aggregate; where; _ } ->
      let agg_cols = match aggregate with Count_star -> [] | Sum c -> [ c ] in
      dedup ((group_by :: agg_cols) @ List.map predicate_column where)
  | Delete { where; _ } -> dedup (List.map predicate_column where)
  | Update { assignments; where; _ } ->
      dedup (List.map fst assignments @ List.map predicate_column where)

let table_of statement =
  match statement with
  | Select { table; _ }
  | Select_agg { table; _ }
  | Insert { table; _ }
  | Delete { table; _ }
  | Update { table; _ } ->
      table

let where_of statement =
  match statement with
  | Select { where; _ }
  | Select_agg { where; _ }
  | Delete { where; _ }
  | Update { where; _ } ->
      where
  | Insert _ -> []

let is_read_only statement =
  match statement with
  | Select _ | Select_agg _ -> true
  | Insert _ | Delete _ | Update _ -> false
