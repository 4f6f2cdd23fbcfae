(* Metric tables are filled by module-initialisation registration on the
   main domain and are read-only once domains spawn (worker domains only
   bump already-registered metrics); see docs/OBSERVABILITY.md "Design". *)

(* cddpd-lint: allow domain-unsafe-state — module-init registration on the main domain only *)
let counters : (string, Counter.t) Hashtbl.t = Hashtbl.create 64

(* cddpd-lint: allow domain-unsafe-state — module-init registration on the main domain only *)
let histograms : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16

let enabled () = !Switch.on

let enable () = Switch.on := true

let disable () = Switch.on := false

let with_enabled f =
  let was = !Switch.on in
  Switch.on := true;
  Fun.protect ~finally:(fun () -> Switch.on := was) f

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      if Hashtbl.mem histograms name then
        invalid_arg (Printf.sprintf "Registry.counter: %s is a histogram" name);
      let c = Counter.make name in
      Hashtbl.add counters name c;
      c

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
      if Hashtbl.mem counters name then
        invalid_arg (Printf.sprintf "Registry.histogram: %s is a counter" name);
      let h = Histogram.make name in
      Hashtbl.add histograms name h;
      h

let fold_counters f init =
  Hashtbl.fold (fun _ c acc -> f c acc) counters init

let fold_histograms f init =
  Hashtbl.fold (fun _ h acc -> f h acc) histograms init

let reset_values () =
  Hashtbl.iter (fun _ c -> Counter.reset c) counters;
  Hashtbl.iter (fun _ h -> Histogram.reset h) histograms
