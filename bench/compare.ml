(* The perf-regression gate's comparison engine: diff a fresh
   BENCH_*.json against a committed baseline and classify every numeric
   field.

   Field semantics are read off the names the benchmarks already use:

   - [*_ns] and [*_s] are wall-clock timings (lower is better).  They
     are gated with [timing_tolerance] and only once they clear the
     [min_ns] noise floor — micro-timings jitter too much to gate.
   - [*_rps] and [speedup] are throughput (higher is better), gated
     with [timing_tolerance] since they are wall-clock-derived.
   - Every other numeric row field (answer counts, cache hits, repair
     counts) is deterministic for the fixed bench seeds, so any drift
     beyond [tolerance] in either direction is flagged.
   - Top-level [counters] measure solver effort: an increase beyond
     [tolerance] is a regression, a decrease is an improvement.

   Tiny integer values get an absolute slack of 2 so a 1 -> 2 counter
   bump is not reported as a 100% regression. *)

type opts = {
  tolerance : float; (* counters and deterministic row fields *)
  timing_tolerance : float; (* wall-clock timings and throughput *)
  min_ns : float; (* ignore timings where both sides are below this *)
}

let default_opts =
  { tolerance = 0.25; timing_tolerance = 0.25; min_ns = 1e6 }

type kind = Timing | Throughput | Check | Counter

let kind_name = function
  | Timing -> "timing"
  | Throughput -> "throughput"
  | Check -> "check"
  | Counter -> "counter"

type status = Pass | Improved | Regressed | Missing | Added | Skipped

let status_name = function
  | Pass -> "pass"
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Missing -> "missing"
  | Added -> "added"
  | Skipped -> "skipped"

type finding = {
  row : string; (* row key, or "counters" *)
  field : string;
  kind : kind;
  base : float option;
  fresh : float option;
  status : status;
}

let is_regression f = f.status = Regressed || f.status = Missing

let has_suffix suf s =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let classify field =
  if has_suffix "_ns" field || has_suffix "_s" field then Timing
  else if has_suffix "_rps" field || field = "speedup" then Throughput
  else Check

(* Timing fields in nanoseconds, whatever their unit suffix. *)
let to_ns field v = if has_suffix "_s" field then v *. 1e9 else v

(* ---- row identity ----------------------------------------------------- *)

(* A row is identified by its bench name plus the workload parameters it
   was measured at; measured outputs must not participate, or a changed
   result would masquerade as a missing row. *)
let param_fields =
  [ "n"; "pairs"; "requests"; "months"; "chains"; "conflicts"; "rate";
    "case"; "method"; "trials"; "query" ]

let row_key row =
  let part name =
    match Tiny_json.member name row with
    | Some (Tiny_json.Str s) -> Some (Printf.sprintf "%s=%s" name s)
    | Some (Tiny_json.Num f) -> Some (Printf.sprintf "%s=%g" name f)
    | _ -> None
  in
  let bench =
    match Option.bind (Tiny_json.member "bench" row) Tiny_json.to_str with
    | Some b -> b
    | None -> "?"
  in
  String.concat "," (bench :: List.filter_map part param_fields)

let rows_of doc =
  match Option.bind (Tiny_json.member "rows" doc) Tiny_json.to_list with
  | Some rows -> List.map (fun r -> (row_key r, r)) rows
  | None -> []

let counters_of doc =
  match Tiny_json.member "counters" doc with
  | Some (Tiny_json.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, f)) (Tiny_json.to_num v))
        fields
  | _ -> []

(* ---- field comparison ------------------------------------------------- *)

let rel_change ~base ~fresh =
  if base = 0.0 then if fresh = 0.0 then 0.0 else infinity
  else (fresh -. base) /. Float.abs base

let small_slack ~base ~fresh =
  (* integer noise floor for tiny counts *)
  Float.abs (fresh -. base) <= 2.0 && Float.abs base < 100.0

(* Row fields pass the kind their name says ({!classify}); top-level
   counters pass [Counter] whatever their name, so a drop reads as an
   improvement rather than symmetric drift. *)
let compare_field opts ~kind ~row ~field ~base ~fresh =
  let change = rel_change ~base ~fresh in
  let status =
    match kind with
    | Timing ->
        if
          to_ns field base < opts.min_ns && to_ns field fresh < opts.min_ns
        then Skipped
        else if change > opts.timing_tolerance then Regressed
        else if change < -.opts.timing_tolerance then Improved
        else Pass
    | Throughput ->
        if change < -.opts.timing_tolerance then Regressed
        else if change > opts.timing_tolerance then Improved
        else Pass
    | Check | Counter ->
        if small_slack ~base ~fresh then Pass
        else if kind = Counter && change < -.opts.tolerance then Improved
        else if kind = Counter && change > opts.tolerance then Regressed
        else if Float.abs change > opts.tolerance then Regressed
        else Pass
  in
  { row; field; kind; base = Some base; fresh = Some fresh; status }

let compare_row opts key base_row fresh_row =
  let numeric_fields row =
    match row with
    | Tiny_json.Obj fields ->
        List.filter_map
          (fun (k, v) ->
            if k = "bench" || List.mem k param_fields then None
            else Option.map (fun f -> (k, f)) (Tiny_json.to_num v))
          fields
    | _ -> []
  in
  let base_fields = numeric_fields base_row in
  let fresh_fields = numeric_fields fresh_row in
  List.filter_map
    (fun (field, base) ->
      match List.assoc_opt field fresh_fields with
      | Some fresh ->
          Some
            (compare_field opts ~kind:(classify field) ~row:key ~field ~base
               ~fresh)
      | None ->
          Some
            {
              row = key;
              field;
              kind = classify field;
              base = Some base;
              fresh = None;
              status = Missing;
            })
    base_fields
  @ List.filter_map
      (fun (field, fresh) ->
        if List.mem_assoc field base_fields then None
        else
          Some
            {
              row = key;
              field;
              kind = classify field;
              base = None;
              fresh = Some fresh;
              status = Added;
            })
      fresh_fields

let compare_counter opts (name, base) fresh_counters =
  match List.assoc_opt name fresh_counters with
  | None ->
      {
        row = "counters";
        field = name;
        kind = Counter;
        base = Some base;
        fresh = None;
        status = Missing;
      }
  | Some fresh ->
      compare_field opts ~kind:Counter ~row:"counters" ~field:name ~base ~fresh

let compare_docs opts base_doc fresh_doc =
  let base_rows = rows_of base_doc and fresh_rows = rows_of fresh_doc in
  let row_findings =
    List.concat_map
      (fun (key, brow) ->
        match List.assoc_opt key fresh_rows with
        | Some frow -> compare_row opts key brow frow
        | None ->
            [
              {
                row = key;
                field = "(row)";
                kind = Check;
                base = None;
                fresh = None;
                status = Missing;
              };
            ])
      base_rows
  in
  let added_rows =
    List.filter_map
      (fun (key, _) ->
        if List.mem_assoc key base_rows then None
        else
          Some
            {
              row = key;
              field = "(row)";
              kind = Check;
              base = None;
              fresh = None;
              status = Added;
            })
      fresh_rows
  in
  let base_counters = counters_of base_doc in
  let fresh_counters = counters_of fresh_doc in
  let counter_findings =
    List.map (fun c -> compare_counter opts c fresh_counters) base_counters
  in
  row_findings @ added_rows @ counter_findings

let regressions findings = List.filter is_regression findings

(* ---- the JSON report -------------------------------------------------- *)

let finding_json f =
  let num = function
    | Some v -> Printf.sprintf "%.6g" v
    | None -> "null"
  in
  let ratio =
    match (f.base, f.fresh) with
    | Some b, Some fr when b <> 0.0 -> Printf.sprintf "%.4g" (fr /. b)
    | _ -> "null"
  in
  Printf.sprintf
    "{\"row\":%s,\"field\":%s,\"kind\":\"%s\",\"base\":%s,\"fresh\":%s,\"ratio\":%s,\"status\":\"%s\"}"
    (Obs.Export.json_string f.row)
    (Obs.Export.json_string f.field)
    (kind_name f.kind) (num f.base) (num f.fresh) ratio
    (status_name f.status)

let report_json opts ~base_path ~fresh_path findings =
  let regs = regressions findings in
  let interesting f = f.status <> Pass && f.status <> Skipped in
  Printf.sprintf
    "{\n\
    \  \"base\": %s,\n\
    \  \"fresh\": %s,\n\
    \  \"tolerance\": %g,\n\
    \  \"timing_tolerance\": %g,\n\
    \  \"min_ns\": %g,\n\
    \  \"compared\": %d,\n\
    \  \"regressions\": %d,\n\
    \  \"status\": \"%s\",\n\
    \  \"findings\": [\n%s\n  ]\n\
     }\n"
    (Obs.Export.json_string base_path)
    (Obs.Export.json_string fresh_path)
    opts.tolerance opts.timing_tolerance opts.min_ns (List.length findings)
    (List.length regs)
    (if regs = [] then "pass" else "fail")
    (String.concat ",\n"
       (List.map
          (fun f -> "    " ^ finding_json f)
          (List.filter interesting findings)))
