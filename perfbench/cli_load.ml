(* The cqa_cli workloads: sequential `cqa_cli answers` invocations, one
   child at a time, each timed from spawn to exit and its stdout checked
   against the answers the document was built to have. *)

type item = {
  name : string;
  path : string;  (** the document, inside the run directory *)
  facts : int;
  check : string list -> bool;  (** the answer lines printed *)
}

type sample = {
  item : string;
  wall_s : float;
  cpu_s : float;
  peak_rss_mb : float;
  ok : bool;  (** exit status 0 and the expected answers *)
}

let invoke ~cli item =
  let r = Proc.run cli [ "answers"; item.path; "-q"; item.name ] in
  {
    item = item.name;
    wall_s = r.Proc.wall_s;
    cpu_s = r.Proc.cpu_s;
    peak_rss_mb = r.Proc.peak_rss_mb;
    ok = r.Proc.ok && item.check (Proc.lines r.Proc.stdout);
  }

(* One warm-up round that pages the binary and the documents in, then
   rounds over [items] until [seconds] have passed (at least one).
   Interleaving the items makes drift in machine speed hit all of them
   alike.  Returns the warm-up round and the measured rounds. *)
let run ~cli ~seconds items =
  let round () = List.map (invoke ~cli) items in
  let warm = round () in
  let deadline = Proc.now () +. seconds in
  let rec go acc =
    let acc = round () :: acc in
    if Proc.now () < deadline then go acc else List.rev acc
  in
  (warm, go [])

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* ---- the two workloads' inputs ---------------------------------------- *)

(* One FO document of ~1.3e5 facts; chain returns ~1e5 rows. *)
let fo_bulk_keys = 108_000
let fo_bulk_values = 800

let fo_bulk ~seed ~dir =
  let m =
    Docs.fo_model ~seed ~keys:fo_bulk_keys ~values:fo_bulk_values
      ~conflict:0.2
  in
  let path = Filename.concat dir "fo_bulk.cqa" in
  write_file path (Docs.fo_text ~point_queries:false m);
  let c = Docs.checker m.Docs.keys in
  [ { name = "chain"; path; facts = m.Docs.facts; check = Docs.check_chain m c } ]

(* The four complexity-tier documents of cli_tiers. *)
let tier_docs ~seed =
  [
    Docs.pair_doc ~seed ~n:640;
    Docs.bhard_doc ~seed ~gadgets:4000;
    Docs.hardx_doc ~seed ~n:160 ~conflict:0.5;
    Docs.denial_doc ~seed ~conflicts:10 ~managers:40 ~clean:160;
  ]

(* The documents of a cqa_cli workload, written under [dir]. *)
let items ~workload ~seed ~dir =
  match workload with
  | "cli_fo_bulk" -> fo_bulk ~seed ~dir
  | "cli_tiers" ->
      List.map
        (fun (d : Docs.doc) ->
          let path = Filename.concat dir (d.name ^ ".cqa") in
          write_file path d.text;
          {
            name = d.name;
            path;
            facts = d.facts;
            check = (fun lines -> Docs.sorted_lines lines = d.expected);
          })
        (tier_docs ~seed)
  | w -> invalid_arg ("Cli_load.items: " ^ w)
