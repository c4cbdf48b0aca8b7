(* perfbench: the repository benchmark.  Runs one workload for about
   [--seconds] seconds and prints, as its last line of standard output,
   one JSON object: {"correct", "attempted", "failed", "metrics"}.
   With [--trace 0] the metrics are BENCHMARK.json's end-to-end ones,
   with [--trace 1] its per-layer ones.  Meant to be started through
   perfbench/run.py, which builds this executable first; see
   perfbench/README.md. *)

module J = Pfi_testgen.Repro.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload (campaign-gmp|campaign-short|fuzz-short) --seed N \
     --seconds S --trace (0|1) [--out DIR] [--nproc N] [--commit SHA] \
     [--build-profile NAME]";
  exit 2

let arg name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (List.tl (Array.to_list Sys.argv))

let required name conv =
  match Option.bind (arg name) conv with Some v -> v | None -> usage ()

let workload = required "--workload" Option.some
let seed = required "--seed" int_of_string_opt
let seconds = required "--seconds" float_of_string_opt

let trace =
  required "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None)

let slurp file = In_channel.with_open_bin file In_channel.input_all

(* (name, unit) of each metric BENCHMARK.json declares under [key]. *)
let declared key =
  let fail msg =
    prerr_endline ("perfbench: BENCHMARK.json: " ^ msg);
    exit 3
  in
  match J.parse (slurp "BENCHMARK.json") with
  | Error e -> fail e
  | Ok j -> (
      match J.member key j with
      | Some (J.List ms) ->
        List.map
          (fun m ->
            match
              (Option.bind (J.member "name" m) J.to_str, Option.bind (J.member "unit" m) J.to_str)
            with
            | Some n, Some u -> (n, u)
            | _ -> fail ("malformed metric under " ^ key))
          ms
      | _ -> fail ("no " ^ key ^ " list"))

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> scan ())
      in
      scan ())

(* The workload's metrics in BENCHMARK.json's order; a benchmark that
   does not measure exactly what it declares is a bug, not a result. *)
let in_declared_order want ms =
  let got = List.map (fun (m : Metric.t) -> (m.name, m.unit)) ms in
  if List.sort compare want <> List.sort compare got then begin
    prerr_endline "perfbench: measured metrics do not match BENCHMARK.json";
    exit 3
  end;
  List.map (fun (n, _) -> List.find (fun (m : Metric.t) -> m.name = n) ms) want

let write dir file contents =
  Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
      output_string oc contents)

let summary_md ms (tally : Tally.t) =
  String.concat ""
    ((Printf.sprintf "# perfbench %s, seed %d, %g s, trace %b\n\n" workload seed seconds trace
     :: Printf.sprintf "%d attempted, %d failed\n\n| metric | value | unit |\n|---|---|---|\n"
          tally.attempted tally.failed
     :: List.map
          (fun (m : Metric.t) -> Printf.sprintf "| %s | %.6g | %s |\n" m.name m.value m.unit)
          ms)
    @ List.map (fun n -> "- " ^ n ^ "\n") (List.rev tally.notes))

let () =
  let want = declared (if trace then "per_layer" else "end_to_end") in
  let tally = Tally.create () in
  let t0 = Clock.now_ns () in
  let campaign w =
    if trace then Campaign_run.run_traced w ~seed ~seconds tally
    else Campaign_run.run_e2e w ~seed ~seconds tally
  in
  let ms, details =
    match workload with
    | "campaign-gmp" -> campaign Campaign_run.gmp
    | "campaign-short" -> campaign Campaign_run.short
    | "fuzz-short" ->
      if trace then Fuzz_run.run_traced ~seed ~seconds tally
      else Fuzz_run.run_e2e ~seed ~seconds tally
    | _ -> usage ()
  in
  let ms =
    in_declared_order want
      (if trace then ms else ms @ [ Metric.v "peak_rss_mb" "MB" (peak_rss_mb ()) ])
  in
  let correct = tally.failed = 0 in
  let line =
    J.to_line
      (J.Obj
         [ ("correct", J.Bool correct);
           ("attempted", J.Int (max 1 tally.attempted));
           ("failed", J.Int tally.failed);
           ("metrics", Metric.to_json ms) ])
  in
  Option.iter
    (fun dir ->
      let s name = J.Str (Option.value (arg name) ~default:"unknown") in
      write dir "manifest.json"
        (J.to_string
           (J.Obj
              [ ("schema", J.Str "perfbench-run/1");
                ("workload", J.Str workload);
                ("seed", J.Int seed);
                ("seconds", J.Float seconds);
                ("trace", J.Bool trace);
                ("nproc", s "--nproc");
                ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
                ("ocaml_version", J.Str Sys.ocaml_version);
                ("build_profile", s "--build-profile");
                ("commit", s "--commit");
                ( "replay",
                  J.Str
                    (Printf.sprintf
                       "python3 perfbench/run.py --workload %s --seed %d --seconds %g --trace %d"
                       workload seed seconds (Bool.to_int trace)) );
                ("results", J.Str "results.json");
                ("summary", J.Str "summary.md") ]));
      write dir "results.json"
        (J.to_string
           (J.Obj
              [ ("correct", J.Bool correct);
                ("attempted", J.Int tally.attempted);
                ("failed", J.Int tally.failed);
                ( "failed_frac",
                  J.Float
                    (Sample.ratio (float_of_int tally.failed) (float_of_int tally.attempted)) );
                ("failures", J.List (List.rev_map (fun n -> J.Str n) tally.notes));
                ("wall_s", J.Float (Clock.since_s t0));
                ("metrics", Metric.to_json ms);
                ("details", details) ]));
      write dir "summary.md" (summary_md ms tally))
    (arg "--out");
  print_endline line
