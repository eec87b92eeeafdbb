(* Exporters over a collected Trace.ctx:

   - Chrome trace_event JSON (chrome://tracing, Perfetto): one "X"
     (complete) event per span, one track (tid) per worker slot, with
     thread_name metadata so the planner track and the pool workers
     are labelled.  Timestamps/durations are microseconds.
   - A flat metrics dump (JSON, or CSV by file extension): counter
     totals, histogram buckets, and the aggregated span summary.

   Plus the validators behind [lacr_cli trace-check] / [make
   smoke-trace]: both outputs must re-parse, trace timestamps must be
   monotone per track, and the expected top-level spans must be
   present. *)

let us t = Jsonx.Num (1.0e6 *. t)

let value_to_json = function
  | Trace.Str s -> Jsonx.Str s
  | Trace.Int i -> Jsonx.of_int i
  | Trace.Float x -> Jsonx.Num x
  | Trace.Bool b -> Jsonx.Bool b

let track_name slot = if slot = 0 then "planner" else Printf.sprintf "worker-%d" slot

let chrome_trace ctx =
  let tracks = Trace.events ctx in
  let meta =
    List.map
      (fun (slot, _) ->
        Jsonx.Obj
          [
            ("ph", Jsonx.Str "M");
            ("name", Jsonx.Str "thread_name");
            ("pid", Jsonx.of_int 1);
            ("tid", Jsonx.of_int slot);
            ("args", Jsonx.Obj [ ("name", Jsonx.Str (track_name slot)) ]);
          ])
      tracks
  in
  let span_events =
    List.concat_map
      (fun (slot, events) ->
        List.map
          (fun (e : Trace.event) ->
            Jsonx.Obj
              [
                ("ph", Jsonx.Str "X");
                ("name", Jsonx.Str e.Trace.ev_name);
                ("cat", Jsonx.Str e.Trace.ev_cat);
                ("pid", Jsonx.of_int 1);
                ("tid", Jsonx.of_int slot);
                ("ts", us e.Trace.ev_ts);
                ("dur", us e.Trace.ev_dur);
                ( "args",
                  Jsonx.Obj
                    (("depth", Jsonx.of_int e.Trace.ev_depth)
                    :: List.map (fun (k, v) -> (k, value_to_json v)) e.Trace.ev_attrs) );
              ])
          events)
      tracks
  in
  Jsonx.Obj
    [ ("traceEvents", Jsonx.Arr (meta @ span_events)); ("displayTimeUnit", Jsonx.Str "ms") ]

let write_chrome_trace ctx path = Jsonx.write_file path (chrome_trace ctx)

let totals_fields counters histograms =
  let ints a = Jsonx.Arr (Array.to_list (Array.map Jsonx.of_int a)) in
  [
    ("counters", Jsonx.Obj (List.map (fun (name, total) -> (name, Jsonx.of_int total)) counters));
    ( "histograms",
      Jsonx.Obj
        (List.map
           (fun (name, bounds, counts) ->
             (name, Jsonx.Obj [ ("bounds", ints bounds); ("counts", ints counts) ]))
           histograms) );
  ]

let metrics_json ctx =
  let spans =
    List.map
      (fun (depth, name, count, seconds) ->
        Jsonx.Obj
          [
            ("name", Jsonx.Str name);
            ("depth", Jsonx.of_int depth);
            ("count", Jsonx.of_int count);
            ("total_ms", Jsonx.Num (1000.0 *. seconds));
          ])
      (Trace.span_summary ctx)
  in
  Jsonx.Obj
    ((("schema", Jsonx.of_int 1)
     :: totals_fields (Trace.counter_totals ctx) (Trace.histogram_totals ctx))
    @ [ ("spans", Jsonx.Arr spans) ])

(* Flat CSV projection: one row per scalar, histograms one row per
   bucket.  Span rows carry milliseconds in the value column. *)
let metrics_csv ctx =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "kind,name,key,value\n";
  let esc s = if String.contains s ',' then "\"" ^ s ^ "\"" else s in
  List.iter
    (fun (name, total) -> Buffer.add_string buf (Printf.sprintf "counter,%s,,%d\n" (esc name) total))
    (Trace.counter_totals ctx);
  List.iter
    (fun (name, bounds, counts) ->
      Array.iteri
        (fun b count ->
          let key =
            if b < Array.length bounds then Printf.sprintf "le_%d" bounds.(b) else "overflow"
          in
          Buffer.add_string buf (Printf.sprintf "histogram,%s,%s,%d\n" (esc name) key count))
        counts)
    (Trace.histogram_totals ctx);
  List.iter
    (fun (depth, name, count, seconds) ->
      Buffer.add_string buf
        (Printf.sprintf "span,%s,depth_%d_count_%d,%.3f\n" (esc name) depth count
           (1000.0 *. seconds)))
    (Trace.span_summary ctx);
  Buffer.contents buf

let write_metrics ctx path =
  if Filename.check_suffix path ".csv" then begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (metrics_csv ctx))
  end
  else Jsonx.write_file path (metrics_json ctx)

(* --- validators --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ( let* ) r f = Result.bind r f

(* Validate a Chrome trace document: parses, has a traceEvents array,
   every complete event carries name/ts/dur, timestamps are monotone
   per tid, and every [expect]ed span name occurs.  Returns the number
   of span events. *)
let validate_trace_string ?(expect = []) text =
  let* doc = Jsonx.parse text in
  let* events =
    match Jsonx.member "traceEvents" doc with
    | Some (Jsonx.Arr events) -> Ok events
    | Some _ -> Error "traceEvents is not an array"
    | None -> Error "missing traceEvents"
  in
  let seen = Hashtbl.create 16 in
  let last_ts = Hashtbl.create 8 in
  let n_spans = ref 0 in
  let* () =
    List.fold_left
      (fun acc ev ->
        let* () = acc in
        match Jsonx.member "ph" ev with
        | Some (Jsonx.Str "M") -> Ok ()
        | Some (Jsonx.Str "X") -> (
          incr n_spans;
          match
            ( Option.bind (Jsonx.member "name" ev) Jsonx.to_str,
              Option.bind (Jsonx.member "tid" ev) Jsonx.to_float,
              Option.bind (Jsonx.member "ts" ev) Jsonx.to_float,
              Option.bind (Jsonx.member "dur" ev) Jsonx.to_float )
          with
          | Some name, Some tid, Some ts, Some dur ->
            if dur < 0.0 then Error (Printf.sprintf "span %s: negative duration" name)
            else begin
              Hashtbl.replace seen name ();
              let prev = Option.value (Hashtbl.find_opt last_ts tid) ~default:neg_infinity in
              if ts <= prev then
                Error
                  (Printf.sprintf "span %s: non-monotone ts %.3f after %.3f on tid %.0f" name
                     ts prev tid)
              else begin
                Hashtbl.replace last_ts tid ts;
                Ok ()
              end
            end
          | _ -> Error "span event missing name/tid/ts/dur")
        | Some (Jsonx.Str ph) -> Error (Printf.sprintf "unexpected event phase %S" ph)
        | Some _ | None -> Error "event missing ph")
      (Ok ()) events
  in
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        if Hashtbl.mem seen name then Ok ()
        else Error (Printf.sprintf "expected span %S not present" name))
      (Ok ()) expect
  in
  if !n_spans = 0 then Error "trace contains no span events" else Ok !n_spans

let validate_trace_file ?expect path = validate_trace_string ?expect (read_file path)

(* Validate a metrics dump (JSON or CSV by extension): parses and
   contains at least one counter.  Returns the counter count. *)
let validate_metrics_string ~csv text =
  if csv then begin
    let lines = String.split_on_char '\n' text in
    match lines with
    | header :: rows when header = "kind,name,key,value" ->
      let counters =
        List.filter (fun row -> String.length row >= 8 && String.sub row 0 8 = "counter,") rows
      in
      if counters = [] then Error "metrics CSV contains no counters"
      else Ok (List.length counters)
    | _ -> Error "metrics CSV missing header"
  end
  else
    let* doc = Jsonx.parse text in
    match Jsonx.member "counters" doc with
    | Some (Jsonx.Obj counters) ->
      if counters = [] then Error "metrics dump contains no counters"
      else Ok (List.length counters)
    | Some _ -> Error "counters is not an object"
    | None -> Error "missing counters"

let validate_metrics_file path =
  validate_metrics_string ~csv:(Filename.check_suffix path ".csv") (read_file path)
