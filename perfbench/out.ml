(* The report: a table for people, then the one-line JSON result the
   driver reads (always the last line of stdout). *)

module Json = Lb_service.Json

let print_result ~attempted ~failed metrics =
  Printf.printf "%-36s %14s  %s\n" "metric" "value" "unit";
  List.iter
    (fun (name, v, unit, note) ->
      Printf.printf "%-36s %14.4f  %-6s %s\n" name v unit note)
    metrics;
  let error_frac =
    if attempted = 0 then 1.0 else float_of_int failed /. float_of_int attempted
  in
  Printf.printf "%-36s %14.4f  %-6s %d of %d ops\n" "error_frac" error_frac
    "ratio" failed attempted;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit, _) ->
                     ( name,
                       Json.Obj
                         [ ("value", Json.Float v); ("unit", Json.String unit) ] ))
                   metrics) );
          ]))
