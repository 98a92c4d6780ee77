let to_channel g oc =
  Printf.fprintf oc "n %d %d\n" (Graph.n g) (Graph.m g);
  if Graph.is_weighted g then Graph.iter_edges_w g (Printf.fprintf oc "%d %d %d\n")
  else Graph.iter_edges g (Printf.fprintf oc "%d %d\n")

let write g path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel g oc)

let of_channel ?(file = "<channel>") ic =
  let fail line msg = Io_error.raise_error ~file ~line msg in
  let g = ref None in
  let expected_m = ref 0 in
  let line_no = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr line_no;
       let line = String.trim line in
       if line <> "" && line.[0] <> '#' then begin
         let fields =
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun s -> s <> "")
         in
         let add graph u v weight =
           match (int_of_string_opt u, int_of_string_opt v) with
           | Some u, Some v ->
               if u = v then fail !line_no "self-loop"
               else if u < 0 || v < 0 || u >= Graph.n graph || v >= Graph.n graph then
                 fail !line_no "endpoint out of range"
               else ignore (Graph.add_edge ~weight graph u v)
           | _ -> fail !line_no "bad edge line"
         in
         match (!g, fields) with
         | None, [ "n"; n; m ] -> (
             match (int_of_string_opt n, int_of_string_opt m) with
             | Some n, Some m when n >= 0 && m >= 0 ->
                 g := Some (Graph.create n);
                 expected_m := m
             | _ -> fail !line_no "bad header")
         | None, _ -> fail !line_no "expected header 'n <nodes> <edges>'"
         | Some graph, [ u; v ] -> add graph u v 1
         | Some graph, [ u; v; w ] -> (
             match int_of_string_opt w with
             | Some w when w >= 1 -> add graph u v w
             | Some _ -> fail !line_no "edge weight must be a positive integer"
             | None -> fail !line_no "bad edge line")
         | Some _, _ -> fail !line_no "bad edge line"
       end
     done
   with End_of_file -> ());
  match !g with
  | None -> fail 0 "empty input (missing header)"
  | Some graph ->
      if Graph.m graph <> !expected_m then
        fail !line_no
          (Printf.sprintf "header declares %d edges but %d were read" !expected_m (Graph.m graph));
      graph

let read path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ~file:path ic)
