let header id title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n== %s: %s\n%s\n" line id title line

let note msg = Printf.printf "-- %s\n" msg

let table ~columns ~rows =
  let n = List.length columns in
  let widths = Array.make n 0 in
  let measure row =
    List.iteri (fun i cell -> if i < n then widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure columns;
  List.iter measure rows;
  let print_row row =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " widths.(i) cell)
      row;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter print_row rows

let downsample_linear ~every points =
  let rec go last acc = function
    | [] -> List.rev acc
    | [ p ] -> List.rev (p :: acc)
    | ((x, _) as p) :: rest ->
      if x >= last + every then go x (p :: acc) rest else go last acc rest
  in
  go min_int [] points

let downsample_log points =
  let rec go threshold acc = function
    | [] -> List.rev acc
    | [ p ] -> List.rev (p :: acc)
    | ((x, _) as p) :: rest ->
      if x >= threshold then
        go (max (threshold + 1) (threshold * 5 / 4)) (p :: acc) rest
      else go threshold acc rest
  in
  go 1 [] points

let ascii_plot ?(width = 64) ?(height = 16) ?(log_x = false) points =
  match points with
  | [] -> print_endline "(no data)"
  | points ->
    let xs = List.map fst points and ys = List.map snd points in
    let x_min = List.fold_left min max_int xs
    and x_max = List.fold_left max min_int xs
    and y_max = List.fold_left max 1 ys in
    let fx x =
      if log_x then
        let lo = log (float_of_int (max 1 x_min)) in
        let hi = log (float_of_int (max 2 x_max)) in
        let v = log (float_of_int (max 1 x)) in
        int_of_float ((v -. lo) /. (max 1e-9 (hi -. lo)) *. float_of_int (width - 1))
      else if x_max = x_min then 0
      else (x - x_min) * (width - 1) / (x_max - x_min)
    in
    let fy y = (height - 1) - (y * (height - 1) / y_max) in
    let grid = Array.make_matrix height width ' ' in
    List.iter
      (fun (x, y) ->
        let cx = min (width - 1) (max 0 (fx x)) in
        let cy = min (height - 1) (max 0 (fy y)) in
        grid.(cy).(cx) <- '*')
      points;
    Printf.printf "%d\n" y_max;
    Array.iter (fun row -> Printf.printf "|%s|\n" (String.init width (Array.get row))) grid;
    Printf.printf "%d%s%d%s\n" x_min
      (String.make (max 1 (width - String.length (string_of_int x_min) - String.length (string_of_int x_max))) ' ')
      x_max
      (if log_x then " (log x)" else "")

let percent f = Printf.sprintf "%+.1f%%" (100. *. f)

let factor f =
  if f = infinity then "inf"
  else if f >= 100. then Printf.sprintf "%.0fX" f
  else Printf.sprintf "%.1fX" f
