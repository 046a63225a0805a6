(* Summary statistics over samples: medians, the reported tail, the
   geometric mean and log-log slopes. *)

let sorted xs = List.sort compare xs

(* Linear interpolation between closest ranks (the definition
   [statistics.quantiles(..., method='inclusive')] uses). *)
let quantile xs q =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float (Float.floor pos) in
      let frac = pos -. float_of_int i in
      if i >= n - 1 then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Samples a tail at percentile [p] needs: ten beyond it. *)
let tail_samples p = 1000 / (100 - p)

(* [tail ~p xs] — the value at percentile [p] (nearest rank).  The
   percentile is fixed by the caller; fewer than [tail_samples p]
   samples is an error, never a silent fall back to a lower one. *)
let tail ~p xs =
  let n = List.length xs in
  if n < tail_samples p then
    invalid_arg
      (Printf.sprintf "Stats.tail: p%d needs %d samples, got %d" p
         (tail_samples p) n);
  let a = Array.of_list (sorted xs) in
  let rank = (p * n + 99) / 100 in
  a.(max 0 (min (n - 1) (rank - 1)))

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log (Float.max x 1e-9)) 0. xs
        /. float_of_int (List.length xs))

(* Least-squares slope of log y over log x: the exponent k of a
   y ~ x^k fit. *)
let loglog_slope points =
  let pts = List.map (fun (x, y) -> (log x, log (Float.max y 1e-9))) points in
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
  let d = (n *. sxx) -. (sx *. sx) in
  if n < 2. || d = 0. then nan else ((n *. sxy) -. (sx *. sy)) /. d

(* Group [(key, value)] samples by key, in first-seen order. *)
let group samples =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some l -> Hashtbl.replace tbl k (v :: l)
      | None ->
          order := k :: !order;
          Hashtbl.add tbl k [ v ])
    samples;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

(* Geometric mean over distinct inputs of each input's median. *)
let geomean_of_medians samples =
  geomean (List.map (fun (_, vs) -> median vs) (group samples))
