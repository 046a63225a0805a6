(* Host-speed calibration for the end-to-end times.

   The benchmark runs on a shared virtual machine whose speed drifts by
   up to 1.5x within a minute and 2x over half an hour (other guests,
   with or without steal), so two runs of the same code minutes apart
   read up to 1.5x apart.  The client therefore interleaves calibration slices with the
   workload: a fixed piece of OCaml work (map inserts, a fold, a list
   sort) that does not depend on the program under test, run on the same
   pinned CPU as the daemon and every one-shot child.  A time measured
   over [t0, t1] is scaled by [ref_ms] over the median slice time within
   [window_ns] of that interval, i.e. reported in milliseconds of a host
   on which a slice takes [ref_ms].  A change to the program moves its
   times and not the slices, so it shows in full. *)

module IM = Map.Make (Int)

(* One unit of calibration work. *)
let work () =
  let m = ref IM.empty in
  for i = 0 to 3999 do
    m := IM.add ((i * 7919) land 4095) i !m
  done;
  let s = IM.fold (fun k v a -> a + k + v) !m 0 in
  let l = List.init 4000 (fun i -> i * 31 mod 1000) in
  s + List.length (List.sort compare l)

let units_per_slice = 2

(* The slice time the scaled times are expressed in: about a slice's
   usual time on the 2-vCPU VM the bounds were set on. *)
let ref_ms = 3.0

(* A slice at most every [cadence_ns] of workload time: about a tenth
   of the client's time. *)
let cadence_ns = 40_000_000

(* The host's speed is taken as the median slice within a second of
   the measured interval; at least [min_slices] nearest slices. *)
let window_ns = 1_000_000_000
let min_slices = 5

(* Slices so far: (midpoint ns, ms), in time order. *)
let times = ref [||]
let n = ref 0
let last_end = ref 0

let push t ms =
  if !n = Array.length !times then begin
    let a = Array.make (max 256 (2 * !n)) (0, 0.) in
    Array.blit !times 0 a 0 !n;
    times := a
  end;
  !times.(!n) <- (t, ms);
  incr n

(* One slice.  A minor collection first, so every slice starts from an
   empty minor heap. *)
let slice () =
  Gc.minor ();
  let t0 = Spans.now_ns () in
  for _ = 1 to units_per_slice do
    ignore (Sys.opaque_identity (work ()))
  done;
  let t1 = Spans.now_ns () in
  push ((t0 + t1) / 2) (float_of_int (t1 - t0) /. 1e6);
  last_end := t1

(* A slice if [cadence_ns] have passed since the last one. *)
let tick () = if Spans.now_ns () - !last_end >= cadence_ns then slice ()

(* Several slices at once: before a set-up, after a stretch. *)
let burst () =
  for _ = 1 to min_slices do
    slice ()
  done

(* Index of the first slice at or after [t]. *)
let first_at t =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst !times.(mid) < t then go (mid + 1) hi else go lo mid
  in
  go 0 !n

(* The median slice time (ms) around [t0, t1]. *)
let slice_ms ~t0 ~t1 =
  if !n = 0 then invalid_arg "Calib.slice_ms: no calibration slice taken";
  let lo = first_at (t0 - window_ns) and hi = first_at (t1 + window_ns + 1) in
  (* widen to the nearest slices when the window holds too few *)
  let rec widen lo hi =
    if hi - lo >= min min_slices !n then (lo, hi)
    else if lo = 0 then widen lo (hi + 1)
    else if hi = !n then widen (lo - 1) hi
    else if t0 - fst !times.(lo - 1) <= fst !times.(hi) - t1 then widen (lo - 1) hi
    else widen lo (hi + 1)
  in
  let lo, hi = widen lo hi in
  Stats.median (List.init (hi - lo) (fun i -> snd !times.(lo + i)))

(* The factor that scales a time measured over [t0, t1]. *)
let scale ~t0 ~t1 = ref_ms /. slice_ms ~t0 ~t1

(* Median of the slices since the [from]th, for the stretch notes. *)
let median_ms ~from = Stats.median (List.init (!n - from) (fun i -> snd !times.(from + i)))
let count () = !n
