(* Host-speed calibration for CPU timings.

   The hosts this benchmark runs on are shared: for stretches of seconds to
   minutes, code that keeps several ALU ports busy runs up to twice as
   slow, and process CPU time grows with it. A fixed kernel of the same
   kind of work, timed next to each measured slice, sees the same slowdown,
   so

     normalized = measured * nominal_s / kernel_s

   is the CPU time the slice would take on a host running at the reference
   speed. The
   kernel is ChaCha-style add-rotate-xor rounds over four independent
   columns, the instruction mix of the protocol's hashing, plus short-lived
   allocation. It lives here, not in lib/, so that no change to the
   program under test can speed it up. *)

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land 0xFFFF_FFFF

let work () =
  let s = Array.init 16 (fun i -> (i * 0x9E3779B9) land 0xFFFF_FFFF) in
  let quarter a b c d =
    s.(a) <- (s.(a) + s.(b)) land 0xFFFF_FFFF;
    s.(d) <- rotl (s.(d) lxor s.(a)) 16;
    s.(c) <- (s.(c) + s.(d)) land 0xFFFF_FFFF;
    s.(b) <- rotl (s.(b) lxor s.(c)) 12;
    s.(a) <- (s.(a) + s.(b)) land 0xFFFF_FFFF;
    s.(d) <- rotl (s.(d) lxor s.(a)) 8;
    s.(c) <- (s.(c) + s.(d)) land 0xFFFF_FFFF;
    s.(b) <- rotl (s.(b) lxor s.(c)) 7
  in
  let junk = ref [] in
  for round = 1 to 20_000 do
    quarter 0 4 8 12;
    quarter 1 5 9 13;
    quarter 2 6 10 14;
    quarter 3 7 11 15;
    junk := Array.make 8 round :: !junk;
    if round land 63 = 0 then junk := []
  done;
  s.(0) + List.length !junk

let kernel_s () =
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (work ()));
  Sys.time () -. t0

(* Kernel CPU seconds at the reference speed: its typical time inside the
   harness during an uncontended stretch of a 2-vCPU x86-64 cloud VM, so
   normalized times read close to raw CPU time there. *)
let nominal_s = 0.0014

(* [seconds] measured while the kernel took [kernels]; their median is
   used, so that a few samples taken as the speed switched do not count. *)
let normalize seconds ~kernels =
  match kernels with [] -> seconds | _ -> seconds *. nominal_s /. Probe.median kernels
