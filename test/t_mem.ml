(* Tests for halo_mem: Addr, Vmem, Size_class. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------------- Addr ---------------- *)

let addr_align_up () =
  checki "already aligned" 64 (Addr.align_up 64 64);
  checki "rounds up" 128 (Addr.align_up 65 64);
  checki "zero" 0 (Addr.align_up 0 8)

let addr_align_down () =
  checki "already aligned" 64 (Addr.align_down 64 64);
  checki "rounds down" 64 (Addr.align_down 127 64)

let addr_is_aligned () =
  checkb "aligned" true (Addr.is_aligned 4096 4096);
  checkb "unaligned" false (Addr.is_aligned 4097 4096)

let addr_pow2 () =
  checkb "1" true (Addr.is_power_of_two 1);
  checkb "64" true (Addr.is_power_of_two 64);
  checkb "63" false (Addr.is_power_of_two 63);
  checkb "0" false (Addr.is_power_of_two 0);
  checkb "neg" false (Addr.is_power_of_two (-2));
  List.iter
    (fun (n, k) -> Alcotest.check Alcotest.int (Printf.sprintf "log2 %d" n) k (Addr.log2 n))
    [ (1, 0); (2, 1); (64, 6); (4096, 12); (1 lsl 61, 61) ]

let addr_rejects_bad_alignment () =
  Alcotest.check_raises "align_up 3"
    (Invalid_argument "Addr.align_up: alignment 3 is not a positive power of two")
    (fun () -> ignore (Addr.align_up 10 3));
  Alcotest.check_raises "log2 48" (Invalid_argument "Addr.log2: not a positive power of two")
    (fun () -> ignore (Addr.log2 48));
  Alcotest.check_raises "log2 0" (Invalid_argument "Addr.log2: not a positive power of two")
    (fun () -> ignore (Addr.log2 0))

let addr_hex () = Alcotest.check Alcotest.string "hex" "0xff" (Addr.to_hex 255)

(* ---------------- Vmem ---------------- *)

let vmem_mmap_alignment () =
  let v = Vmem.create () in
  let a = Vmem.mmap v ~size:100 ~align:(1 lsl 20) in
  checkb "1MiB aligned" true (Addr.is_aligned a (1 lsl 20))

let vmem_mappings_disjoint () =
  let v = Vmem.create () in
  let a = Vmem.mmap v ~size:8192 ~align:4096 in
  let b = Vmem.mmap v ~size:8192 ~align:4096 in
  checkb "no overlap" true (b >= a + 8192 || a >= b + 8192)

let vmem_residency_on_touch () =
  let v = Vmem.create () in
  let a = Vmem.mmap v ~size:(3 * 4096) ~align:4096 in
  checki "nothing resident" 0 (Vmem.resident_bytes v);
  Vmem.touch v a 1;
  checki "one page" 4096 (Vmem.resident_bytes v);
  Vmem.touch v (a + 4095) 2;
  (* crosses into page 2 *)
  checki "two pages" (2 * 4096) (Vmem.resident_bytes v)

let vmem_touch_unmapped_faults () =
  let v = Vmem.create () in
  checkb "segfault raised" true
    (try
       Vmem.touch v 0x1234 8;
       false
     with Failure _ -> true)

let vmem_guard_page_faults () =
  let v = Vmem.create () in
  let a = Vmem.mmap v ~size:4096 ~align:4096 in
  checkb "off-by-one caught" true
    (try
       Vmem.touch v (a + 4090) 16;
       false
     with Failure _ -> true)

let vmem_purge () =
  let v = Vmem.create () in
  let a = Vmem.mmap v ~size:(4 * 4096) ~align:4096 in
  Vmem.touch v a (4 * 4096);
  checki "all resident" (4 * 4096) (Vmem.resident_bytes v);
  Vmem.purge v a (2 * 4096);
  checki "two purged" (2 * 4096) (Vmem.resident_bytes v);
  (* purging partial pages rounds inward *)
  Vmem.touch v a (4 * 4096);
  Vmem.purge v (a + 1) 4096;
  checki "partial page not purged" (4 * 4096) (Vmem.resident_bytes v)

let vmem_munmap () =
  let v = Vmem.create () in
  let a = Vmem.mmap v ~size:4096 ~align:4096 in
  Vmem.touch v a 8;
  Vmem.munmap v a;
  checki "residency dropped" 0 (Vmem.resident_bytes v);
  checkb "no longer mapped" false (Vmem.is_mapped v a)

let vmem_resident_in_range () =
  let v = Vmem.create () in
  let a = Vmem.mmap v ~size:(4 * 4096) ~align:4096 in
  Vmem.touch v a 8;
  Vmem.touch v (a + (3 * 4096)) 8;
  checki "range count" 4096 (Vmem.resident_bytes_in v a 4096);
  checki "whole mapping" (2 * 4096) (Vmem.resident_bytes_in v a (4 * 4096))

let vmem_counts_mmap_calls () =
  let v = Vmem.create () in
  ignore (Vmem.mmap v ~size:4096 ~align:4096 : Addr.t);
  ignore (Vmem.mmap v ~size:4096 ~align:4096 : Addr.t);
  checki "two calls" 2 (Vmem.mmap_calls v)

(* ---------------- Size_class ---------------- *)

let size_class_smalls () =
  checki "16 -> 16" 16 (Option.get (Size_class.round_up 16));
  checki "17 -> 32" 32 (Option.get (Size_class.round_up 17));
  checki "0 -> 16" 16 (Option.get (Size_class.round_up 0));
  checki "33 -> 48" 48 (Option.get (Size_class.round_up 33));
  checki "129 -> 160" 160 (Option.get (Size_class.round_up 129))

let size_class_large_none () =
  Alcotest.check Alcotest.bool "large has no class" true
    (Size_class.class_of_size (Size_class.small_max + 1) = None)

let size_class_monotone () =
  let prev = ref 0 in
  for c = 0 to Size_class.nclasses - 1 do
    let s = Size_class.size_of_class c in
    checkb "strictly increasing" true (s > !prev);
    prev := s
  done

let size_class_cover () =
  (* round_up n >= n for all small n, and minimal among classes *)
  for n = 1 to Size_class.small_max do
    let c = Option.get (Size_class.class_of_size n) in
    let s = Size_class.size_of_class c in
    if s < n then Alcotest.failf "class %d (%d) smaller than request %d" c s n;
    if c > 0 && Size_class.size_of_class (c - 1) >= n then
      Alcotest.failf "class %d not minimal for %d" c n
  done

let prop_size_class_fits =
  QCheck2.Test.make ~name:"size_class: round_up fits and is quantum-aligned"
    ~count:500
    QCheck2.Gen.(int_range 0 Size_class.small_max)
    (fun n ->
      match Size_class.round_up n with
      | None -> false
      | Some s -> s >= max n 1 && s mod Size_class.quantum = 0)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "addr: align_up" addr_align_up;
    tc "addr: align_down" addr_align_down;
    tc "addr: is_aligned" addr_is_aligned;
    tc "addr: power-of-two check" addr_pow2;
    tc "addr: rejects bad alignment" addr_rejects_bad_alignment;
    tc "addr: hex rendering" addr_hex;
    tc "vmem: mmap alignment honoured" vmem_mmap_alignment;
    tc "vmem: mappings disjoint" vmem_mappings_disjoint;
    tc "vmem: demand paging on touch" vmem_residency_on_touch;
    tc "vmem: unmapped touch is a fault" vmem_touch_unmapped_faults;
    tc "vmem: guard page catches overruns" vmem_guard_page_faults;
    tc "vmem: purge returns pages" vmem_purge;
    tc "vmem: munmap drops residency" vmem_munmap;
    tc "vmem: resident_bytes_in" vmem_resident_in_range;
    tc "vmem: mmap call counting" vmem_counts_mmap_calls;
    tc "size_class: small sizes" size_class_smalls;
    tc "size_class: large returns None" size_class_large_none;
    tc "size_class: strictly monotone" size_class_monotone;
    tc "size_class: minimal cover" size_class_cover;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_size_class_fits ]
