(* Due-time queue: a binary min-heap over (due time, seq) held in three
   parallel arrays. The due times sit unboxed in a float array and both
   keys are compared inline, so a sift step reads two adjacent cells
   instead of calling a comparator closure on two boxed records. *)

type 'a t = {
  mutable ats : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { ats = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

let grow t x =
  let cap = Array.length t.vals in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ats = Array.make ncap 0.0 and seqs = Array.make ncap 0 and vals = Array.make ncap x in
    Array.blit t.ats 0 ats 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.ats <- ats;
    t.seqs <- seqs;
    t.vals <- vals
  end

(* Is slot [i] strictly before the key (at, seq)? *)
let before t i (at : float) seq =
  let a = t.ats.(i) in
  a < at || (a = at && t.seqs.(i) < seq)

let move t ~src ~dst =
  t.ats.(dst) <- t.ats.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.vals.(dst) <- t.vals.(src)

let place t i at seq x =
  t.ats.(i) <- at;
  t.seqs.(i) <- seq;
  t.vals.(i) <- x

(* Hole-based sifts: parents (children) move into the hole until the key
   fits, and the new element is written once. *)
let rec sift_up t i at seq x =
  if i = 0 then place t 0 at seq x
  else begin
    let parent = (i - 1) / 2 in
    if before t parent at seq then place t i at seq x
    else begin
      move t ~src:parent ~dst:i;
      sift_up t parent at seq x
    end
  end

let rec sift_down t i at seq x =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i at seq x
  else begin
    let r = l + 1 in
    let c = if r < t.size && before t r t.ats.(l) t.seqs.(l) then r else l in
    if before t c at seq then begin
      move t ~src:c ~dst:i;
      sift_down t c at seq x
    end
    else place t i at seq x
  end

let add t ~at x =
  grow t x;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i at seq x

let min_at t = if t.size = 0 then infinity else t.ats.(0)
let peek t = if t.size = 0 then None else Some t.vals.(0)

let pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty";
  let top = t.vals.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t 0 t.ats.(last) t.seqs.(last) t.vals.(last);
  top

let pop t = if t.size = 0 then None else Some (pop_exn t)

let clear t =
  t.ats <- [||];
  t.seqs <- [||];
  t.vals <- [||];
  t.size <- 0

let to_sorted_list t =
  let c =
    {
      ats = Array.sub t.ats 0 t.size;
      seqs = Array.sub t.seqs 0 t.size;
      vals = Array.sub t.vals 0 t.size;
      size = t.size;
      next_seq = t.next_seq;
    }
  in
  let rec drain acc = if c.size = 0 then List.rev acc else drain (pop_exn c :: acc) in
  drain []
