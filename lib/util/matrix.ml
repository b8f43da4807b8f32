(* Dense matrices.

   Two flavours are provided:
   - [Int]: row-major int matrices with a cache-aware triple loop, used
     for counting walks (e.g. cycle counts via the trace of a product
     chain).
   - [Bool]: Boolean matrices with rows packed 63 bits per word, built
     as a small kernel layer.  Boolean multiplication is the practical
     stand-in for "fast matrix multiplication" in this reproduction
     (see DESIGN.md, substitutions table); the kernel keeps the naive
     word loop as the small-case/oracle path and adds a cache-blocked
     word-scan, a Method-of-Four-Russians path (lookup tables of
     OR-combinations for groups of 8 right-operand rows), and
     Domain-parallel drivers over left-row bands with deterministic,
     bit-identical output. *)

(* Rows of a Domain-parallel product are partitioned over chunks of
   [row_band] left rows; each domain writes a disjoint slice of the
   output, so pooled results are bit-identical to sequential ones. *)
let row_band = 32

let bands n = (n + row_band - 1) / row_band

(* Per-chunk metric slots: pooled kernels add their word counts into a
   private slot per chunk and merge sequentially afterwards, so counter
   values do not depend on domain scheduling. *)
let merge_slots metrics name slots =
  Metrics.add metrics name (Array.fold_left ( + ) 0 slots)

let tick_opt = function Some b -> Budget.tick b | None -> ()

(* Pooled paths consume their per-band budget ticks up front (the band
   count is known); sequential paths tick as they go, so exhaustion
   interrupts mid-product. *)
let tick_bands budget n = match budget with
  | None -> ()
  | Some b -> for _ = 1 to n do Budget.tick b done

module Int = struct
  type t = { n : int; m : int; a : int array }

  let create n m = { n; m; a = Array.make (n * m) 0 }

  let dims t = (t.n, t.m)

  let get t i j = t.a.((i * t.m) + j)

  let set t i j v = t.a.((i * t.m) + j) <- v

  let init n m f =
    let t = create n m in
    for i = 0 to n - 1 do
      for j = 0 to m - 1 do
        set t i j (f i j)
      done
    done;
    t

  (* i-k-j loop order: the inner loop walks both [b] and [c] rows
     sequentially.

     Overflow bound (documented, not checked): entries are native ints,
     so the caller must ensure every partial sum stays below [max_int] =
     2^62 - 1.  For 0/1 matrices this caps walk counting at
     [a.m * max_entry(a) * max_entry(b) < 2^62]; e.g. trace(A^3)
     triangle counting is safe only up to n^2 < 2^62 but chains of k
     products of n x n 0/1 matrices can reach n^{k-1} — use
     [Bool.mul_count] when a single product of 0/1 matrices is all
     that's needed (its entries are popcounts, bounded by the shared
     dimension). *)
  let mul ?(ctx = Exec.default) a b =
    let { Exec.pool; budget; metrics } = ctx in
    if a.m <> b.n then invalid_arg "Matrix.Int.mul: dimension mismatch";
    let c = create a.n b.m in
    let nbands = bands a.n in
    let slots = Array.make (max 1 nbands) 0 in
    let band band_idx =
      let ilo = band_idx * row_band in
      let ihi = min a.n (ilo + row_band) in
      let ops = ref 0 in
      for i = ilo to ihi - 1 do
        for k = 0 to a.m - 1 do
          let aik = get a i k in
          if aik <> 0 then begin
            let arow = i * b.m and brow = k * b.m in
            for j = 0 to b.m - 1 do
              c.a.(arow + j) <- c.a.(arow + j) + (aik * b.a.(brow + j))
            done;
            ops := !ops + b.m
          end
        done
      done;
      slots.(band_idx) <- !ops
    in
    (match pool with
    | Some p when nbands > 1 ->
        tick_bands budget nbands;
        Pool.run p ~chunks:nbands band
    | _ ->
        for i = 0 to nbands - 1 do
          tick_opt budget;
          band i
        done);
    merge_slots metrics "matmul.int_ops" slots;
    c

  let trace t =
    let s = ref 0 in
    for i = 0 to min t.n t.m - 1 do
      s := !s + get t i i
    done;
    !s
end

module Bool = struct
  type t = { n : int; m : int; words : int; rows : Column.t }
  (* rows is an n*words off-heap column; bit j of row i lives in
     rows.(i*words + j/63) bit (j mod 63).  Bits at positions >= m in
     the last word of a row are always 0 — every kernel below relies on
     (and preserves) that. *)

  let word_bits = 63

  let create n m =
    let words = Bits.words_for ~bits:word_bits m in
    { n; m; words = max 1 words; rows = Column.make (n * max 1 words) 0 }

  let dims t = (t.n, t.m)

  let get t i j =
    Column.get t.rows ((i * t.words) + (j / word_bits))
    land (1 lsl (j mod word_bits))
    <> 0

  let set t i j v =
    let idx = (i * t.words) + (j / word_bits) in
    let bit = 1 lsl (j mod word_bits) in
    if v then Column.set t.rows idx (Column.get t.rows idx lor bit)
    else Column.set t.rows idx (Column.get t.rows idx land lnot bit)

  let init n m f =
    let t = create n m in
    for i = 0 to n - 1 do
      for j = 0 to m - 1 do
        if f i j then set t i j true
      done
    done;
    t

  (* Adopt pre-packed rows (63 bits per word, LSB-first — the layout of
     [Ov.pack]).  Rows shorter than the full word count are zero-padded;
     bits at positions >= m must be clear in the input. *)
  let of_packed_rows ~m rows =
    let t = create (Array.length rows) m in
    Array.iteri
      (fun i r ->
        if Array.length r > t.words then
          invalid_arg "Matrix.Bool.of_packed_rows: row has too many words";
        Array.iteri (fun w x -> Column.set t.rows ((i * t.words) + w) x) r)
      rows;
    t

  let equal a b =
    a.n = b.n && a.m = b.m
    &&
    Column.equal a.rows b.rows

  (* Is every one of the n*m entries set?  Word-parallel: full words
     must be all-ones (lnot 0 over the 63-bit pattern), the last word
     of each row its m-dependent prefix mask. *)
  let all_set t =
    if t.n = 0 || t.m = 0 then true
    else begin
      let full = lnot 0 in
      let rem = t.m mod word_bits in
      let last_mask = if rem = 0 then full else (1 lsl rem) - 1 in
      let full_words = if rem = 0 then t.words else t.words - 1 in
      let ok = ref true in
      for i = 0 to t.n - 1 do
        let base = i * t.words in
        for w = 0 to full_words - 1 do
          if Column.unsafe_get t.rows (base + w) <> full then ok := false
        done;
        if rem <> 0 && Column.unsafe_get t.rows (base + t.words - 1) <> last_mask
        then ok := false
      done;
      !ok
    end

  (* --- multiplication kernels ---

     All four paths compute the same Boolean product
     c.(i) = OR over k with a(i,k) of b row k, word-parallel in the
     columns of b, and produce bit-identical outputs (property-tested).
     Each takes the execution resources as one [?ctx] (Exec.t); its
     [metrics] counts the OR'd words under "matmul.words" and M4R table
     builds under "matmul.table_builds". *)

  (* Naive per-bit loop: the small-case and oracle path. *)
  let mul_naive ?(ctx = Exec.default) a b =
    let { Exec.metrics; _ } = ctx in
    if a.m <> b.n then invalid_arg "Matrix.Bool.mul: dimension mismatch";
    let c = create a.n b.m in
    let words = ref 0 in
    for i = 0 to a.n - 1 do
      let crow = i * c.words in
      for k = 0 to a.m - 1 do
        if get a i k then begin
          let brow = k * b.words in
          for w = 0 to b.words - 1 do
            Column.unsafe_set c.rows (crow + w)
              (Column.unsafe_get c.rows (crow + w)
              lor Column.unsafe_get b.rows (brow + w))
          done;
          words := !words + b.words
        end
      done
    done;
    Metrics.add metrics "matmul.words" !words;
    c

  (* Cache-blocked word-scan: k runs in blocks of [k_block] columns
     (4 words of a, so blocks align on word boundaries), keeping the
     touched slice of b's rows resident in cache while every left row
     streams past; within a block the set bits of a's row are iterated
     word-wise via ctz instead of per-bit probing. *)
  let k_block_words = 4

  let k_block = k_block_words * word_bits (* 252 *)

  let mul_blocked ?(ctx = Exec.default) a b =
    let { Exec.pool; budget; metrics } = ctx in
    if a.m <> b.n then invalid_arg "Matrix.Bool.mul: dimension mismatch";
    let c = create a.n b.m in
    let cw = c.words in
    let nkb = (a.m + k_block - 1) / k_block in
    let nbands = bands a.n in
    let slots = Array.make (max 1 nbands) 0 in
    let band_rows kb band_idx =
      let wlo = kb * k_block_words in
      let whi = min a.words (wlo + k_block_words) in
      let ilo = band_idx * row_band in
      let ihi = min a.n (ilo + row_band) in
      let words = ref 0 in
      for i = ilo to ihi - 1 do
        let arow = i * a.words and crow = i * cw in
        for w = wlo to whi - 1 do
          let x = ref (Column.unsafe_get a.rows (arow + w)) in
          while !x <> 0 do
            let bit = !x land - !x in
            let k = (w * word_bits) + Bits.ctz bit in
            let brow = k * b.words in
            for v = 0 to cw - 1 do
              Column.unsafe_set c.rows (crow + v)
                (Column.unsafe_get c.rows (crow + v)
                lor Column.unsafe_get b.rows (brow + v))
            done;
            words := !words + cw;
            x := !x land lnot bit
          done
        done
      done;
      slots.(band_idx) <- slots.(band_idx) + !words
    in
    (match pool with
    | Some p when nbands > 1 ->
        tick_bands budget nkb;
        for kb = 0 to nkb - 1 do
          Pool.run p ~chunks:nbands (band_rows kb)
        done
    | _ ->
        for kb = 0 to nkb - 1 do
          tick_opt budget;
          for band_idx = 0 to nbands - 1 do
            band_rows kb band_idx
          done
        done);
    merge_slots metrics "matmul.words" slots;
    c

  (* --- Method of Four Russians ---

     Group the shared dimension into groups of [m4r_group] = 8 rows of
     b and precompute, per group, the 256 OR-combinations of those rows
     (Gray-style: entry e = entry (e land (e-1)) OR one row, so each
     entry costs one row-OR).  A left row then costs one table lookup
     and one row-OR per *group* — O(m/8) ORs instead of O(m) — at a
     table-build cost of 256 row-ORs per group, amortized over all
     left rows.  Groups are processed in strips of [m4r_strip_groups]
     so the live tables stay a few MB regardless of m; left-row bands
     within a strip are the Domain-parallel unit (tables are built
     before the parallel region and only read inside it). *)

  let m4r_group = 8

  let m4r_strip_groups = 64

  (* ctz over a byte, tabulated once: the table build consults it 255
     times per group. *)
  let byte_ctz =
    Array.init 256 (fun e -> if e = 0 then 0 else Bits.ctz e)

  let mul_m4r ?(ctx = Exec.default) a b =
    let { Exec.pool; budget; metrics } = ctx in
    if a.m <> b.n then invalid_arg "Matrix.Bool.mul: dimension mismatch";
    let c = create a.n b.m in
    let cw = c.words in
    (* b.words = cw: both span b.m columns *)
    let groups_total = (a.m + m4r_group - 1) / m4r_group in
    let nstrips = (groups_total + m4r_strip_groups - 1) / m4r_strip_groups in
    let nbands = bands a.n in
    let slots = Array.make (max 1 nbands) 0 in
    let table = Array.make (m4r_strip_groups * 256 * cw) 0 in
    (* word index / bit offset of each group's first column, so the row
       loop extracts bytes without dividing by 63 *)
    let gword = Array.make (max 1 m4r_strip_groups) 0 in
    let goff = Array.make (max 1 m4r_strip_groups) 0 in
    let table_builds = ref 0 in
    if pool <> None && nbands > 1 then tick_bands budget nstrips;
    for strip = 0 to nstrips - 1 do
      if pool = None || nbands <= 1 then tick_opt budget;
      let g0 = strip * m4r_strip_groups in
      let g1 = min groups_total (g0 + m4r_strip_groups) in
      (* build tables for groups g0..g1-1: entry e = entry (e land (e-1))
         OR row (lowest bit of e), one fused pass per entry *)
      for g = g0 to g1 - 1 do
        let k0 = g * m4r_group in
        gword.(g - g0) <- k0 / word_bits;
        goff.(g - g0) <- k0 mod word_bits;
        let base = (g - g0) * 256 * cw in
        Array.fill table base cw 0;
        for e = 1 to 255 do
          let parent = base + ((e land (e - 1)) * cw) in
          let dst = base + (e * cw) in
          let k = k0 + byte_ctz.(e) in
          if k < b.n then begin
            let brow = k * cw in
            for v = 0 to cw - 1 do
              table.(dst + v) <-
                table.(parent + v) lor Column.unsafe_get b.rows (brow + v)
            done
          end
          else Array.blit table parent table dst cw
        done;
        incr table_builds
      done;
      (* apply the strip's tables to every left row, band-parallel *)
      let band band_idx =
        let ilo = band_idx * row_band in
        let ihi = min a.n (ilo + row_band) in
        let words = ref 0 in
        for i = ilo to ihi - 1 do
          let arow = i * a.words and crow = i * cw in
          for g = g0 to g1 - 1 do
            let gi = g - g0 in
            let w = arow + gword.(gi) and off = goff.(gi) in
            let lo = Column.unsafe_get a.rows w lsr off in
            let e =
              (if off <= word_bits - m4r_group || w + 1 >= arow + a.words
               then lo
               else
                 lo lor (Column.unsafe_get a.rows (w + 1) lsl (word_bits - off)))
              land 0xff
            in
            if e <> 0 then begin
              let src = ((gi * 256) + e) * cw in
              for v = 0 to cw - 1 do
                Column.unsafe_set c.rows (crow + v)
                  (Column.unsafe_get c.rows (crow + v) lor table.(src + v))
              done;
              words := !words + cw
            end
          done
        done;
        slots.(band_idx) <- slots.(band_idx) + !words
      in
      match pool with
      | Some p when nbands > 1 -> Pool.run p ~chunks:nbands band
      | _ ->
          for band_idx = 0 to nbands - 1 do
            band band_idx
          done
    done;
    Metrics.add metrics "matmul.table_builds" !table_builds;
    merge_slots metrics "matmul.words" slots;
    c

  (* Size thresholds for the automatic dispatch: Four-Russians tables
     only pay for themselves once the shared dimension (and the number
     of left rows amortizing each strip) is large enough; in between,
     the blocked word-scan wins on locality; tiny products stay on the
     oracle loop.  The inner-dimension threshold matches the measured
     square-matrix crossover of the M1 sweep (between 256 and 512 on
     the reference container; see EXPERIMENTS.md). *)
  let m4r_min_inner = 384

  let m4r_min_rows = 96

  let blocked_min_inner = 64

  let mul ?(ctx = Exec.default) a b =
    if a.m >= m4r_min_inner && a.n >= m4r_min_rows then mul_m4r ~ctx a b
    else if a.m >= blocked_min_inner then mul_blocked ~ctx a b
    else begin
      tick_opt ctx.Exec.budget;
      mul_naive ~ctx a b
    end

  (* Int-valued product of 0/1 matrices via per-word popcount of
     row(a) AND row(b^T): entries are bounded by the shared dimension,
     so (unlike an [Int.mul] power chain) counting never overflows. *)
  let mul_count ?(ctx = Exec.default) a b =
    let { Exec.pool; budget; metrics } = ctx in
    if a.m <> b.n then invalid_arg "Matrix.Bool.mul_count: dimension mismatch";
    let bt =
      init b.m b.n (fun i j -> get b j i)
    in
    let c = Int.create a.n b.m in
    let nbands = bands a.n in
    let slots = Array.make (max 1 nbands) 0 in
    let band band_idx =
      let ilo = band_idx * row_band in
      let ihi = min a.n (ilo + row_band) in
      let words = ref 0 in
      for i = ilo to ihi - 1 do
        let arow = i * a.words in
        for j = 0 to b.m - 1 do
          let brow = j * bt.words in
          let s = ref 0 in
          for w = 0 to a.words - 1 do
            s :=
              !s
              + Bits.popcount
                  (Column.unsafe_get a.rows (arow + w)
                  land Column.unsafe_get bt.rows (brow + w))
          done;
          words := !words + a.words;
          Int.set c i j !s
        done
      done;
      slots.(band_idx) <- !words
    in
    (match pool with
    | Some p when nbands > 1 ->
        tick_bands budget nbands;
        Pool.run p ~chunks:nbands band
    | _ ->
        for band_idx = 0 to nbands - 1 do
          tick_opt budget;
          band band_idx
        done);
    merge_slots metrics "matmul.words" slots;
    c

  (* First (i, j) in row-major order with a.row(i) AND b.row(j) = 0 —
     equivalently, the first zero entry of the Boolean product A * B^T.
     This is the blocked Orthogonal Vectors kernel: bands of [row_band]
     left rows are scanned with early exit per band; under a [ctx] pool,
     bands run on domains and a band is skipped only once a
     lower-indexed band has already found a witness, so the returned
     pair is deterministic (always the row-major-first one).
     "matmul.words" under a pool depends on how much work the skip
     saves and is only deterministic on the sequential path. *)
  let find_orthogonal_rows ?(ctx = Exec.default) a b =
    let { Exec.pool; budget; metrics } = ctx in
    if a.m <> b.m then
      invalid_arg "Matrix.Bool.find_orthogonal_rows: column-count mismatch";
    let words = min a.words b.words in
    let scan_row i =
      (* first j with b.row(j) disjoint from a.row(i), else -1 *)
      let arow = i * a.words in
      let found = ref (-1) in
      let j = ref 0 in
      let scanned = ref 0 in
      while !found < 0 && !j < b.n do
        let brow = !j * b.words in
        let hit = ref false in
        let w = ref 0 in
        while (not !hit) && !w < words do
          if
            Column.unsafe_get a.rows (arow + !w)
            land Column.unsafe_get b.rows (brow + !w)
            <> 0
          then hit := true;
          incr w
        done;
        scanned := !scanned + !w;
        if not !hit then found := !j;
        incr j
      done;
      (!found, !scanned)
    in
    let nbands = bands a.n in
    match pool with
    | Some p when nbands > 1 ->
        tick_bands budget nbands;
        let results = Array.make nbands None in
        let slots = Array.make nbands 0 in
        let best = Atomic.make max_int in
        Pool.run p ~chunks:nbands (fun band_idx ->
            if Atomic.get best >= band_idx then begin
              let ilo = band_idx * row_band in
              let ihi = min a.n (ilo + row_band) in
              let words_here = ref 0 in
              let i = ref ilo in
              while results.(band_idx) = None && !i < ihi do
                let j, scanned = scan_row !i in
                words_here := !words_here + scanned;
                if j >= 0 then begin
                  results.(band_idx) <- Some (!i, j);
                  (* lower the skip threshold to this band *)
                  let rec lower () =
                    let cur = Atomic.get best in
                    if band_idx < cur
                       && not (Atomic.compare_and_set best cur band_idx)
                    then lower ()
                  in
                  lower ()
                end;
                incr i
              done;
              slots.(band_idx) <- !words_here
            end);
        merge_slots metrics "matmul.words" slots;
        let res = ref None in
        let band_idx = ref 0 in
        while !res = None && !band_idx < nbands do
          (match results.(!band_idx) with Some _ as r -> res := r | None -> ());
          incr band_idx
        done;
        !res
    | _ ->
        let res = ref None in
        let total = ref 0 in
        let i = ref 0 in
        while !res = None && !i < a.n do
          if !i mod row_band = 0 then tick_opt budget;
          let j, scanned = scan_row !i in
          total := !total + scanned;
          if j >= 0 then res := Some (!i, j);
          incr i
        done;
        Metrics.add metrics "matmul.words" !total;
        !res

  (* Does there exist i with (a*b)(i,i) set, i.e. a common witness on the
     diagonal?  Early-exits without materializing the product. *)
  let mul_hits_diagonal a b =
    if a.m <> b.n then invalid_arg "Matrix.Bool.mul_hits_diagonal";
    let n = min a.n b.m in
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i < n do
      let k = ref 0 in
      while (not !found) && !k < a.m do
        if get a !i !k && get b !k !i then found := true;
        incr k
      done;
      incr i
    done;
    !found

  (* Row i as a bit-row slice accessor for intersection tests. *)
  let rows_intersect t i1 i2 =
    let r1 = i1 * t.words and r2 = i2 * t.words in
    let hit = ref false in
    for w = 0 to t.words - 1 do
      if
        Column.unsafe_get t.rows (r1 + w) land Column.unsafe_get t.rows (r2 + w)
        <> 0
      then hit := true
    done;
    !hit

  (* Word-wise set-bit iteration beats per-entry probing on sparse
     inputs; output bits are set with plain [set] (transpose is never
     the hot kernel). *)
  let transpose t =
    let r = create t.m t.n in
    for i = 0 to t.n - 1 do
      let base = i * t.words in
      for w = 0 to t.words - 1 do
        let x = ref (Column.unsafe_get t.rows (base + w)) in
        while !x <> 0 do
          let bit = !x land - !x in
          set r ((w * word_bits) + Bits.ctz bit) i true;
          x := !x land lnot bit
        done
      done
    done;
    r
end
