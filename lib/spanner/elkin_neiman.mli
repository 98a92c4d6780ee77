(** Elkin–Neiman near-linear-time sparse spanner.

    The O(m)-expected-time construction of Elkin and Neiman ({e Efficient
    Algorithms for Constructing Very Sparse Spanners and Emulators},
    PAPERS.md): truncated-exponential radii, [k] rounds of discounted
    max-propagation over the CSR snapshot, and one counting-sort build of
    the kept edges.  This is the distance-only construction that pairs with
    the flat {!Csr} engine — the whole pipeline is flat array sweeps,
    so it runs at memory bandwidth on 10^6-node graphs. *)

type result = {
  spanner : Graph.t;  (** the [(2k-1)]-spanner *)
  removed : int;  (** edges of [g] dropped by the keep rule (pre-repair) *)
  repaired : int;  (** violating edges re-added by the repair pass *)
}

val build : ?k:int -> ?repair:bool -> Prng.t -> Graph.t -> result
(** [build ~k rng g] (default [k = 2]) computes a [(2k-1)]-spanner with
    expected [O(n^{1+1/k})] edges in [O(k·m)] time.  With [repair] (the
    default) a single {!Stretch.violations} pass re-adds every edge whose
    spanner detour exceeds [2k-1], making the stretch bound hold
    deterministically; pass [~repair:false] at million-node scale and
    certify on a sample instead (the [engine] bench block does).  Requires
    [k >= 1].  Deterministic given the generator state. *)
