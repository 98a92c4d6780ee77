(** Theorem premise diagnostics.

    The paper's guarantees are conditional: Theorem 3 needs [Δ ≥ n^{2/3}]
    (and near-regularity), Theorem 2 additionally needs spectral expansion
    [λ ≤ o(n^{1/3+2ε})] — equivalently [λ = o(Δ²/n)] when [Δ = n^{2/3+ε}].
    These checkers {e measure} the premises on a concrete input so that the
    CLI and harness can flag out-of-regime runs instead of silently reporting
    meaningless stretches. *)

type t = {
  n : int;
  delta : int;  (** max degree *)
  regular : bool;  (** exactly regular (near-regularity is reported via ratio) *)
  degree_ratio : float;  (** max degree / max(1, min degree) *)
  min_delta : float;  (** the [n^{2/3}] threshold *)
  delta_ok : bool;  (** [Δ ≥ n^{2/3}] *)
  lambda : float;  (** measured spectral expansion (Lanczos) *)
  lambda_budget : float;  (** [Δ²/n] — the Theorem 2 expansion allowance *)
  expander_ok : bool;  (** [λ ≤ Δ²/(2n)]: safely inside the o(·) regime *)
  weighted : bool;  (** some edge weighs [<> 1] ({!Graph.is_weighted}) *)
}

val check : Graph.t -> t
(** Measure all premises (runs the Lanczos estimator). *)

val theorem3_ok : t -> bool
(** Premises of Theorem 3 / Algorithm 1: density and near-regularity
    (degree ratio ≤ 2, the paper's footnote-1 regime). *)

val theorem2_ok : t -> bool
(** Premises of Theorem 2: {!theorem3_ok} plus measured expansion within the
    allowance, on an unweighted graph (the theorem is stated for unweighted
    expanders, and its sampler and router count hops). *)

type requirement = Any | Expander | Theorem3 | Theorem2
(** The premise a construction assumes of its input: nothing, measured
    spectral expansion, the Theorem 3 density/regularity regime, or the full
    Theorem 2 regime.  The construction registry ({!Construction}) stores one
    of these per entry so that every consumer checks premises the same way. *)

val requirement_text : requirement -> string
(** One-line human description of the requirement (registry listings). *)

val satisfied : requirement -> t -> bool
(** Whether the measured premises meet the requirement ([Any] always does). *)

val violations : requirement -> t -> string list
(** The warnings relevant to this requirement (empty when {!satisfied}). *)

val describe : t -> string list
(** Human-readable warnings against the strongest (Theorem 2) requirement —
    [violations Theorem2]. *)
