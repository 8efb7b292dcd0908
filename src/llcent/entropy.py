"""The two algebraic-entropy engines and their derived quantities.

Relative entropy H(phi, U) is the eventual value of the non-increasing
increment sequence dim(T_{n+1}/T_n) of the partial trajectory chain
T_1 = U, T_{n+1} = U + phi(T_n).  The trajectory engine iterates that
chain directly.  For topological automorphisms the limit-free engine
instead grows U^(0) = U, U^(m+1) = U + phi^{-1} U^(m) and reads the
single codimension dim(U^(m+1) / phi^{-1} U^(m)), which equals H(phi, U)
once the chain stabilizes.

Stationarity is guaranteed but without an effective bound, so results
carry a status:

* ``EXACT``       - a genuine chain fixed point (or a closed form);
* ``PLATEAU``     - the last `plateau_streak` increments agreed;
* ``LOWER_BOUND`` - an iteration cap was hit first.

Total entropy is the supremum of H(phi, C_m) over the cofinal chain
C_m of the profile; the sequence is non-decreasing in m, and the engine
stops on a plateau past the structural horizon n_hi + width.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field

from .errors import (
    EngineDisagreement,
    EngineInvariant,
    InfiniteField,
    InvalidOperator,
    NonConstantProfile,
    NotAnInverse,
    NotDiscreteProfile,
    ProfileMismatch,
)
from .fields import PrimeField
from .operators import (
    BandedOperator,
    automorphism_image,
    image_mod_tail,
    image_rows_mod_tail,
    validate,
    verify_inverse,
)
from .spaces import CompactOpenSubspace, Profile, cofinal_chain, open_combine, open_quotient_dim


class Status(enum.Enum):
    EXACT = "Exact"
    PLATEAU = "PlateauDetected"
    LOWER_BOUND = "LowerBound"


@dataclass(frozen=True)
class EntropyConfig:
    plateau_streak: int = 3
    max_trajectory_steps: int = 64
    max_chain_index: int = 24
    strict: bool = False

    def __post_init__(self):
        if self.plateau_streak < 1:
            raise ValueError("plateau_streak must be >= 1")
        if self.max_trajectory_steps < 1:
            raise ValueError("max_trajectory_steps must be >= 1")
        if self.max_chain_index < 0:
            raise ValueError("max_chain_index must be >= 0")


DEFAULT_CONFIG = EntropyConfig()


@dataclass(frozen=True)
class EntropyResult:
    value: int
    status: Status
    certificate: tuple
    witness: object = None
    iterations: int = 0

    def reliable(self) -> bool:
        return self.status is not Status.LOWER_BOUND


def _check_op(op: BandedOperator):
    violations = validate(op)
    if violations:
        raise InvalidOperator(violations)


def _plateaued(seq, streak, horizon: int = 0) -> bool:
    """Last `streak` entries equal, with the window starting past `horizon`."""
    if len(seq) < streak or len(seq) - streak + 1 < horizon:
        return False
    return len(set(seq[-streak:])) == 1


def _structural_horizon(op: BandedOperator, u: CompactOpenSubspace) -> int:
    """Minimum step count before an increment plateau is trusted.

    There is no proven bound on when the increment sequence goes
    stationary, but transients are driven by the operator's explicit
    boundary region, the subspace window, and the per-step dimension
    budget d*(2w+1) of the band.  Empirically (randomized calibration
    against long-run ground truth over the supported instance class)
    late drops occur within the sum of these three spans; plateaus that
    start earlier are not accepted.  The status system keeps this honest:
    PlateauDetected never claims to be a proof.
    """
    p = op.profile
    d_max = max([p.d_left, p.d_right, *p.boundary])
    span_u = u.top - u.tail
    span_b = op.b_hi - op.b_lo + 1
    return span_u + span_b + d_max * (2 * op.width + 1)


def _trajectory_step(op, u, t):
    """One chain step U + op(T) mod the tail of U, in a single elimination.

    Reference implementation over canonical subspaces; the iterating
    engines use the incremental loop below, which is tested against this.
    """
    import numpy as np

    from .spaces import _padded_window_rows

    rows, top = image_rows_mod_tail(op, t, u.tail)
    b = max(top, u.top, u.tail)
    f = op.profile.field
    total = op.profile.window_dim(u.tail, b)
    img_wide = f.zeros(rows.shape[0], total)
    if rows.shape[0]:
        img_wide[:, : rows.shape[1]] = rows
    stacked = np.concatenate([_padded_window_rows(u, u.tail, b), img_wide], axis=0)
    return CompactOpenSubspace.from_rows(op.profile, u.tail, stacked, b)


def _trim_rows(profile, rows, a, top):
    """Drop trailing all-zero levels of a row block over (a, top]."""
    import numpy as np

    while top > a:
        d = profile.dim(top)
        if d == 0:
            top -= 1
            continue
        if rows.shape[0] and bool(np.any(rows[:, rows.shape[1] - d :] != 0)):
            break
        rows = rows[:, : rows.shape[1] - d]
        top -= 1
    return rows, top


def _rows_image(op, rows, lo, top, a):
    """Images of window rows over (lo, top] modulo U_a; returns (rows, top).

    The images are over (a, top + width], the band's reach; they come
    from the banded block application, which never forms the dense
    action matrix.  With no rows or an empty window there is nothing to
    map, and the empty result sits at the tail a.
    """
    from .operators import _apply_action

    f = op.profile.field
    if rows.shape[0] == 0 or top <= lo:
        return f.zeros(0, 0), a
    return _apply_action(op, rows, lo, top, a, top + op.width), top + op.width


def _incremental_trajectory(op, u, cfg, horizon, on_step=None):
    """Shared fast loop: T_{n+1} = T_n + op(new part of T_n), tail pinned.

    Keeps the chain as one growing reduced basis over (tail(U), top];
    each step reduces only the freshly produced image rows.  Increments
    are rank deltas, which equal the canonical codimensions because the
    chain members nest over a common tail.
    """
    from .linalg import pad_basis_columns, rref_union

    p = op.profile
    f = p.field
    a0 = u.tail
    basis, top = u.window, u.top
    delta, delta_top = image_rows_mod_tail(op, u, a0)
    increments: list = []
    for step in range(1, cfg.max_trajectory_steps + 1):
        delta, delta_top = _trim_rows(p, delta, a0, delta_top)
        b = max(top, delta_top)
        if b > top:
            basis = pad_basis_columns(basis, 0, p.window_dim(top, b))
            top = b
        if delta.shape[0] and delta_top < b:
            pad = f.zeros(delta.shape[0], p.window_dim(delta_top, b))
            import numpy as np

            delta = np.concatenate([delta, pad], axis=1)
        old_rank, old_piv = basis.rank, set(basis.pivots)
        basis = rref_union(basis, delta) if delta.shape[0] else basis
        alpha = basis.rank - old_rank
        if increments and alpha > increments[-1]:
            raise EngineInvariant(
                f"trajectory increments must be non-increasing, got {increments + [alpha]}"
            )
        increments.append(alpha)
        if on_step is not None:
            on_step(step, basis, top, alpha)
        if alpha == 0:
            return EntropyResult(0, Status.EXACT, tuple(increments), u, step)
        if _plateaued(increments, cfg.plateau_streak, horizon):
            return EntropyResult(alpha, Status.PLATEAU, tuple(increments), u, step)
        new_rows = basis.mat[[i for i, piv in enumerate(basis.pivots) if piv not in old_piv]]
        delta, delta_top = _rows_image(op, new_rows, a0, top, a0)
    return EntropyResult(increments[-1], Status.LOWER_BOUND, tuple(increments), u, cfg.max_trajectory_steps)


def trajectory_subspaces(op: BandedOperator, u: CompactOpenSubspace, count: int):
    """The partial trajectory chain T_1 = U, ..., T_count as subspaces."""
    chain = [u]
    for _ in range(count - 1):
        chain.append(_trajectory_step(op, u, chain[-1]))
    return chain


def trajectory_relative_entropy(
    op: BandedOperator, u: CompactOpenSubspace, cfg: EntropyConfig = DEFAULT_CONFIG
) -> EntropyResult:
    """H(phi, U) by direct trajectory iteration.

    The recorded increments dim(T_{n+1}/T_n) must be non-increasing; a
    violation is an engine bug and raises EngineInvariant.  A chain fixed
    point forces every later increment to vanish, hence status EXACT with
    value 0; otherwise the plateau (or cap) rules decide.
    """
    _check_op(op)
    if u.profile != op.profile:
        raise ProfileMismatch("subspace over a different profile")
    return _incremental_trajectory(op, u, cfg, _structural_horizon(op, u))


def inverse_trajectory_subspaces(
    op: BandedOperator, inverse: BandedOperator, u: CompactOpenSubspace, count: int
):
    """The chain U^(0) = U, U^(m+1) = U + phi^{-1} U^(m), for automorphisms."""
    chain = [u]
    for _ in range(count):
        img = automorphism_image(inverse, chain[-1], op.width)
        chain.append(open_combine(u, img, "sum"))
    return chain


def limit_free_relative_entropy(
    op: BandedOperator,
    inverse: BandedOperator,
    u: CompactOpenSubspace,
    cfg: EntropyConfig = DEFAULT_CONFIG,
) -> EntropyResult:
    """H(phi, U) via the limit-free codimension, for verified automorphisms.

    Tracks d_m = dim(U^(m+1) / phi^{-1} U^(m)); at a chain fixed point
    U^(m+1) = U^(m) the subspace is inversely invariant and d_m is the
    exact entropy value.
    """
    _check_op(op)
    _check_op(inverse)
    if u.profile != op.profile:
        raise ProfileMismatch("subspace over a different profile")
    if not verify_inverse(op, inverse):
        raise NotAnInverse("limit-free engine needs a verified inverse pair")
    import numpy as np

    from .linalg import SubspaceBasis, pad_basis_columns, rref_union
    from .operators import _image_rows_raw

    p = op.profile
    f = p.field
    drop = op.width  # the chain tail deepens by the forward band per step
    horizon = max(_structural_horizon(op, u), _structural_horizon(inverse, u))
    a = u.tail
    basis, top = u.window, u.top
    rank = basis.rank
    # first image uses the whole subspace; later steps only its new part
    delta, delta_top = image_rows_mod_tail(inverse, u, a - drop)
    dims: list = []
    stationary_c = None
    for step in range(1, cfg.max_trajectory_steps + 1):
        a_next = a - drop
        # codimension of U_{a_next} inside the image of the pure tail U_a.  Once
        # a < b_lo the tail maps by the stationary blocks alone, into the
        # constant-dimension region (validate), so c no longer depends on a.
        if stationary_c is not None:
            c = stationary_c
        else:
            tail_rows, tail_top = _image_rows_raw(inverse, a, f.zeros(0, 0), a, a_next)
            c = SubspaceBasis.span(
                f, tail_rows, ambient_dim=p.window_dim(a_next, tail_top)
            ).rank
            if a < inverse.b_lo:
                stationary_c = c
        # expand the chain member to the deeper tail and absorb the new rows
        t_dims = p.window_dim(a_next, a)
        expanded = pad_basis_columns(basis, t_dims, 0)
        units = f.zeros(t_dims, expanded.ambient_dim)
        for i in range(t_dims):
            units[i, i] = f.one
        merged = np.concatenate([units, expanded.mat], axis=0)
        basis = SubspaceBasis(
            f, expanded.ambient_dim, merged,
            tuple(range(t_dims)) + expanded.pivots,
        )
        delta, delta_top = _trim_rows(p, delta, a_next, delta_top)
        b = max(top, delta_top)
        if b > top:
            basis = pad_basis_columns(basis, 0, p.window_dim(top, b))
            top = b
        if delta.shape[0] and delta_top < b:
            delta = np.concatenate(
                [delta, f.zeros(delta.shape[0], p.window_dim(delta_top, b))], axis=1
            )
        old_piv = set(basis.pivots)
        basis = rref_union(basis, delta) if delta.shape[0] else basis
        a = a_next
        new_rank = basis.rank
        d = new_rank - (rank + c)
        if dims and d > dims[-1]:
            raise EngineInvariant(
                f"limit-free codimensions must be non-increasing, got {dims + [d]}"
            )
        dims.append(d)
        fixed = new_rank == rank + t_dims
        rank = new_rank
        if fixed:
            return EntropyResult(d, Status.EXACT, tuple(dims), u, step)
        if _plateaued(dims, cfg.plateau_streak, horizon):
            return EntropyResult(d, Status.PLATEAU, tuple(dims), u, step)
        new_rows = basis.mat[[i for i, piv in enumerate(basis.pivots) if piv not in old_piv]]
        delta, delta_top = _rows_image(inverse, new_rows, a, top, a - drop)
    return EntropyResult(dims[-1], Status.LOWER_BOUND, tuple(dims), u, cfg.max_trajectory_steps)


def relative_entropy_both(op, inverse, u, cfg=DEFAULT_CONFIG):
    """Run both engines on U and cross-assert their values."""
    r_traj = trajectory_relative_entropy(op, u, cfg)
    r_lf = limit_free_relative_entropy(op, inverse, u, cfg)
    if r_traj.reliable() and r_lf.reliable() and r_traj.value != r_lf.value:
        raise EngineDisagreement(
            f"trajectory {r_traj.value} vs limit-free {r_lf.value} on {u!r}"
        )
    return r_traj, r_lf


def total_entropy(
    op: BandedOperator,
    cfg: EntropyConfig = DEFAULT_CONFIG,
    inverse: BandedOperator = None,
    engine: str = None,
) -> EntropyResult:
    """ent(phi) = sup over the cofinal chain of H(phi, C_m).

    The H values are non-decreasing in m; the run stops once they plateau
    for `plateau_streak` indices starting past the structural horizon
    n_hi + width, or reports a lower bound at the chain cap.  With an
    inverse, each H is computed by both engines and cross-asserted
    (engine="both", the default when an inverse is supplied); engine may
    also name a single engine, "limitfree" requiring the inverse.
    """
    _check_op(op)
    if engine is None:
        engine = "both" if inverse is not None else "trajectory"
    if engine in ("both", "limitfree") and inverse is None:
        raise NotAnInverse("limit-free engine requires a verified inverse")
    profile = op.profile
    horizon = profile.n_hi + op.width
    values: list = []
    unreliable = False
    prev = None
    for m in range(cfg.max_chain_index + 1):
        cm = cofinal_chain(profile, m)
        if engine == "both":
            r_traj, r_lf = relative_entropy_both(op, inverse, cm, cfg)
            r = r_traj if r_traj.reliable() else r_lf
        elif engine == "limitfree":
            r = limit_free_relative_entropy(op, inverse, cm, cfg)
        else:
            r = trajectory_relative_entropy(op, cm, cfg)
        if prev is not None and prev.reliable() and r.reliable() and r.value < prev.value:
            raise EngineInvariant(
                f"chain entropies must be non-decreasing, got {values + [r.value]}"
            )
        values.append(r.value)
        unreliable = unreliable or not r.reliable()
        prev = r
        window_start = m - cfg.plateau_streak + 1
        if (
            not unreliable
            and _plateaued(values, cfg.plateau_streak)
            and window_start >= horizon
        ):
            first = values.index(values[-1])
            return EntropyResult(
                values[-1], Status.PLATEAU, tuple(values), cofinal_chain(profile, first), m + 1
            )
    best = max(values)
    first = values.index(best)
    return EntropyResult(
        best, Status.LOWER_BOUND, tuple(values), cofinal_chain(profile, first), len(values)
    )


def shift_closed_form(profile: Profile, direction: str, k: int) -> int:
    """ent of the k-th power of a Bernoulli shift: k * d for right, 0 for left."""
    if not profile.is_constant():
        raise NonConstantProfile("closed forms need a constant profile")
    if direction not in ("left", "right"):
        raise ValueError(f"unknown direction {direction!r}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if direction == "left" or k == 0:
        return 0
    return k * profile.d_left


def ent_dim_discrete(
    op: BandedOperator, f: CompactOpenSubspace, cfg: EntropyConfig = DEFAULT_CONFIG
) -> EntropyResult:
    """Entropy on a discrete space via absolute trajectory dimensions.

    On a profile that vanishes at levels <= 0 every tail is the zero
    space, so dim T_n is just the window rank and the increments can be
    read off absolutely; this is an independent route that must agree
    with the quotient-based trajectory engine on the same inputs.
    """
    _check_op(op)
    if not op.profile.is_discrete():
        raise NotDiscreteProfile("ent_dim needs a discrete profile (levels <= 0 empty)")
    if f.profile != op.profile:
        raise ProfileMismatch("subspace over a different profile")
    t = f
    horizon = _structural_horizon(op, f)
    increments: list = []
    for step in range(1, cfg.max_trajectory_steps + 1):
        t_next = _trajectory_step(op, f, t)
        alpha = t_next.window_rank() - t.window_rank()
        if increments and alpha > increments[-1]:
            raise EngineInvariant(
                f"dimension increments must be non-increasing, got {increments + [alpha]}"
            )
        increments.append(alpha)
        if t_next == t:
            return EntropyResult(0, Status.EXACT, tuple(increments), f, step)
        if _plateaued(increments, cfg.plateau_streak, horizon):
            return EntropyResult(alpha, Status.PLATEAU, tuple(increments), f, step)
        t = t_next
    return EntropyResult(increments[-1], Status.LOWER_BOUND, tuple(increments), f, cfg.max_trajectory_steps)


@dataclass(frozen=True)
class UnitEntropy:
    """ent scaled by log |GF(p)|: the exact pair and its float value."""

    ent: int
    p: int
    status: Status

    @property
    def value(self) -> float:
        return self.ent * math.log(self.p)

    @property
    def symbolic(self) -> str:
        return f"{self.ent}*log({self.p})"

    @property
    def decimal(self) -> str:
        return f"{self.value:.6f}"


def h_alg_value(r: EntropyResult, field) -> UnitEntropy:
    """Convert a dimension-counted entropy to group entropy over GF(p)."""
    if not isinstance(field, PrimeField):
        raise InfiniteField("unit conversion needs a finite field")
    return UnitEntropy(r.value, field.p, r.status)
