"""Reference chain constructions the engine tests compare against.

These build the trajectory and inverse-trajectory chains member by member
as canonical subspaces, and read the discrete entropy off absolute window
ranks.  They are deliberately slower and simpler than the incremental
engines in `llcent.entropy`, which are checked against them.
"""

import numpy as np

from llcent.entropy import (
    DEFAULT_CONFIG,
    EntropyConfig,
    EntropyResult,
    Status,
    _check_op,
    _plateaued,
    _structural_horizon,
)
from llcent.errors import EngineInvariant, NotDiscreteProfile, ProfileMismatch
from llcent.operators import BandedOperator, automorphism_image, image_rows_mod_tail
from llcent.spaces import CompactOpenSubspace, _padded_window_rows, open_combine


def _trajectory_step(op, u, t):
    """One chain step U + op(T) mod the tail of U, in a single elimination.

    Reference implementation over canonical subspaces; the engines grow
    their chains incrementally, and are tested against this.
    """
    rows, top = image_rows_mod_tail(op, t, u.tail)
    b = max(top, u.top, u.tail)
    f = op.profile.field
    total = op.profile.window_dim(u.tail, b)
    img_wide = f.zeros(rows.shape[0], total)
    if rows.shape[0]:
        img_wide[:, : rows.shape[1]] = rows
    stacked = np.concatenate([_padded_window_rows(u, u.tail, b), img_wide], axis=0)
    return CompactOpenSubspace.from_rows(op.profile, u.tail, stacked, b)


def trajectory_subspaces(op: BandedOperator, u: CompactOpenSubspace, count: int):
    """The partial trajectory chain T_1 = U, ..., T_count as subspaces."""
    chain = [u]
    for _ in range(count - 1):
        chain.append(_trajectory_step(op, u, chain[-1]))
    return chain


def inverse_trajectory_subspaces(
    op: BandedOperator, inverse: BandedOperator, u: CompactOpenSubspace, count: int
):
    """The chain U^(0) = U, U^(m+1) = U + phi^{-1} U^(m), for automorphisms."""
    chain = [u]
    for _ in range(count):
        img = automorphism_image(inverse, chain[-1], op.width)
        chain.append(open_combine(u, img, "sum"))
    return chain


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
