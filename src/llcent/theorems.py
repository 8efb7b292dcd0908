"""Machine checks of the structural entropy laws on concrete instances.

Each check evaluates both sides of a law with the entropy engines and
returns a PropertyReport.  A Violated verdict is only ever issued when
every involved entropy status is reliable (Exact or PlateauDetected); a
LowerBound anywhere downgrades the verdict to Inconclusive, so a
violation always points at an implementation bug rather than at a
truncation artifact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .entropy import DEFAULT_CONFIG, total_entropy
from .errors import EngineInvariant, InvarianceFailure, NotAnInverse, ValidationError
from .operators import (
    BandedOperator,
    compose,
    decompose_vc_vd,
    direct_sum_operator,
    induce_on_subspace_and_quotient,
    power,
    verify_inverse,
)
from .spaces import (
    BlockwisePattern,
    blockwise_restrict_quotient,
    cofinal_chain,
)


class Verdict(enum.Enum):
    VERIFIED = "Verified"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class PropertyReport:
    name: str
    inputs: str
    sides: dict
    verdict: Verdict
    witness: str = ""


def _conclude(name, inputs, sides, holds, witness="") -> PropertyReport:
    witness = "" if holds else witness
    if any(not r.reliable() for r in sides.values()):
        return PropertyReport(name, inputs, sides, Verdict.INCONCLUSIVE, witness)
    verdict = Verdict.VERIFIED if holds else Verdict.VIOLATED
    return PropertyReport(name, inputs, sides, verdict, witness)


def _split_entropies(op, pattern, cfg, inverse):
    """ent of op, of its restriction to the pattern and of the induced quotient map.

    The pattern must be op-invariant (InvarianceFailure otherwise).  The
    inverse is restricted and induced too when it also leaves the pattern
    invariant, and each part keeps it only where the pair verifies.
    Returns (restricted, induced, sides).
    """
    restricted, induced = induce_on_subspace_and_quotient(op, pattern)
    inv_r = inv_q = None
    if inverse is not None:
        try:
            inv_r, inv_q = induce_on_subspace_and_quotient(inverse, pattern)
        except InvarianceFailure:
            pass
    if inv_r is not None and not verify_inverse(restricted, inv_r):
        inv_r = None
    if inv_q is not None and not verify_inverse(induced, inv_q):
        inv_q = None
    sides = {
        "ent": total_entropy(op, cfg, inverse),
        "ent_restricted": total_entropy(restricted, cfg, inv_r),
        "ent_quotient": total_entropy(induced, cfg, inv_q),
    }
    return restricted, induced, sides


def check_addition(
    op: BandedOperator,
    pattern: BlockwisePattern,
    cfg=DEFAULT_CONFIG,
    inverse: BandedOperator = None,
) -> PropertyReport:
    """ent(phi) = ent(phi restricted to W) + ent(induced map on V/W).

    Requires the pattern to be op-invariant (InvarianceFailure otherwise).
    Also cross-checks that restricting/quotienting the cofinal chain
    commutes with the pattern presentation.
    """
    restricted, induced, sides = _split_entropies(op, pattern, cfg, inverse)
    for m in range(0, 3):
        u_in_w, u_in_q = blockwise_restrict_quotient(pattern, cofinal_chain(op.profile, m))
        if u_in_w != cofinal_chain(restricted.profile, m):
            raise EngineInvariant("chain restriction mismatch")
        if u_in_q != cofinal_chain(induced.profile, m):
            raise EngineInvariant("chain quotient mismatch")
    total, part_w, part_q = sides["ent"], sides["ent_restricted"], sides["ent_quotient"]
    holds = total.value == part_w.value + part_q.value
    return _conclude(
        "addition",
        f"pattern levels [{pattern.m_lo},{pattern.m_hi}]",
        sides,
        holds,
        witness=f"{total.value} != {part_w.value} + {part_q.value}",
    )


def check_property(kind: str, cfg=DEFAULT_CONFIG, **inputs) -> PropertyReport:
    """Dispatch the remaining structural laws by name.

    Kinds: log_law, conjugation, weak_addition, monotonicity,
    dd_reduction, direct_limit.
    """
    if kind == "log_law":
        return _check_log_law(cfg, **inputs)
    if kind == "conjugation":
        return _check_conjugation(cfg, **inputs)
    if kind == "weak_addition":
        return _check_weak_addition(cfg, **inputs)
    if kind == "monotonicity":
        return _check_monotonicity(cfg, **inputs)
    if kind == "dd_reduction":
        return _check_dd_reduction(cfg, **inputs)
    if kind == "direct_limit":
        return _check_direct_limit(cfg, **inputs)
    raise ValueError(f"unknown property kind {kind!r}")


def _check_log_law(cfg, op, k, inverse=None):
    powered = power(op, k)
    pow_inverse = power(inverse, k) if inverse is not None else None
    lhs = total_entropy(powered, cfg, pow_inverse)
    # for k = 1 `power` hands back the operators themselves: one run serves both sides
    same = powered is op and pow_inverse is inverse
    base = lhs if same else total_entropy(op, cfg, inverse)
    sides = {"ent_power": lhs, "ent_base": base}
    holds = lhs.value == k * base.value
    return _conclude(
        "log_law", f"k={k}", sides, holds, witness=f"{lhs.value} != {k}*{base.value}"
    )


def _check_conjugation(cfg, op, conjugator, conjugator_inverse, inverse=None):
    if not verify_inverse(conjugator, conjugator_inverse):
        raise NotAnInverse("conjugator pair does not verify")
    conj = compose(compose(conjugator, op), conjugator_inverse)
    conj_inverse = (
        compose(compose(conjugator, inverse), conjugator_inverse)
        if inverse is not None
        else None
    )
    lhs = total_entropy(op, cfg, inverse)
    rhs = total_entropy(conj, cfg, conj_inverse)
    sides = {"ent": lhs, "ent_conjugated": rhs}
    return _conclude(
        "conjugation", "conjugation by a verified automorphism", sides,
        lhs.value == rhs.value, witness=f"{lhs.value} != {rhs.value}",
    )


def _check_weak_addition(cfg, op1, op2, inverse1=None, inverse2=None):
    product = direct_sum_operator(op1, op2)
    product_inverse = (
        direct_sum_operator(inverse1, inverse2)
        if inverse1 is not None and inverse2 is not None
        else None
    )
    both = total_entropy(product, cfg, product_inverse)
    e1 = total_entropy(op1, cfg, inverse1)
    e2 = total_entropy(op2, cfg, inverse2)
    sides = {"ent_product": both, "ent_first": e1, "ent_second": e2}
    holds = both.value == e1.value + e2.value
    return _conclude(
        "weak_addition", "levelwise product of two systems", sides, holds,
        witness=f"{both.value} != {e1.value} + {e2.value}",
    )


def _check_monotonicity(cfg, op, pattern, inverse=None):
    restricted, _, sides = _split_entropies(op, pattern, cfg, inverse)
    total, part_w, part_q = sides["ent"], sides["ent_restricted"], sides["ent_quotient"]
    holds = total.value >= part_w.value and total.value >= part_q.value
    witness = f"ent {total.value} below restriction {part_w.value} or quotient {part_q.value}"
    if restricted.profile.is_linearly_compact():
        # linearly compact invariant subspaces do not lower the quotient entropy
        holds = holds and total.value == part_q.value
        witness = f"linearly compact case: {total.value} != {part_q.value}"
    return _conclude("monotonicity", "restriction and quotient bounds", sides, holds, witness)


def _check_dd_reduction(cfg, op, inverse=None):
    dec = decompose_vc_vd(op)
    total = total_entropy(op, cfg, inverse)
    discrete = total_entropy(dec.phi_dd, cfg)
    sides = {"ent": total, "ent_discrete_corner": discrete}
    return _conclude(
        "dd_reduction", "reduction to the discrete corner", sides,
        total.value == discrete.value, witness=f"{total.value} != {discrete.value}",
    )


def _is_full_pattern(pattern: BlockwisePattern) -> bool:
    if pattern.left.rank != pattern.profile.d_left or pattern.right.rank != pattern.profile.d_right:
        return False
    return all(
        pattern.level_basis(n).rank == pattern.profile.dim(n)
        for n in range(pattern.m_lo, pattern.m_hi + 1)
    )


def _check_direct_limit(cfg, op, chain, inverse=None):
    """ent on a finite exhausting chain of invariant subspaces.

    The chain must end at the full space; ent(phi) then equals the
    maximum of the restricted entropies, and bounds each of them.
    """
    if not chain or not _is_full_pattern(chain[-1]):
        raise ValidationError(["the chain must exhaust the space (last pattern full)"])
    total = total_entropy(op, cfg, inverse)
    sides = {"ent": total}
    values = []
    for idx, pattern in enumerate(chain):
        restricted, _ = induce_on_subspace_and_quotient(op, pattern)
        r = total_entropy(restricted, cfg)
        sides[f"ent_stage_{idx}"] = r
        values.append(r.value)
    holds = all(v <= total.value for v in values) and total.value == max(values)
    return _conclude(
        "direct_limit", f"exhausting chain of {len(chain)} stages", sides, holds,
        witness=f"ent {total.value} vs stages {values}",
    )
