"""The recorder of tools/replay.py: every route recorded, results unchanged, bindings restored."""

import importlib.util
import os
import random

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "replay.py")
_spec = importlib.util.spec_from_file_location("replay", TOOL)
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)

import llcent.operators as operators  # noqa: E402
from llcent.entropy import total_entropy  # noqa: E402
from llcent.fields import PrimeField  # noqa: E402
from llcent.generators import levelwise_change_of_basis  # noqa: E402
from llcent.spaces import Profile  # noqa: E402


def entropy_with_inverse():
    """total_entropy of a conjugated shift over GF(3), with its inverse.

    The pair is built through the module attribute `operators.compose`,
    which is a binding site the recorder wraps."""
    profile = Profile.constant(PrimeField(3), 2)
    cob, cob_inv = levelwise_change_of_basis(random.Random(5), profile)
    op = operators.compose(operators.compose(cob, operators.make_shift(profile, "right")), cob_inv)
    inv = operators.compose(operators.compose(cob, operators.make_shift(profile, "left")), cob_inv)
    return total_entropy(op, inverse=inv)


def bindings():
    """{(module name, attribute): function} for every binding site of every target."""
    out = {}
    for name, module in replay.TARGETS.items():
        real = getattr(module, name)
        for site, attr in replay.binding_sites(real):
            out[(site.__name__, attr)] = real
    return out


def test_records_every_route_and_keeps_the_result():
    before = bindings()
    want = entropy_with_inverse()
    got = []
    calls = replay.recorded(lambda: got.append(entropy_with_inverse()))
    assert {name: len(c) > 0 for name, c in calls.items()} == dict.fromkeys(replay.TARGETS, True)
    assert got == [want]
    assert bindings() == before


def test_restores_every_binding_site_when_the_run_raises():
    before = bindings()

    def run():
        entropy_with_inverse()
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        replay.recorded(run)
    assert bindings() == before


def test_cold_replays_start_from_empty_operator_caches():
    calls = replay.recorded(entropy_with_inverse)["_grow_chain"]
    assert any(args[0]._stacks or args[0]._block is not None for args in calls)  # warm once recorded
    seen = []

    def probe(op, *rest):
        seen.append((op, not op._stacks and op._block is None and not op._tail_ranks and op._inverse is None))

    replay.cold_s(probe, calls)
    assert len(seen) == replay.REPEATS * len(calls) and all(cold for _, cold in seen)
    # operators shared between the recorded calls are shared within a copy
    first = seen[: len(calls)]
    assert len({id(op) for op, _ in first}) == len({id(args[0]) for args in calls})
