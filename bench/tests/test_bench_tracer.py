"""The outside-in tracer: binding sites, span nesting and restoration."""

import random
import time

import pytest

from bench import stats, use_checkout_sources
from bench.tracer import LAYERS, SOLVE, Tracer, binding_sites, traced_leftovers

use_checkout_sources()

import llcent  # noqa: E402
import llcent.cli  # noqa: E402
from llcent import entropy, fields, operators, spaces, theorems  # noqa: E402
from llcent.generators import random_automorphism  # noqa: E402


def _originals():
    out = {}
    for targets in LAYERS.values():
        for module_name, class_name, attr in targets:
            module = __import__(module_name, fromlist=["_"])
            owner = getattr(module, class_name) if class_name else module
            value = owner.__dict__[attr]
            out[(module_name, class_name, attr)] = value
            if class_name is None:
                for site, k in binding_sites(value):
                    out[(site.__name__, None, k)] = value
    return out


@pytest.fixture
def instance():
    rng = random.Random(3)
    profile = spaces.Profile.constant(fields.PrimeField(2), 1)
    return random_automorphism(rng, profile, max_width=1)


def _solve(op, inv):
    return theorems.check_property("log_law", entropy.EntropyConfig(), op=op, k=2, inverse=inv)


def test_every_binding_site_is_patched_and_restored(instance):
    before = _originals()
    tracer = Tracer()
    tracer.install()
    try:
        # names bound at module top in other modules see the wrapper too
        assert getattr(entropy.verify_inverse, "__bench_traced__", False)
        assert getattr(entropy.cofinal_chain, "__bench_traced__", False)
        assert getattr(theorems.total_entropy, "__bench_traced__", False)
        assert getattr(llcent.cli.total_entropy, "__bench_traced__", False)
        assert getattr(llcent.total_entropy, "__bench_traced__", False)
        assert traced_leftovers()
    finally:
        tracer.uninstall()
    assert traced_leftovers() == []
    after = _originals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert operators.compose is before[("llcent.operators", None, "compose")]


def test_traced_result_equals_untraced_and_counts_layers(instance):
    op, inv = instance
    plain = _solve(op, inv)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span():
            traced = _solve(op, inv)
    finally:
        tracer.uninstall()
    assert traced == plain
    names = tracer.names
    counted = {names[k] for k in tracer.name_id}
    assert {SOLVE, "theorems.check", "entropy.total", "entropy.limitfree", "operators.compose"} <= counted
    assert tracer.counters["entropy.total.chain_indices"] > 0


def test_self_times_are_never_negative_and_sum_within_wall(instance):
    op, inv = instance
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter_ns()
        for _ in range(2):
            with tracer.span():
                _solve(op, inv)
        wall = time.perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    selfs = stats.self_times(tracer.parent, tracer.start, tracer.end)
    assert len(selfs) > 100
    assert min(selfs) >= 0
    assert sum(selfs) <= wall


def test_uninstall_restores_after_an_exception():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            with tracer.span():
                spaces.cofinal_chain(spaces.Profile.constant(fields.PrimeField(2), 1), -1)
    finally:
        tracer.uninstall()
    assert traced_leftovers() == []
    assert tracer.end[0] >= tracer.start[0]
