"""The benchmark's order statistics and span arithmetic."""

import math
import random

import pytest

from bench import stats


@pytest.mark.parametrize("n", [11, 12, 19, 20, 37, 99, 100, 101, 250, 1000])
def test_tail_keeps_ten_samples_beyond(n):
    rng = random.Random(n)
    values = [rng.random() for _ in range(n)]
    _, v = stats.tail_percentile(values)
    beyond = sum(x > v for x in values)
    assert beyond >= stats.TAIL_BEYOND
    # the highest such sample: p90 from 100 samples, else exactly ten beyond
    assert beyond == (n - math.ceil(0.9 * n) if n >= 100 else stats.TAIL_BEYOND)


def test_tail_is_p90_from_100_samples():
    assert stats.tail_percentile(list(range(1, 201))) == (90, 180)
    assert stats.tail_percentile(list(range(1, 101))) == (90, 90)
    assert stats.tail_percentile(list(range(1, 51))) == (80, 40)


def test_tail_of_runs_with_ten_samples_or_fewer_is_the_median():
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0)
    assert stats.tail_percentile(list(range(10))) == (50, 4.5)
    assert stats.tail_percentile(list(range(11))) == (9, 0)


def test_self_times_subtract_direct_children_only():
    # root [0, 100] > a [10, 40] > b [20, 30]; root > c [50, 90]
    parent = [-1, 0, 1, 0]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    assert stats.self_times(parent, start, end) == [30, 20, 10, 40]


def test_per_name_aggregates_calls_and_seconds():
    names = ["root", "leaf"]
    got = stats.per_name(names, [0, 1, 1], [-1, 0, 0], [0, 10, 30], [100_000_000, 20, 45])
    assert got["leaf"] == (2, 25e-9)
    assert got["root"][0] == 1


def test_set_up_time_is_scaled_by_the_probes_around_it(monkeypatch):
    from bench import worker

    probes = iter([3 * worker.PROBE_REF_S, worker.PROBE_REF_S])
    monkeypatch.setattr(worker, "speed_probe", lambda: next(probes))
    monkeypatch.setattr(worker, "setup", lambda wl, ids: ({}, 0.8))
    # a core at half the reference speed on average: 0.8 s is 0.4 reference seconds
    assert worker.scaled_setup(worker.WORKLOADS["cli_specs"]) == ({}, pytest.approx(0.4))
