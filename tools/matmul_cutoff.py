"""Micro-benchmark behind fields.FLOAT_MIN_MAC: int64 loop vs float64 BLAS.

For GF(2) products of every shape m x k x n with sides in SIDES and
256 <= m k n < 65536 it times the direct int64 route, ``(a @ b) % p``,
against the float64 route, ``(a.astype(float64) @ b.astype(float64))
.astype(int64) % p`` (best of 5 repeats each).  It prints, per power-of-two
bin of the multiply-add count m k n, how many shapes each route won and the
median of int64 time over float time.  FLOAT_MIN_MAC is the lower edge of
the first bin from which the float route wins the majority of shapes in
every bin.  The conversions and the reduction cost the same for every p
that stays on the float route, so one cutoff serves them all.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/matmul_cutoff.py

(one BLAS thread, as the benchmark's workers run; about two minutes).
"""

import statistics
import timeit

import numpy as np

P = 2
SIDES = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)


def best_us(fn) -> float:
    n = 1
    while timeit.timeit(fn, number=n) < 0.005:
        n *= 2
    return min(timeit.repeat(fn, number=n, repeat=5)) / n * 1e6


def int64_route(a, b):
    return (a @ b) % P


def float_route(a, b):
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % P


def main():
    rng = np.random.default_rng(0)
    bins = {}  # lower edge of the mac bin -> [int64 time / float time]
    for m in SIDES:
        for k in SIDES:
            for n in SIDES:
                mac = m * k * n
                if not 256 <= mac < 65536:
                    continue
                a, b = rng.integers(0, P, (m, k)), rng.integers(0, P, (k, n))
                assert (int64_route(a, b) == float_route(a, b)).all()
                ratio = best_us(lambda: int64_route(a, b)) / best_us(lambda: float_route(a, b))
                bins.setdefault(1 << (mac.bit_length() - 1), []).append(ratio)
    print(f"{'mac bin':>15} {'shapes':>6} {'float won':>9} {'median int64/float':>19}")
    majority = {}
    for lo in sorted(bins, reverse=True):
        ratios = bins[lo]
        wins = sum(r > 1 for r in ratios)
        majority[lo] = 2 * wins > len(ratios)
        print(f"[{lo:5d}, {2 * lo:5d}) {len(ratios):6d} {wins:9d} {statistics.median(ratios):19.2f}")
    cutoff = None
    for lo in sorted(bins, reverse=True):
        if not majority[lo]:
            break
        cutoff = lo
    print("float route wins the majority from mac", cutoff)


if __name__ == "__main__":
    main()
