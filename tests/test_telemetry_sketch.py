"""Property tests for the deterministic quantile sketch.

The accuracy contract (documented in :mod:`repro.telemetry.sketch`):
``quantile(q)`` is within relative error ``alpha`` of the exact
rank-``floor(q * (n - 1))`` order statistic (numpy ``method="lower"``),
or within absolute error ``min_value`` for near-zero statistics; and
``merge`` is exactly consistent with sketching the concatenated stream.
"""

import numpy as np
import pytest

from repro.telemetry.sketch import QuantileSketch

ALPHA = 0.01
QS = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]


def _distribution(case: int) -> np.ndarray:
    """50 seeded distributions: sizes 1..10k, constant, uniform,
    heavy-tailed (lognormal/pareto), signed, and bimodal extremes."""
    rng = np.random.default_rng(1000 + case)
    size = int(rng.integers(1, 10001))
    kind = case % 6
    if kind == 0:  # constant (degenerate)
        return np.full(size, float(rng.uniform(1e-9, 1e3)))
    if kind == 1:  # uniform positives
        return rng.uniform(1e-6, 1.0, size)
    if kind == 2:  # heavy-tailed, many orders of magnitude
        return rng.lognormal(0.0, 4.0, size)
    if kind == 3:  # pareto tail
        return rng.pareto(1.1, size) + 1e-9
    if kind == 4:  # signed values exercise the negative bucket map
        return rng.normal(0.0, 100.0, size)
    # bimodal: microseconds next to megaseconds, plus exact zeros
    half = size // 2
    arr = np.concatenate(
        [rng.uniform(0, 1e-3, size - half), rng.uniform(1e2, 1e6, half)]
    )
    if size >= 3:
        arr[0] = 0.0
    rng.shuffle(arr)
    return arr


@pytest.mark.parametrize("case", range(50))
def test_quantile_within_documented_bounds(case):
    values = _distribution(case)
    sketch = QuantileSketch(alpha=ALPHA)
    for v in values:
        sketch.add(float(v))
    assert sketch.count == len(values)
    assert sketch.min == float(np.min(values))
    assert sketch.max == float(np.max(values))
    for q in QS:
        exact = float(np.percentile(values, q * 100.0, method="lower"))
        got = sketch.quantile(q)
        bound = ALPHA * abs(exact) + sketch.min_value
        assert abs(got - exact) <= bound, (
            f"case {case}: q={q} got={got!r} exact={exact!r} bound={bound!r}"
        )


@pytest.mark.parametrize("case", range(50))
def test_quantile_extremes_are_exact(case):
    values = _distribution(case)
    sketch = QuantileSketch(alpha=ALPHA)
    sketch.extend(float(v) for v in values)
    assert sketch.quantile(0.0) == float(np.min(values))
    assert sketch.quantile(1.0) == float(np.max(values))


@pytest.mark.parametrize("case", range(10))
def test_merge_consistent_with_concatenation(case):
    a = _distribution(2 * case)
    b = _distribution(2 * case + 1)
    merged = QuantileSketch(alpha=ALPHA).extend(map(float, a))
    merged.merge(QuantileSketch(alpha=ALPHA).extend(map(float, b)))
    concatenated = QuantileSketch(alpha=ALPHA).extend(
        map(float, np.concatenate([a, b]))
    )
    # Identical canonical state => identical quantiles, by construction.
    assert merged == concatenated
    assert merged.state() == concatenated.state()
    for q in QS:
        assert merged.quantile(q) == concatenated.quantile(q)
    # total may differ only by summation-order roundoff
    assert merged.total == pytest.approx(concatenated.total, rel=1e-9)


def test_weighted_add_equals_repeats():
    a = QuantileSketch().add(3.5, weight=4).add(-2.0, weight=2)
    b = QuantileSketch()
    for _ in range(4):
        b.add(3.5)
    for _ in range(2):
        b.add(-2.0)
    assert a == b


def test_zero_bucket_and_signs():
    sketch = QuantileSketch()
    sketch.extend([-10.0, -1.0, 0.0, 1e-15, 2.0])
    assert sketch.count == 5
    # rank floor(0.5 * 4) = 2 -> the exact 0.0
    assert sketch.quantile(0.5) == 0.0
    assert sketch.quantile(0.0) == -10.0
    assert sketch.quantile(1.0) == 2.0


def test_error_cases():
    sketch = QuantileSketch()
    with pytest.raises(ValueError):
        sketch.quantile(0.5)  # empty
    sketch.add(1.0)
    with pytest.raises(ValueError):
        sketch.quantile(1.5)
    with pytest.raises(ValueError):
        sketch.add(float("nan"))
    with pytest.raises(ValueError):
        sketch.add(1.0, weight=0)
    with pytest.raises(ValueError):
        QuantileSketch(alpha=1.0)
    with pytest.raises(ValueError):
        sketch.merge(QuantileSketch(alpha=0.02))


def test_determinism_same_stream_same_state():
    values = _distribution(7)
    a = QuantileSketch().extend(map(float, values))
    b = QuantileSketch().extend(map(float, values))
    assert a == b
    assert a.quantiles(QS) == b.quantiles(QS)


# ---------------------------------------------------------------------------
# Histogram = fixed buckets + the sketch; the two must never disagree
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_histogram_rejects_what_the_sketch_cannot_hold_without_touching_its_state(bad):
    from repro.telemetry.metrics import Histogram

    hist = Histogram("transit")
    hist.observe(2e-6)
    before = (list(hist.bucket_counts), hist.count, hist.total, hist.sketch.state())
    with pytest.raises((ValueError, OverflowError)):
        hist.observe(bad)
    assert (list(hist.bucket_counts), hist.count, hist.total, hist.sketch.state()) == before
    assert sum(hist.bucket_counts) == hist.count == 1


def test_histogram_buckets_match_a_linear_scan():
    """``bounds`` are inclusive upper limits: a value lands in the first
    bucket whose bound is >= it, past the last one in ``+inf``."""
    from repro.telemetry.metrics import DEFAULT_BUCKETS, Histogram

    def scan(bounds, value):
        for i, bound in enumerate(bounds):
            if value <= bound:
                return i
        return len(bounds)

    rng = np.random.default_rng(11)
    values = [float(v) for v in 10.0 ** rng.uniform(-8, 5, size=400)]
    values += list(DEFAULT_BUCKETS) + [0.0, -1.0, -1e9, 1e300, 1e-6 * (1 + 1e-12)]
    for bounds in (DEFAULT_BUCKETS, (1.0,), (0.5, 2.0, 8.0)):
        hist = Histogram("h", buckets=bounds)
        want = [0] * (len(bounds) + 1)
        for v in values:
            hist.observe(v)
            want[scan(bounds, v)] += 1
        assert hist.bucket_counts == want
        assert sum(hist.bucket_counts) == hist.count == len(values)


@pytest.mark.parametrize("case", range(0, 50, 3))
def test_histogram_observe_is_the_sketch_add_it_spells_out(case):
    """``Histogram.observe`` folds the common case of ``QuantileSketch.add``
    inline (a positive value into a non-empty sketch): after any stream the
    histogram's sketch is the one ``add`` builds, ``total`` to the bit."""
    from repro.telemetry.metrics import Histogram

    values = [float(v) for v in _distribution(case)] + [1e-12, 5e-13, 0.0]
    hist, sketch = Histogram("h"), QuantileSketch()
    for v in values:
        hist.observe(v)
        sketch.add(v)
        assert hist.sketch.total == sketch.total
    assert hist.sketch == sketch
    assert (hist.count, hist.min, hist.max) == (sketch.count, sketch.min, sketch.max)


#: Every way to read a histogram, floats as their exact repr.
_HISTOGRAM_READS = {
    "snapshot": lambda h: repr(sorted(h.snapshot().items())),
    "count": lambda h: h.count,
    "total": lambda h: repr(h.total),
    "min": lambda h: repr(h.min),
    "max": lambda h: repr(h.max),
    "mean": lambda h: repr(h.mean),
    "quantile": lambda h: repr(h.quantile(0.5)),
    "sketch": lambda h: h.sketch.state(),
    "bucket_counts": lambda h: list(h.bucket_counts),
}


@pytest.mark.parametrize("read", sorted(_HISTOGRAM_READS))
@pytest.mark.parametrize("first", [3e-6, 0.0, -2.5, 1e-13])
def test_batched_observe_reads_as_observing_one_value_at_a_time(read, first):
    """``observe`` buffers and folds ``OBSERVE_BATCH`` values at a time;
    each read — snapshot, count, total, extremes, mean, quantile,
    sketch, buckets — must be bit for bit what the per-value ``observe``
    of ``tests/oracles/histogram_per_value.py`` builds. The stream
    crosses two batch boundaries in positives alone, then mixes in
    zeros, negatives and values under the sketch's ``min_value`` (which
    take ``QuantileSketch.add`` and fold what is buffered first);
    ``first`` picks the path of the very first value. Only the one read
    is made, at a few points: every read folds, so reading after each
    value, or reading something else first, would hide a read that
    forgets to."""
    from repro.telemetry.metrics import OBSERVE_BATCH, Histogram
    from tests.oracles.histogram_per_value import Histogram as PerValue

    rng = np.random.default_rng(7)
    values = [first] + [float(v) for v in rng.lognormal(-9.0, 4.0, 3 * OBSERVE_BATCH)]
    odd = [0.0, 5e-13, -3e-14] + [-float(v) for v in rng.lognormal(-2.0, 2.0, 37)]
    for at, value in zip(rng.integers(2 * OBSERVE_BATCH, len(values), len(odd)), odd):
        values.insert(int(at), value)
    points = {1, OBSERVE_BATCH - 1, OBSERVE_BATCH + 7, 2 * OBSERVE_BATCH + 40, len(values)}
    batched, per_value = Histogram("h"), PerValue("h")
    for n, value in enumerate(values, 1):
        batched.observe(value)
        per_value.observe(value)
        if n in points:
            assert _HISTOGRAM_READS[read](batched) == _HISTOGRAM_READS[read](per_value), n
