"""Tests for the vectorized backend's memory layer: bit-packed tables,
the ``vec_memory_mb`` budget contract, and the bench RSS instrumentation.

The load-bearing properties:

* packing is lossless — every packed row decodes bit-for-bit to the
  samplers' draws, on both the sampler path (small ``n``) and the batched
  hash path (large ``n``);
* the budget knob changes *memory only* — an absurdly undersized budget
  must produce byte-identical results to the default;
* BENCH provenance carries each generation's measurement protocol
  (``repeats``) into the trajectory, so min-of-2 numbers are never read
  as min-of-5.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AERConfig
from repro.runner import run_aer_experiment
from repro.vec.bitpack import BitMatrix, bits_for, pack_rows, packed_width, unpack_rows
from repro.vec.tables import VecSamplerTables


# ----------------------------------------------------------------------
# bitpack primitives
# ----------------------------------------------------------------------
class TestBitpack:
    @pytest.mark.parametrize("bits", [1, 3, 7, 8, 11, 17, 20])
    def test_pack_unpack_roundtrip(self, bits):
        rng = np.random.default_rng(bits)
        values = rng.integers(0, 1 << bits, size=(100, 13), dtype=np.int64)
        packed = pack_rows(values, bits)
        assert packed.shape == (100, packed_width(13, bits))
        out = unpack_rows(packed, 13, bits, dtype=np.int64)
        assert (out == values).all()

    def test_roundtrip_extremes(self):
        bits = 10
        values = np.array([[0, (1 << bits) - 1, 1, (1 << bits) - 2]], dtype=np.int64)
        assert (unpack_rows(pack_rows(values, bits), 4, bits, np.int64) == values).all()

    def test_unpack_chunking_matches_whole(self):
        # roundtrip across the internal _UNPACK_STEP boundary
        import repro.vec.bitpack as bitpack

        rng = np.random.default_rng(0)
        rows = bitpack._UNPACK_STEP + 17
        values = rng.integers(0, 1 << 9, size=(rows, 5), dtype=np.int64)
        out = unpack_rows(pack_rows(values, 9), 5, 9, np.int64)
        assert (out == values).all()

    def test_bits_for(self):
        assert bits_for(1) == 1
        assert bits_for(2) == 1
        assert bits_for(1024) == 10
        assert bits_for(1025) == 11
        assert bits_for(1_000_000) == 20

    def test_pack_rows_never_widens_to_input_dtype(self):
        # regression: the packed transient must be uint8 bit planes, not a
        # (rows, d, bits) matrix at the input width (the n=10⁵ RSS spike)
        values = np.arange(12, dtype=np.int64).reshape(3, 4)
        packed = pack_rows(values, 4)
        assert packed.dtype == np.uint8
        assert (unpack_rows(packed, 4, 4, np.int64) == values).all()


class TestBitMatrix:
    def test_against_bool_reference(self):
        rng = np.random.default_rng(7)
        ref = rng.random((50, 19)) < 0.3
        bm = BitMatrix(50, 19)
        bm.set_rows(slice(0, 50), ref)
        assert (bm.rows_bool(np.arange(50)) == ref).all()

    def test_fill_and_scatter(self):
        bm = BitMatrix(8, 11)
        ref = np.zeros((8, 11), dtype=bool)
        bm.fill_rows(slice(2, 4))
        ref[2:4] = True
        rows_idx = np.array([0, 5, 5, 7, 0])  # duplicates must be fine
        cols_idx = np.array([10, 3, 3, 0, 10])
        bm.set_true(rows_idx, cols_idx)
        ref[rows_idx, cols_idx] = True
        assert (bm.rows_bool(np.arange(8)) == ref).all()


# ----------------------------------------------------------------------
# packed sampler tables decode bit-for-bit
# ----------------------------------------------------------------------
def _reference_rows(config, family, s, xs):
    suite = config.shared_samplers()
    sampler = suite.push if family == "I" else suite.pull
    quorum = sampler.table(s).quorum
    return np.asarray([quorum(int(x)) for x in xs], dtype=np.int64)


@pytest.mark.parametrize("use_numpy", [False, True])
def test_table_rows_match_samplers(use_numpy):
    # n below NUMPY_MIN_N so both paths are cheap; use_numpy=True forces the
    # hash path the engine uses at n >= 1024
    config = AERConfig.for_system(192, sampler_seed=3)
    tables = VecSamplerTables(config, use_numpy=use_numpy)
    xs = np.array([0, 1, 17, 191, 90])
    for family in ("I", "H"):
        for s in ("alpha", "beta"):
            got = tables.rows(family, s, xs)
            assert (got == _reference_rows(config, family, s, xs)).all()


@pytest.mark.parametrize("use_numpy", [False, True])
def test_poll_rows_match_samplers(use_numpy):
    config = AERConfig.for_system(192, sampler_seed=3)
    tables = VecSamplerTables(config, use_numpy=use_numpy)
    xs = [0, 5, 191, 5]
    labels = [9, 1, 7, 1]
    got = tables.poll_rows(xs, labels)
    raw = tables.poll_rows(xs, labels, cache=False)
    poll_list = config.shared_samplers().poll.poll_list
    expected = np.asarray([poll_list(x, r) for x, r in zip(xs, labels)])
    assert (got == expected).all()
    assert (raw == expected).all()


def test_rows_identical_across_cache_budgets():
    config = AERConfig.for_system(192, sampler_seed=0)
    xs = np.arange(192)
    starved = VecSamplerTables(config, use_numpy=True)
    starved.set_unpacked_budget(0)  # every gather decodes from packed bytes
    roomy = VecSamplerTables(config, use_numpy=True)
    roomy.set_unpacked_budget(1 << 30)  # everything promotes to the LRU
    for family, s in (("I", "alpha"), ("H", "alpha")):
        a = starved.rows(family, s, xs)
        b = roomy.rows(family, s, xs)
        assert (a == b).all()
    assert not starved._unpacked  # the starved provider cached nothing
    assert roomy._unpacked  # the roomy one promoted


def test_iter_rows_streams_the_full_table():
    config = AERConfig.for_system(192, sampler_seed=1)
    tables = VecSamplerTables(config, use_numpy=True)
    full = tables.full("H", "s")
    chunks = [rows for _, rows in tables.iter_rows("H", "s", 37)]
    assert (np.concatenate(chunks) == full).all()


def test_packed_tables_are_smaller_than_int32():
    config = AERConfig.for_system(2048, sampler_seed=0)
    tables = VecSamplerTables(config, use_numpy=True)
    tables.ensure_all("I", "s")
    int32_bytes = config.n * tables.size * 4
    # 11 bits/id at n=2048 vs 32: packed must be well under half the size
    assert tables.packed_nbytes() < int32_bytes / 2


# ----------------------------------------------------------------------
# the vec_memory_mb contract: budget changes memory, never results
# ----------------------------------------------------------------------
def _fingerprint(result):
    metrics = result.metrics_all
    return (
        result.rounds,
        int(metrics.total_messages),
        int(metrics.total_bits),
        tuple(sorted(result.decisions.items())) if hasattr(result, "decisions") else None,
    )


def test_undersized_budget_is_byte_identical():
    # 1 MB forces minimal chunks, a starved unpacked cache and maximal
    # streaming — and must still reproduce the default run exactly
    kwargs = dict(
        adversary_name="push_flood", seed=0, backend="vectorized",
        wrong_candidate_mode="common_wrong",
    )
    default = run_aer_experiment(2048, **kwargs)
    starved = run_aer_experiment(2048, vec_memory_mb=1, **kwargs)
    assert _fingerprint(default) == _fingerprint(starved)


def test_vec_memory_mb_rejected_on_message_backend():
    with pytest.raises(ValueError, match="vec_memory_mb"):
        run_aer_experiment(64, adversary_name="none", seed=0,
                           backend="message", vec_memory_mb=64)


def test_vec_memory_mb_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        run_aer_experiment(2048, adversary_name="none", seed=0,
                           backend="vectorized", vec_memory_mb=0)


def test_spec_params_plumb_the_budget():
    from repro.experiments.plan import ExperimentSpec

    base = ExperimentSpec(n=2048, adversary="none", mode="sync", seed=0,
                          wrong_candidate_mode="common_wrong",
                          backend="vectorized")
    budgeted = ExperimentSpec(n=2048, adversary="none", mode="sync", seed=0,
                              wrong_candidate_mode="common_wrong",
                              backend="vectorized",
                              params={"vec_memory_mb": 2})
    a, b = base.run(), budgeted.run()
    assert (a.total_messages, a.total_bits) == (b.total_messages, b.total_bits)


def test_spec_rejects_budget_on_message_backend():
    from repro.experiments.plan import ExperimentSpec

    spec = ExperimentSpec(n=64, adversary="none", mode="sync", seed=0,
                          params={"vec_memory_mb": 64})
    with pytest.raises(ValueError, match="vec_memory_mb"):
        spec.run()


# ----------------------------------------------------------------------
# bench instrumentation
# ----------------------------------------------------------------------
def test_trajectory_carries_repeats():
    from repro.experiments.bench import _previous_trajectory

    previous = {
        "git": {"commit": "abc1234"},
        "repeats": 2,
        "cases": [{"key": "sync:none:n512:s0", "seconds": 1.0}],
    }
    trajectory = _previous_trajectory(previous)
    assert trajectory["abc1234"]["repeats"] == 2
    # generations that predate the repeats key stay unlabelled, not guessed
    del previous["repeats"]
    assert "repeats" not in _previous_trajectory(previous)["abc1234"]


def test_report_repeats_reflect_flag():
    from repro.experiments.bench import build_report

    cases = [{"key": "sync:none:n512:s0", "n": 512, "seconds": 1.0}]
    report = build_report(cases=cases, repeats=2, commit="dead")
    assert report["repeats"] == 2
    assert "minimum of 2 runs" in report["description"]


def test_fixed_sweep_repeats_hash_tables_cold(monkeypatch):
    # every repeat of a vectorized case must pay the table hashing, or the
    # reported minimum is a warm-table time
    import repro.vec.tables as vec_tables
    from repro.experiments.bench import run_fixed_sweep
    from repro.experiments.plan import ExperimentSpec

    hashed_rows = []
    real_rows = vec_tables.first_distinct_rows

    def counting_rows(prefix, columns, *args, **kwargs):
        hashed_rows.append(len(columns[0]))
        return real_rows(prefix, columns, *args, **kwargs)

    marks = []
    real_run = ExperimentSpec.run

    def marking_run(self):
        marks.append(len(hashed_rows))
        return real_run(self)

    monkeypatch.setattr(vec_tables, "first_distinct_rows", counting_rows)
    monkeypatch.setattr(ExperimentSpec, "run", marking_run)
    spec = ExperimentSpec(n=1024, adversary="none", mode="sync", seed=0,
                          wrong_candidate_mode="common_wrong",
                          backend="vectorized")
    (case,) = run_fixed_sweep(repeats=2, specs=[spec])
    marks.append(len(hashed_rows))
    assert len(case["seconds_all"]) == 2
    first, second = (sum(hashed_rows[a:b]) for a, b in zip(marks, marks[1:]))
    assert first > 0 and second == first


def test_measure_peak_rss_smoke():
    from repro.experiments.bench import measure_peak_rss
    from repro.experiments.plan import ExperimentSpec

    spec = ExperimentSpec(n=1024, adversary="none", mode="sync", seed=0,
                          wrong_candidate_mode="common_wrong",
                          backend="vectorized")
    rss = measure_peak_rss(spec)
    assert rss is None or rss > 10.0  # None only where the child cannot run
