import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fallstream.errors import ConfigError, MissingLabel
from fallstream.ingest import Sample, SampleBatch
from fallstream.windowing import (
    WindowAssembler,
    WindowConfig,
    majority_label,
    window_starts,
)


def _samples(n, device="d", label="WAL", t0=0):
    return [Sample(device, t0 + i * 50, float(i), 9.8, 0.0, label)
            for i in range(n)]


def _assemble(samples, cfg=None):
    """Every window of a sample run and the partial-window drop count."""
    assembler = WindowAssembler(cfg or WindowConfig())
    windows = assembler.push(SampleBatch.from_samples(samples))
    return windows, assembler.finish()


def _labeled(codes):
    """The label column of a run of samples."""
    return list(codes)


class TestAssembly:
    def test_450_samples_two_windows_50_dropped(self):
        windows, dropped = _assemble(_samples(450))
        assert len(windows) == 2
        assert dropped == 50

    def test_exactly_one_full_window(self):
        windows, _ = _assemble(_samples(200))
        assert len(windows) == 1
        assert windows[0].t_ms.tolist() == [i * 50 for i in range(200)]

    def test_below_size_drops_everything(self):
        windows, dropped = _assemble(_samples(199))
        assert windows == []
        assert dropped == 199

    def test_window_interval_comes_from_samples(self):
        (win,), _ = _assemble(_samples(200, t0=1000))
        assert win.t_start == 1000
        assert win.t_end == 1000 + 199 * 50
        assert len(win.t_ms) == len(win.acc) == 200

    def test_sliding_windows_overlap(self):
        cfg = WindowConfig(size=4, stride=2)
        windows, _ = _assemble(_samples(10), cfg)
        assert len(windows) == 4  # floor((10-4)/2)+1
        assert [w.t_start for w in windows] == [0, 100, 200, 300]

    def test_devices_are_independent(self):
        stream = []
        for i in range(300):
            stream.append(Sample("a", i, 1.0, 2.0, 3.0, "WAL"))
            stream.append(Sample("b", i, 1.0, 2.0, 3.0, "JOG"))
        cfg = WindowConfig(size=200, stride=200)
        windows, _ = _assemble(stream, cfg)
        assert [w.device_id for w in windows] == ["a", "b"]

    def test_config_invariants(self):
        with pytest.raises(ConfigError):
            WindowConfig(size=10, stride=11)
        with pytest.raises(ConfigError):
            WindowConfig(size=10, stride=0)
        with pytest.raises(ConfigError):
            WindowConfig(size=0)

    @given(n=st.integers(0, 600), size=st.integers(1, 50),
           stride_frac=st.integers(1, 50))
    def test_window_count_formula(self, n, size, stride_frac):
        stride = min(stride_frac, size)
        cfg = WindowConfig(size=size, stride=stride)
        windows, _ = _assemble(_samples(n), cfg)
        expected = (n - size) // stride + 1 if n >= size else 0
        assert len(windows) == expected
        # each window begins where window_starts says, prepare's rule too
        assert [w.t_start // 50 for w in windows] == \
            list(window_starts(n, cfg))

    @given(n=st.integers(0, 600), size=st.integers(1, 50))
    def test_tumbling_windows_are_disjoint_and_ordered(self, n, size):
        cfg = WindowConfig(size=size, stride=size)
        windows, _ = _assemble(_samples(n), cfg)
        seen = [t for w in windows for t in w.t_ms.tolist()]
        assert len(seen) == len(set(seen))
        assert seen == sorted(seen)


def _window_key(w):
    return (w.device_id, w.t_ms.tolist(), w.acc.tolist())


def _pushed(samples, cfg, cut):
    """Window keys and pending count after pushing the samples ``cut`` at a
    time; a batch of one device carries one id, any other an index."""
    assembler = WindowAssembler(cfg)
    out = []
    for i in range(0, len(samples), cut):
        out += assembler.push(SampleBatch.from_samples(samples[i:i + cut]))
    return [_window_key(w) for w in out], assembler.pending()


def _reference(samples, cfg):
    """Window keys and pending count by brute force: each device's rows in
    arrival order cut with window_starts, the windows ordered by the
    arrival of their last samples."""
    arrivals = {}
    for i, s in enumerate(samples):
        arrivals.setdefault(s.device_id, []).append(i)
    windows, pending = [], 0
    for device, mine in arrivals.items():
        starts = window_starts(len(mine), cfg)
        for start in starts:
            run = [samples[i] for i in mine[start:start + cfg.size]]
            windows.append((mine[start + cfg.size - 1],
                            (device, [r.t_ms for r in run],
                             [[r.ax, r.ay, r.az] for r in run])))
        pending += len(mine) - len(starts) * cfg.stride
    return [key for _last, key in sorted(windows)], pending


class TestBatchedAssembly:
    @given(n=st.integers(0, 120), devices=st.integers(1, 4),
           size=st.integers(1, 12), stride_frac=st.integers(1, 12),
           cut=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @example(n=120, devices=1, size=7, stride_frac=3, cut=40, seed=0)
    @example(n=120, devices=3, size=7, stride_frac=3, cut=120, seed=0)
    def test_batches_equal_one_sample_at_a_time(self, n, devices, size,
                                                stride_frac, cut, seed):
        rng = np.random.default_rng(seed)
        cfg = WindowConfig(size=size, stride=min(stride_frac, size))
        owner = rng.integers(0, devices, n)
        samples = [Sample(f"d{owner[i]}", i, float(rng.normal()), 0.0, 1.0)
                   for i in range(n)]
        # same windows, in the order their last samples arrived, and the
        # same samples left pending, however the rows are cut into batches
        expected = _reference(samples, cfg)
        assert _pushed(samples, cfg, cut) == expected
        assert _pushed(samples, cfg, 1) == expected

    def test_one_row_per_device_per_batch(self):
        # a live chunk from many wearables: each batch carries about one
        # row of every device
        cfg = WindowConfig(size=8, stride=4)
        devices = [f"w{d:03d}" for d in range(300)]
        assembler = WindowAssembler(cfg)
        got = []
        for i in range(20):
            got += assembler.push(SampleBatch(
                devices, np.full(len(devices), i * 50, dtype=np.int64),
                np.column_stack((np.arange(len(devices), dtype=float),
                                 np.full(len(devices), float(i)),
                                 np.zeros(len(devices)))),
                device_index=np.arange(len(devices), dtype=np.uint32)))
        # windows end at rows 8, 12, 16 and 20 of every device, in order
        assert len(got) == 4 * len(devices)
        for k, w in enumerate(got):
            first = 4 * (k // len(devices))
            assert w.device_id == devices[k % len(devices)]
            assert w.t_ms.tolist() == [50 * j for j in range(first, first + 8)]
            assert w.acc[:, 1].tolist() == [float(j)
                                            for j in range(first, first + 8)]
            assert w.acc[:, 0].tolist() == [float(k % len(devices))] * 8
        assert assembler.pending() == 4 * len(devices)

    def test_idle_partial_devices_cost_memory_per_pending_sample(self):
        n = 50_000
        batch = SampleBatch(
            [f"dev{i:05d}" for i in range(n)],
            np.arange(n, dtype=np.int64),
            np.ones((n, 3)),
            device_index=np.arange(n, dtype=np.uint32),
        )
        assembler = WindowAssembler(WindowConfig())
        tracemalloc.start()
        try:
            assembler.push(batch)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert assembler.pending() == n
        assert held / n <= 1024, f"{held / n:.0f} bytes per idle device"


class TestMajorityLabel:
    def test_most_frequent_wins(self):
        assert majority_label(_labeled(["WAL"] * 120 + ["FOL"] * 80)) == "WAL"

    def test_unanimous(self):
        assert majority_label(_labeled(["FOL"] * 200)) == "FOL"

    def test_tie_prefers_fall(self):
        assert majority_label(_labeled(["WAL"] * 100 + ["FOL"] * 100)) == "FOL"

    def test_tie_between_fall_codes_is_lexicographic(self):
        assert majority_label(_labeled(["SDL", "FKL"])) == "FKL"

    def test_tie_between_adl_codes_is_lexicographic(self):
        assert majority_label(_labeled(["WAL", "JOG"])) == "JOG"

    def test_unlabeled_sample_is_an_error(self):
        codes = _labeled(["WAL", "WAL"])
        codes.append(None)
        with pytest.raises(MissingLabel):
            majority_label(codes)

    def test_empty_run_is_an_error(self):
        with pytest.raises(MissingLabel):
            majority_label([])

    @given(codes=st.lists(st.sampled_from(["WAL", "JOG", "FOL", "SDL", "STD"]),
                          min_size=1, max_size=60),
           seed=st.integers(0, 2**32 - 1))
    def test_permutation_invariant(self, codes, seed):
        import random
        shuffled = codes[:]
        random.Random(seed).shuffle(shuffled)
        assert majority_label(_labeled(codes)) == majority_label(_labeled(shuffled))
