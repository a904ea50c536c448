import codecs
import contextlib
import dataclasses
import errno
import io
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fallstream import ingest
from fallstream.cli import main
from fallstream.errors import ConfigError, ParseError, UnknownActivity
from fallstream.ingest import (
    MAX_LINE_BYTES,
    MOBIACT_ACTIVITIES,
    READ_BYTES,
    STANDARD_GRAVITY_MS2,
    BinaryClass,
    ColumnMapping,
    Sample,
    SampleBatch,
    SocketSource,
    convert_adc_to_g,
    map_activity_to_class,
    parse_trial_file,
    parse_trial_path,
    parse_wire_block,
    parse_wire_line,
)
from fallstream.stream import (
    PipelineConfig,
    PipelineStats,
    ReplaySpec,
    run_pipeline,
)
from fallstream.synth import make_trial, write_trial_csv
from oracle import replay_source

BASIC = ColumnMapping(timestamp=0, ax=1, ay=2, az=3, label=4)


def _rows(batch: SampleBatch) -> list[Sample]:
    """A batch as Sample rows, for comparing with expected rows."""
    ids = batch.device_id
    ids = ([ids] * len(batch) if batch.device_index is None
           else [ids[i] for i in batch.device_index])
    labels = batch.labels or [None] * len(batch)
    return [Sample(d, int(t), float(x), float(y), float(z), c)
            for d, t, (x, y, z), c in zip(ids, batch.t_ms, batch.acc, labels)]


def _parse(data, mapping=BASIC):
    batch, report = parse_trial_file(data, mapping)
    return _rows(batch), report


class TestParseTrialFile:
    def test_direct_field_mapping(self):
        samples, report = _parse(b"1000,0.1,9.8,0.0,WAL\n", BASIC)
        assert samples == [Sample("trial", 1000, 0.1, 9.8, 0.0, "WAL")]
        assert report.rows == 1 and report.malformed == 0

    def test_non_finite_row_skipped(self):
        data = b"1000,0.1,NaN,0.0,WAL\n2000,0.1,9.8,0.0,WAL\n"
        samples, report = _parse(data, BASIC)
        assert len(samples) == 1
        assert report.malformed == 1

    def test_unparseable_row_skipped(self):
        samples, report = _parse(
            b"1000,0.1,what,0.0,WAL\n2000,1,2,3,WAL\n", BASIC)
        assert len(samples) == 1 and report.malformed == 1

    def test_empty_file(self):
        samples, report = _parse(b"", BASIC)
        assert samples == [] and report.rows == 0 and report.malformed == 0

    def test_mostly_malformed_is_fatal(self):
        data = b"a,b,c,d,e\nf,g,h,i,j\n1000,1,2,3,WAL\n"
        with pytest.raises(ParseError):
            parse_trial_file(data, BASIC)

    def test_not_utf8_is_fatal(self):
        with pytest.raises(ParseError):
            parse_trial_file(b"\xff\xfe\x00\x01", BASIC)

    def test_deterministic(self):
        data = b"1000,0.1,9.8,0.0,WAL\nbad row\n2000,0.2,9.7,0.1,JOG\n"
        assert _parse(data, BASIC) == _parse(data, BASIC)

    def test_timestamp_regressions_counted_not_fatal(self):
        data = b"2000,1,2,3,WAL\n1000,1,2,3,WAL\n3000,1,2,3,WAL\n"
        samples, report = _parse(data, BASIC)
        assert len(samples) == 3
        assert report.timestamp_regressions == 1

    def test_header_and_named_columns(self):
        mapping = ColumnMapping(timestamp="ts", ax="acc_x", ay="acc_y",
                                az="acc_z", label="label", header=True)
        data = b"ts,acc_x,acc_y,acc_z,label\n5,1.0,2.0,3.0,wal\n"
        samples, _ = _parse(data, mapping)
        assert samples == [Sample("trial", 5, 1.0, 2.0, 3.0, "WAL")]

    def test_g_unit_converts_to_ms2(self):
        mapping = ColumnMapping(timestamp=0, ax=1, ay=2, az=3, label=4, unit="g")
        samples, _ = _parse(b"0,1,0,-1,STD\n", mapping)
        assert samples[0].ax == pytest.approx(STANDARD_GRAVITY_MS2)
        assert samples[0].az == pytest.approx(-STANDARD_GRAVITY_MS2)

    def test_adc_unit_converts_counts(self):
        mapping = ColumnMapping(timestamp=0, ax=1, ay=2, az=3, label=4,
                                unit="adc_bits", adc_range_g=16.0,
                                adc_resolution_bits=13)
        samples, _ = _parse(b"0,4096,0,-4096,STD\n", mapping)
        assert samples[0].ax == pytest.approx(16.0 * STANDARD_GRAVITY_MS2)
        assert samples[0].az == pytest.approx(-16.0 * STANDARD_GRAVITY_MS2)

    def test_seconds_time_unit(self):
        mapping = ColumnMapping(timestamp=0, ax=1, ay=2, az=3, label=4,
                                time_unit="s")
        samples, _ = _parse(b"1.5,1,2,3,WAL\n", mapping)
        assert samples[0].t_ms == 1500

    def test_synthetic_timestamps(self):
        mapping = ColumnMapping(ax=0, ay=1, az=2, label=3,
                                synthetic_rate_hz=20.0)
        data = b"1,2,3,WAL\n1,2,3,WAL\n1,2,3,WAL\n"
        samples, _ = _parse(data, mapping)
        assert [s.t_ms for s in samples] == [0, 50, 100]

    def test_unlabeled_mapping(self):
        mapping = ColumnMapping(timestamp=0, ax=1, ay=2, az=3)
        samples, _ = _parse(b"0,1,2,3\n", mapping)
        assert samples[0].label is None

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ConfigError):
            ColumnMapping(timestamp=0, ax=1, ay=1, az=2, label=3)

    def test_empty_label_is_malformed(self):
        _, report = parse_trial_file(b"0,1,2,3,\n10,1,2,3,WAL\n", BASIC)
        assert report.malformed == 1


def _row_parse(data: bytes, mapping: ColumnMapping) -> tuple[list, tuple]:
    """The row-at-a-time parser the columnar one replaced, as a reference:
    (samples, (rows, malformed, regressions)); raises as it did."""
    lines = data.decode("utf-8").splitlines()
    cols = (mapping.timestamp, mapping.ax, mapping.ay, mapping.az,
            mapping.label)
    t_col, x_col, y_col, z_col, label_col = cols
    time_factor = {"ms": 1.0, "s": 1000.0, "us": 1e-3, "ns": 1e-6}[
        mapping.time_unit]
    if mapping.unit == "m/s2":
        factor = 1.0
    elif mapping.unit == "g":
        factor = STANDARD_GRAVITY_MS2
    else:
        factor = (convert_adc_to_g(1, mapping.adc_range_g,
                                   mapping.adc_resolution_bits)
                  * STANDARD_GRAVITY_MS2)
    rows = malformed = regressions = 0
    samples, prev_t = [], None
    for line in lines:
        if not line.strip():
            continue
        rows += 1
        fields = [f.strip() for f in line.split(mapping.delimiter)]
        try:
            if mapping.unit == "adc_bits":
                ax, ay, az = (float(int(fields[c])) * factor
                              for c in (x_col, y_col, z_col))
            else:
                ax, ay, az = (float(fields[c]) * factor
                              for c in (x_col, y_col, z_col))
            if not (math.isfinite(ax) and math.isfinite(ay)
                    and math.isfinite(az)):
                raise ValueError("non-finite acceleration")
            if t_col is None:
                t_ms = round(len(samples) * 1000.0 / mapping.synthetic_rate_hz)
            else:
                t_ms = round(float(fields[t_col]) * time_factor)
            label = None
            if label_col is not None:
                label = fields[label_col].upper()
                if not label:
                    raise ValueError("empty label field")
        except (ValueError, IndexError, OverflowError):
            malformed += 1
            continue
        if prev_t is not None and t_ms < prev_t:
            regressions += 1
        prev_t = t_ms
        samples.append(Sample("trial", t_ms, ax, ay, az, label))
    if rows and malformed * 2 > rows:
        raise ParseError("mostly malformed")
    return samples, (rows, malformed, regressions)


_TIME_TOKENS = ["0", "50", " 100 ", "25.5", "-3", "1e3", "nan", "inf", "x", ""]
_ACC_TOKENS = ["0.1", " 9.8", "-4.25 ", "1e-3", "0", "-0.0", "7", "nan",
               "-inf", "1e400", "abc", "", " "]
_LABEL_TOKENS = ["WAL", " wal ", "fol", "Std", "", "  "]
_LINE_ENDS = ["\n", "\r\n"]


@st.composite
def _trial_text(draw, n_time, with_label):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "short"]))
        if kind == "blank":
            line = draw(st.sampled_from(["", "   ", "\t"]))
        elif kind == "short":
            line = draw(st.sampled_from(["1,2", "garbage"]))
        else:
            fields = [draw(st.sampled_from(_TIME_TOKENS))
                      for _ in range(n_time)]
            fields += [draw(st.sampled_from(_ACC_TOKENS)) for _ in range(3)]
            if with_label:
                fields.append(draw(st.sampled_from(_LABEL_TOKENS)))
            line = ",".join(fields)
        lines.append(line + draw(st.sampled_from(_LINE_ENDS)))
    return "".join(lines).encode()


def _both(data, mapping):
    """Outcome of the reference and of the columnar parser on one input."""
    outcomes = []
    for parse in (_row_parse, lambda d, m: _parse(d, m)):
        try:
            samples, report = parse(data, mapping)
        except ParseError:
            outcomes.append("ParseError")
            continue
        if not isinstance(report, tuple):
            report = (report.rows, report.malformed,
                      report.timestamp_regressions)
        outcomes.append((samples, report))
    return outcomes


class TestColumnarParse:
    """The columnar parser keeps the row-at-a-time parser's semantics."""

    @settings(max_examples=200)
    @given(_trial_text(1, True),
           st.sampled_from(["m/s2", "g"]), st.sampled_from(["ms", "s"]))
    def test_timestamped_rows_match_reference(self, data, unit, time_unit):
        mapping = ColumnMapping(timestamp=0, ax=1, ay=2, az=3, label=4,
                                unit=unit, time_unit=time_unit)
        ref, got = _both(data, mapping)
        assert got == ref

    @settings(max_examples=100)
    @given(_trial_text(0, True))
    def test_synthetic_timestamps_match_reference(self, data):
        mapping = ColumnMapping(ax=0, ay=1, az=2, label=3,
                                synthetic_rate_hz=30.0)
        ref, got = _both(data, mapping)
        assert got == ref

    @settings(max_examples=100)
    @given(_trial_text(1, False))
    def test_adc_unlabeled_rows_match_reference(self, data):
        mapping = ColumnMapping(timestamp=0, ax=1, ay=2, az=3,
                                unit="adc_bits")
        ref, got = _both(data, mapping)
        assert got == ref

    def test_columns_and_dtypes(self):
        data = b"0,1,2,3,WAL\n50,4,5,6,wal\n"
        batch, _ = parse_trial_file(data, BASIC, device_id="dev")
        assert batch.device_id == "dev" and len(batch) == 2
        assert batch.t_ms.dtype == np.int64 and batch.t_ms.tolist() == [0, 50]
        assert batch.acc.dtype == np.float64 and batch.acc.shape == (2, 3)
        assert batch.acc.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert batch.labels == ["WAL", "WAL"]

    def test_timestamp_beyond_int64_is_malformed(self):
        samples, report = _parse(b"1e19,1,2,3,WAL\n5,1,2,3,WAL\n")
        assert [s.t_ms for s in samples] == [5]
        assert report.malformed == 1

    def test_empty_unlabeled_batch_has_empty_columns(self):
        batch, report = parse_trial_file(b"", ColumnMapping(ax=0, ay=1, az=2,
                                                            timestamp=3))
        assert len(batch) == 0 and batch.acc.shape == (0, 3)
        assert batch.labels is None and report.rows == 0


_BLOCK_NUMBERS = ["0", "50", "-3", "25.5", " 7 ", "1_000", "1e3", "-0.0",
                  "nan", "inf", "-inf", "1e19", "-1e400", "9" * 30, "abc", ""]
_BLOCK_LABELS = ["WAL"] * 8 + ["jog", " wal ", "Std ", "", "  "]
# str.splitlines breaks every one of these; the column path takes only "\n"
_BLOCK_BREAKS = ["\n"] * 40 + ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                              "\x85", "\u2028", "\u2029"]
_BLOCK_MAPPINGS = [
    BASIC,
    ColumnMapping(timestamp=0, ax=1, ay=2, az=3, label=4, unit="g",
                  time_unit="s"),
    ColumnMapping(timestamp=0, ax=1, ay=2, az=3, unit="adc_bits"),
    ColumnMapping(ax=0, ay=1, az=2, label=3, synthetic_rate_hz=30.0),
    ColumnMapping(timestamp="t", ax="x", ay="y", az="z", label="label",
                  header=True),
    ColumnMapping(timestamp=0, ax=1, ay=2, az=3, label=-1),
    ColumnMapping(timestamp=0, ax=1, ay=2, az=3, label=4, delimiter="\t"),
]


@st.composite
def _block_trial(draw):
    """A mapping and a trial text for it: mostly valid rows, so that many
    blocks are parsed as columns, mixed with blank lines, other line
    breaks, extra or missing fields, bad numbers and empty or padded
    labels."""
    mapping = draw(st.sampled_from(_BLOCK_MAPPINGS))
    sep = mapping.delimiter
    number = st.one_of(
        st.integers(-5000, 5000).map(str),
        st.floats(-50, 50).map(repr),
        st.sampled_from(_BLOCK_NUMBERS),
    )
    header = [sep.join(["t", " x", "y ", "z", "label"])] if mapping.header else []
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(
            ["row"] * 24 + ["extra", "missing", "shift", "blank", "garbage"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        if kind == "garbage":
            lines.append("garbage")
            continue
        fields = [draw(number) for _ in range(4)]
        fields.append(draw(st.sampled_from(_BLOCK_LABELS)))
        if kind == "extra":
            fields.append(draw(st.sampled_from(["x", "1", "WAL"])))
        elif kind == "shift":
            fields.append(draw(number))
        elif kind == "missing":
            fields.pop()
        lines.append(sep.join(fields))
        if kind == "shift":
            # with the next line one field short, the block's field count
            # is a whole number of rows whose fields all convert
            lines.append(sep.join(draw(number) for _ in range(4)))
    lines = [line + draw(st.sampled_from(_BLOCK_BREAKS))
             for line in header + lines]
    text = "".join(lines)
    if text and draw(st.booleans()):
        text = text[:-1]  # no final line break (or half of a "\r\n")
    return mapping, text.encode()


def _outcome(data, mapping, parse=parse_trial_file):
    try:
        batch, report = parse(data, mapping)
    except ParseError as exc:
        return "ParseError", str(exc)
    return batch.t_ms.tobytes(), batch.acc.tobytes(), batch.labels, report


def _row_loop_outcome(data, mapping):
    """The outcome with every block parsed row by row."""
    with mock.patch.object(ingest, "_block_columns", lambda *args: None):
        return _outcome(data, mapping)


def _one_block_outcome(data, mapping):
    """The outcome with the whole text as one block."""
    with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES", len(data) + 1):
        return _outcome(data, mapping)


def _trial_bytes(rows, label=lambda i: "WAL"):
    rng = np.random.default_rng(5)
    return "".join(
        f"{50 * i},{x!r},{y!r},{z!r},{label(i)}\n"
        for i, (x, y, z) in enumerate(rng.normal(0.0, 5.0, (rows, 3)).tolist())
    ).encode()


class TestBlockParse:
    """Blocks parsed as columns give what the row loop alone gives."""

    @settings(max_examples=200)
    @given(_block_trial(), st.sampled_from([1, 16, 64, 200, 65536]))
    # an extra field then a missing one: a whole number of rows in all
    @example((BASIC, b"0,1,2,3,WAL,1\n5,1,2,3\n"), 65536)
    # a label column counted from the end
    @example((_BLOCK_MAPPINGS[5], b"0,1,2,3,WAL\n5,1,2,3,JOG\n"), 65536)
    @example((BASIC, "0,1,2,3,WAL\x1c5,1,2,3,WAL\n".encode()), 65536)
    @example((BASIC, "0,1,2,3,WAL\u20285,1,2,3,WAL\n".encode()), 65536)
    def test_blocks_match_the_row_loop(self, tmp_path_factory, trial,
                                       block_bytes):
        mapping, data = trial
        path = tmp_path_factory.getbasetemp() / "block_trial.csv"
        path.write_bytes(data)
        with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES", block_bytes):
            got = _outcome(data, mapping)
            from_path = _outcome(path, mapping, parse_trial_path)
        assert got == from_path == _row_loop_outcome(data, mapping)

    def test_valid_blocks_never_reach_the_row_loop(self):
        data = _trial_bytes(3000, lambda i: "WAL" if i % 7 else " jog ")
        with mock.patch.object(ingest, "_block_rows", None):
            batch, report = parse_trial_file(data, BASIC)
        assert len(data) > 2 * ingest.TRIAL_BLOCK_BYTES
        assert report == ingest.ParseReport(rows=3000)
        assert _outcome(data, BASIC) == _row_loop_outcome(data, BASIC)
        # label codes are interned across blocks: one object per raw field
        assert len({id(c) for c in batch.labels}) == 2

    def test_a_bad_row_sends_only_its_block_to_the_row_loop(self):
        lines = _trial_bytes(3000).decode().splitlines(keepends=True)
        lines[1500] = "1,2,oops,4,WAL\n"
        data = "".join(lines).encode()
        calls = []
        real = ingest._block_rows

        def rows(lines, *args):
            calls.append(len(lines))
            return real(lines, *args)

        with mock.patch.object(ingest, "_block_rows", rows):
            batch, report = parse_trial_file(data, BASIC)
        assert len(calls) == 1 and calls[0] < 3000
        assert report.malformed == 1 and len(batch) == 2999
        assert batch.t_ms.tolist() == [50 * i for i in range(3000)
                                       if i != 1500]

    def test_memory_stays_within_twice_the_file(self):
        # the parse holds one block's strings, not the file as lines and
        # float objects; in one process, which tracemalloc sees whole
        data = _trial_bytes(100_000)
        tracemalloc.start()
        try:
            with _one_cpu():
                _batch, report = parse_trial_file(data, BASIC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.rows == 100_000 and report.malformed == 0
        assert peak <= 2 * len(data)

    def test_a_file_is_held_as_its_columns_and_a_few_blocks(self, tmp_path):
        # replay's mapping reads no labels: the parse holds the final
        # columns, 32 B a row, and one block's strings (about ten times
        # the block's bytes), never the file, its lines or whole-file
        # temporaries
        path = tmp_path / "long.csv"
        path.write_bytes(_trial_bytes(100_000))
        mapping = ColumnMapping(timestamp=0, ax=1, ay=2, az=3)
        tracemalloc.start()
        try:
            with _one_cpu():
                batch, report = parse_trial_path(path, mapping)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.rows == len(batch) == 100_000
        assert path.stat().st_size > 64 * 100_000
        assert peak <= 32 * 100_000 + 20 * ingest.TRIAL_BLOCK_BYTES

    def test_a_split_parse_holds_a_few_blocks_in_each_process(self, tmp_path):
        # the columns are allocated before the fork: what each process
        # allocates past it is about one block's strings and messages, in
        # the child too, never the file
        path = tmp_path / "long.csv"
        path.write_bytes(_trial_bytes(100_000))
        proc = subprocess.run(
            [sys.executable, "-c", _SPLIT_PEAKS.format(cpus=_cpu_pair()),
             str(path)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "100000"]  # one fork, every row
        grown = dict(line.split() for line in proc.stderr.splitlines())
        assert sorted(grown) == ["child", "parent"]
        for process, peak in grown.items():
            assert int(peak) <= 20 * ingest.TRIAL_BLOCK_BYTES, process


def test_a_pipe_is_read_once_and_parsed_whole(tmp_path):
    # a named pipe or a shell's <(...) cannot be read twice
    fifo = tmp_path / "trial.csv"
    os.mkfifo(fifo)
    data = _trial_bytes(3000)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,),
                              daemon=True)
    writer.start()
    with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES", 4096):
        got = _outcome(fifo, BASIC, parse_trial_path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == _outcome(data, BASIC)


def test_a_paced_replay_of_a_pipe_equals_one_of_the_file(
        tmp_path, mapping_path, artifact_path):
    # a paced replay reads its trial twice; a pipe is read once, whole
    trial, fifo = tmp_path / "trial.csv", tmp_path / "fifo.csv"
    write_trial_csv(make_trial("fall", 450, seed=33), trial)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes,
                              args=(trial.read_bytes(),), daemon=True)
    writer.start()
    outputs = []
    for path in (fifo, trial):
        out = tmp_path / f"{path.stem}.jsonl"
        assert main(["replay", str(path), "--mapping", str(mapping_path),
                     "--artifact", str(artifact_path), "--speed", "1000",
                     "--sink", f"file:{out}"]) == 0
        outputs.append(out.read_text().replace('"fifo"', '"trial"'))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 2


def _emitted(path, mapping):
    """The path parse with ``emit``: the batches joined, the reports seen
    after each and the result."""
    batches, reports = [], []

    def emit(batch, report):
        batches.append(batch)
        reports.append(dataclasses.astuple(report))

    result = parse_trial_path(path, mapping, emit=emit)
    labels = None if mapping.label is None else [
        c for b in batches for c in b.labels]
    return (np.concatenate([b.t_ms for b in batches]).tobytes(),
            np.concatenate([b.acc for b in batches]).tobytes(), labels,
            result[1]), reports, result[0]


class TestEmit:
    """With ``emit`` the parse hands over each block's rows in file order
    and keeps nothing; joined, they are the collected batch."""

    @pytest.mark.parametrize("mapping", [
        BASIC, ColumnMapping(ax=1, ay=2, az=3, synthetic_rate_hz=30.0)],
        ids=["clock", "synthetic"])
    @pytest.mark.parametrize("split", [False, True], ids=["one", "split"])
    def test_blocks_join_to_the_collected_batch(self, tmp_path, mapping,
                                                split):
        lines = _fixed_lines(range(0, 150_000, 50))
        for i in range(5, 3000, 37):
            lines[i] = _BAD_LINE
        lines[1234] = lines[1234].replace("00061700", "00000100")
        path = tmp_path / "trial.csv"
        path.write_bytes("".join(lines).encode())
        with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES",
                               100 * len(lines[0])), \
                (_halves() if split else _one_cpu()):
            got, reports, batch = _emitted(path, mapping)
            collected = _outcome(path, mapping, parse_trial_path)
        assert batch is None and got == collected
        assert len(reports) == 30 and reports[-1] == dataclasses.astuple(
            collected[3])
        assert [r[0] for r in reports] == [100 * (i + 1) for i in range(30)]
        assert collected[3].malformed == 81


def _fixed_lines(ts):
    """Rows of equal length, so that a block size of k lines puts a block
    edge exactly after every k-th."""
    return [f"{t:08d},1.5,-2.0,9.75,WAL\n" for t in ts]


class TestBlockEdges:
    """What the whole text decides holds across block edges: a file parsed
    in small blocks gives what it gives as one block."""

    def _parse(self, tmp_path, lines, mapping=BASIC, block_lines=10):
        """The path parse of ``lines`` in blocks of ``block_lines`` rows
        (of the first line's length) by one process, checked against the
        text as one block and against the parse split between two; the
        blocks the one process parses as columns are collected."""
        data = "".join(lines).encode()
        path = tmp_path / "trial.csv"
        path.write_bytes(data)
        blocks = []
        real = ingest._block_columns

        def columns(block, *args):
            blocks.append(block)
            return real(block, *args)

        with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES",
                               block_lines * len(lines[0])):
            with _one_cpu(), \
                    mock.patch.object(ingest, "_block_columns", columns):
                got = _outcome(path, mapping, parse_trial_path)
            with _halves():
                assert _outcome(path, mapping, parse_trial_path) == got
        assert got == _one_block_outcome(data, mapping)
        return got, blocks

    def test_synthetic_timestamps_run_on_across_blocks(self, tmp_path):
        mapping = ColumnMapping(ax=0, ay=1, az=2, synthetic_rate_hz=30.0)
        lines = [f"{i:04d},2.5,-1.0\n" if i % 37 else "bad,2.5,-1.0\n"
                 for i in range(3000)]
        (t_ms, _, _, report), blocks = self._parse(tmp_path, lines,
                                                   mapping=mapping)
        kept = 3000 - report.malformed
        assert len(blocks) == 300 and report.malformed == 82
        assert t_ms == np.rint(np.arange(kept) * 1000.0 / 30.0).astype(
            np.int64).tobytes()

    @pytest.mark.parametrize("last_row, regressions", [
        ("00000450,1.5,-2.0,9.75,WAL\n", 1),  # 450 then 420: a step back
        ("00000450,1.5,-2.0,nan1,WAL\n", 0),  # malformed: 400 then 420
    ])
    def test_a_step_back_on_a_block_edge(self, tmp_path, last_row,
                                         regressions):
        ts = [50 * i for i in range(30)]
        ts[10] = 420
        lines = _fixed_lines(ts)
        lines[9] = last_row
        (_, _, _, report), blocks = self._parse(tmp_path, lines)
        assert blocks[0] == "".join(lines[:10]).encode()
        assert blocks[1].startswith(lines[10].encode())
        assert report.timestamp_regressions == regressions

    def test_header_names_columns_of_every_block(self, tmp_path):
        mapping = ColumnMapping(timestamp="t", ax="x", ay="y", az="z",
                                label="label", header=True)
        lines = ["label,z,y,x,t\n"] + [
            f"wal,{i % 7}.0,{i % 5}.0,{i % 3}.0,{50 * i:06d}\n"
            for i in range(200)]
        (t_ms, acc, labels, report), blocks = self._parse(
            tmp_path, lines, mapping=mapping, block_lines=3)
        assert len(blocks) > 50 and report.rows == 200
        assert np.frombuffer(t_ms, np.int64).tolist() == [
            50 * i for i in range(200)]
        assert np.frombuffer(acc).reshape(-1, 3).tolist() == [
            [i % 3, i % 5, i % 7] for i in range(200)]
        assert labels == ["WAL"] * 200

    def test_a_mostly_malformed_first_block_is_not_fatal(self, tmp_path):
        lines = ["garbage,row,that,is,bad\n"] * 30 + _fixed_lines(
            range(0, 5000, 50))
        (_, _, labels, report), blocks = self._parse(tmp_path, lines,
                                                     block_lines=40)
        assert blocks[0].count(b"garbage") == 30
        assert report.malformed == 30 and len(labels) == 100

    def test_a_mostly_malformed_rest_is_fatal(self, tmp_path, mapping_path,
                                              artifact_path, capsys):
        lines = _fixed_lines(range(0, 2000, 50)) + [
            "garbage,row,that,is,bad\n"] * 50
        got, blocks = self._parse(tmp_path, lines, block_lines=40)
        assert got == ("ParseError",
                       "50/90 rows malformed; mapping is likely wrong")
        assert b"garbage" not in blocks[0]
        assert _replay_of(tmp_path / "trial.csv", mapping_path,
                          artifact_path, capsys, 40 * len(lines[0])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "50/90 rows malformed" in captured.err

    @pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82"])
    def test_not_utf8_in_a_late_block(self, tmp_path, mapping_path,
                                      artifact_path, capsys, bad):
        lines = _fixed_lines(range(0, 50_000, 50))
        data = "".join(lines).encode()
        at = data.index(b"\n", len(data) - 100)
        data = data[:at] + bad + data[at:]
        path = tmp_path / "trial.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        message = f"trial file is not UTF-8 text: {whole.value}"
        with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES", 4096):
            got = _outcome(path, BASIC, parse_trial_path)
        assert got == ("ParseError", message)
        assert _replay_of(path, mapping_path, artifact_path, capsys,
                          4096) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def _replay_of(path, mapping_path, artifact_path, capsys, block_bytes):
    """replay of a trial read in blocks of ``block_bytes``: its exit code."""
    capsys.readouterr()
    with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES", block_bytes):
        return main(["replay", str(path), "--mapping", str(mapping_path),
                     "--artifact", str(artifact_path), "--speed", "max"])


def _cpu_pair() -> list[int]:
    """Two CPUs this process may run on: the same one twice on a one-CPU
    box, where the split still runs, only not in parallel."""
    return (sorted(os.sched_getaffinity(0)) * 2)[:2]


@contextlib.contextmanager
def _halves(min_blocks=2):
    """Trial parses split from ``min_blocks`` blocks on, whatever the
    number of CPUs; yields the (pid, status) of each child reaped."""
    reaped = []
    real = os.waitpid

    def waitpid(pid, options):
        got = real(pid, options)
        reaped.append(got)
        return got

    with mock.patch.object(ingest, "_split_cpus", _cpu_pair), \
            mock.patch.object(ingest, "SPLIT_MIN_BLOCKS", min_blocks), \
            mock.patch.object(ingest.os, "waitpid", waitpid):
        yield reaped


def _one_cpu():
    return mock.patch.object(ingest.os, "sched_getaffinity", lambda pid: {0})


class TestSplitParse:
    """A file of SPLIT_MIN_BLOCKS blocks or more is parsed by two processes,
    and gives what one process gives: rows, labels, report and errors."""

    def _both(self, tmp_path, lines, mapping=BASIC, block_lines=10):
        """The path parse of ``lines`` in blocks of ``block_lines`` rows
        (of the first line's length), split and not; the split must have
        used the child's rows."""
        path = tmp_path / "trial.csv"
        path.write_bytes("".join(lines).encode())
        with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES",
                               block_lines * len(lines[0])):
            with _one_cpu():
                serial = _outcome(path, mapping, parse_trial_path)
            with _halves() as reaped:
                split = _outcome(path, mapping, parse_trial_path)
        assert [status for _, status in reaped] == [0]
        assert split == serial
        return split

    @settings(max_examples=100, deadline=None)
    @given(_block_trial(), st.sampled_from([16, 64, 200]))
    def test_split_equals_serial(self, tmp_path_factory, trial, block_bytes):
        mapping, data = trial
        path = tmp_path_factory.getbasetemp() / "split_trial.csv"
        path.write_bytes(data)
        with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES", block_bytes):
            with _one_cpu():
                serial = _outcome(data, mapping)
            with _halves():
                assert _outcome(data, mapping) == serial
                assert _outcome(path, mapping, parse_trial_path) == serial

    def test_malformed_rows_on_both_sides(self, tmp_path):
        lines = _fixed_lines(range(0, 2000, 50))
        for i in (3, 19, 20, 33):
            lines[i] = lines[i].replace("1.5", "x.5")
        _, _, labels, report = self._both(tmp_path, lines)
        assert report == ingest.ParseReport(rows=40, malformed=4)
        assert len(labels) == 36

    @pytest.mark.parametrize("last_row, regressions", [
        ("00000950,1.5,-2.0,9.75,WAL\n", 1),  # 950 then 920: a step back
        ("00000950,1.5,-2.0,nan1,WAL\n", 0),  # malformed: 900 then 920
    ])
    def test_a_step_back_at_the_split(self, tmp_path, last_row, regressions):
        # 4 blocks of 10 rows, each parsed by the other process than the
        # one before: row 19 ends the parent's block, row 20 starts the
        # child's
        ts = [50 * i for i in range(40)]
        ts[20] = 920
        lines = _fixed_lines(ts)
        lines[19] = last_row
        _, _, _, report = self._both(tmp_path, lines)
        assert report.timestamp_regressions == regressions

    def test_named_header(self, tmp_path):
        mapping = ColumnMapping(timestamp="t", ax="x", ay="y", az="z",
                                label="label", header=True)
        lines = ["label,z,y,x,t\n"] + [
            f"wal,{i % 7}.0,{i % 5}.0,{i % 3}.0,{50 * i:06d}\n"
            for i in range(200)]
        t_ms, acc, labels, report = self._both(tmp_path, lines, mapping,
                                               block_lines=3)
        assert report.rows == 200
        assert np.frombuffer(t_ms, np.int64).tolist() == [
            50 * i for i in range(200)]
        assert np.frombuffer(acc).reshape(-1, 3).tolist() == [
            [i % 3, i % 5, i % 7] for i in range(200)]
        assert labels == ["WAL"] * 200

    @pytest.mark.parametrize("mapping", [
        BASIC, ColumnMapping(timestamp="t", ax="x", ay="y", az="z",
                             label="label", header=True),
    ], ids=["index", "header"])
    def test_a_byte_order_mark_is_no_part_of_the_first_line(self, tmp_path,
                                                            mapping):
        lines = _fixed_lines(range(0, 2000, 50))
        if mapping.header:
            lines.insert(0, "t,x,y,z,label\n")
        data = "".join(lines).encode()
        outcomes = []
        for i, text in enumerate((data, codecs.BOM_UTF8 + data)):
            path = tmp_path / f"trial{i}.csv"
            path.write_bytes(text)
            with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES", 260):
                with _one_cpu():
                    outcomes.append(_outcome(path, mapping, parse_trial_path))
                with _halves() as reaped:
                    outcomes.append(_outcome(path, mapping, parse_trial_path))
            assert [status for _, status in reaped] == [0]
        assert outcomes[0][3] == ingest.ParseReport(rows=40)
        assert outcomes == outcomes[:1] * 4
        assert _outcome(codecs.BOM_UTF8, mapping) == _outcome(b"", mapping)

    def test_synthetic_timestamps(self, tmp_path):
        mapping = ColumnMapping(ax=0, ay=1, az=2, synthetic_rate_hz=30.0)
        lines = [f"{i:04d},2.5,-1.0\n" if i % 37 else "bad,2.5,-1.0\n"
                 for i in range(3000)]
        t_ms, _, _, report = self._both(tmp_path, lines, mapping)
        kept = 3000 - report.malformed
        assert report.malformed == 82 and report.timestamp_regressions == 0
        assert t_ms == np.rint(np.arange(kept) * 1000.0 / 30.0).astype(
            np.int64).tobytes()

    def test_a_mostly_malformed_half_is_not_fatal(self, tmp_path):
        # the child's rows are 15 of 20 malformed; the file's are 15 of 40
        lines = _fixed_lines(range(0, 2000, 50))
        lines[20:35] = [_BAD_LINE] * 15
        _, _, labels, report = self._both(tmp_path, lines)
        assert report.malformed == 15 and len(labels) == 25

    def test_the_totals_decide_the_error(self, tmp_path):
        # the parent's rows are 1 of 20 malformed; the file's are 21 of 40
        lines = _fixed_lines(range(0, 2000, 50))
        lines[3] = _BAD_LINE
        lines[20:40] = [_BAD_LINE] * 20
        got = self._both(tmp_path, lines)
        assert got == ("ParseError",
                       "21/40 rows malformed; mapping is likely wrong")

    def test_label_codes_are_one_object_across_the_split(self, tmp_path):
        # " wal" only before the split, "WAL" only after: one code
        lines = _fixed_lines(range(0, 2000, 50))
        lines[:20] = [line.replace(",WAL", ", wal") for line in lines[:20]]
        _, _, labels, _ = self._both(tmp_path, lines)
        assert labels == ["WAL"] * 40
        assert all(label is labels[0] for label in labels)

    def test_fewer_blocks_than_the_minimum_take_one_process(self):
        lines = _fixed_lines(range(0, 2000, 50))
        data = "".join(lines).encode()
        blocks = ingest.SPLIT_MIN_BLOCKS - 1
        with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES",
                               len(data) // blocks), \
                _halves(ingest.SPLIT_MIN_BLOCKS) as reaped:
            assert len(ingest._count_rows(io.BytesIO(data))[0]) == blocks + 1
            parse_trial_file(data, BASIC)
        assert reaped == []

    def test_one_cpu_never_forks(self):
        data = _trial_bytes(3000)
        with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES", 4096), \
                _one_cpu(), \
                mock.patch.object(ingest.os, "fork",
                                  side_effect=AssertionError("forked")):
            batch, report = parse_trial_file(data, BASIC)
        assert report == ingest.ParseReport(rows=3000) and len(batch) == 3000

    def test_a_process_running_another_thread_never_forks(self):
        data = _trial_bytes(3000)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, daemon=True)
        other.start()
        try:
            with mock.patch.object(ingest, "TRIAL_BLOCK_BYTES", 4096), \
                    mock.patch.object(ingest.os, "fork",
                                      side_effect=AssertionError("forked")):
                batch, report = parse_trial_file(data, BASIC)
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert report == ingest.ParseReport(rows=3000) and len(batch) == 3000

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs two CPUs")
    def test_two_cpus_split_a_long_file_and_restore_the_affinity(self):
        data = _trial_bytes(20_000)
        cpus = sorted(os.sched_getaffinity(0))
        with mock.patch.object(ingest.os, "waitpid",
                               wraps=os.waitpid) as waitpid, \
                mock.patch.object(ingest.os, "sched_setaffinity",
                                  wraps=os.sched_setaffinity) as pin:
            batch, report = parse_trial_file(data, BASIC)
        assert len(data) > 4 * ingest.TRIAL_BLOCK_BYTES
        assert report == ingest.ParseReport(rows=20_000)
        assert waitpid.call_count == 1
        assert pin.call_args_list == [mock.call(0, {cpus[0]}),
                                      mock.call(0, set(cpus))]
        assert os.sched_getaffinity(0) == set(cpus)
        with _one_cpu():
            assert _outcome(data, BASIC) == (
                batch.t_ms.tobytes(), batch.acc.tobytes(), batch.labels,
                report)


_BAD_LINE = "garbage,row,that,is,badxxx\n"  # as long as a _fixed_lines row


def _blocks_of_100():
    """4 blocks of 100 rows, and the blocks size that cuts them."""
    return ("".join(_fixed_lines(range(0, 20_000, 50))).encode(),
            mock.patch.object(ingest, "TRIAL_BLOCK_BYTES", 100 * 27))


def _child_fault(action, block=2):
    """``_block_columns`` that, in a forked child, runs ``action`` before
    its ``block``-th block."""
    parent, real = os.getpid(), ingest._block_columns
    seen = [0]

    def columns(*args):
        if os.getpid() != parent:
            seen[0] += 1
            if seen[0] == block:
                action()
        return real(*args)

    return mock.patch.object(ingest, "_block_columns", columns)


def _raise():
    raise RuntimeError("a fault in the child")


class TestSplitFaults:
    """The child is reaped on every path, and what it fails to parse the
    parent parses itself."""

    @pytest.mark.parametrize("fault, ended", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         lambda status: os.WTERMSIG(status) == signal.SIGKILL),
        (_raise, lambda status: os.WEXITSTATUS(status) == 1),
    ], ids=["killed", "raises"])
    def test_a_failed_child_leaves_its_blocks_to_the_parent(self, fault,
                                                            ended):
        data, blocks = _blocks_of_100()
        with blocks:
            with _one_cpu():
                serial = _outcome(data, BASIC)
            with _halves() as reaped, _child_fault(fault):
                split = _outcome(data, BASIC)
        assert split == serial
        [(_pid, status)] = reaped
        assert ended(status)

    def test_an_error_in_the_parent_reaps_the_child(self):
        data, blocks = _blocks_of_100()
        parent, real = os.getpid(), ingest._block_columns

        def columns(*args):
            if os.getpid() == parent:
                raise ParseError("a fault in the parent")
            return real(*args)

        affinity = os.sched_getaffinity(0)
        with blocks, _halves() as reaped, \
                mock.patch.object(ingest, "_block_columns", columns):
            with pytest.raises(ParseError, match="a fault in the parent"):
                parse_trial_file(data, BASIC)
        [(pid, _status)] = reaped
        assert not os.path.exists(f"/proc/{pid}")
        assert os.sched_getaffinity(0) == affinity


# replay with the trial parse split over the given CPUs, whatever the box
# has, each fork noted on stderr and the child slowed by slow_child_s a
# block; "before the parse" is in stdout's buffer when the child is forked
_REPLAY = """\
import os, sys, time
from fallstream import cli, ingest
ingest._split_cpus = lambda: {cpus!r}
parent, columns = os.getpid(), ingest._block_columns
def slowed(*args):
    if os.getpid() != parent:
        time.sleep({slow_child_s!r})
    return columns(*args)
ingest._block_columns = slowed
fork = os.fork
def counted():
    sys.stderr.write("fork\\n")
    return fork()
os.fork = counted
sys.stdout.write("before the parse\\n")
sys.exit(cli.main(sys.argv[1:]))
"""


# a split parse of the trial at argv[1] over the given CPUs under
# tracemalloc, which a forked child inherits: each process writes to
# stderr the peak of what it traced past the fork, less what it held then
_SPLIT_PEAKS = """\
import os, sys, tracemalloc
from fallstream import ingest
from fallstream.ingest import ColumnMapping, parse_trial_path
ingest._split_cpus = lambda: {cpus!r}
fork, exit = os.fork, os._exit
held = []
def grown(process):
    peak = tracemalloc.get_traced_memory()[1] - held[0]
    os.write(2, f"{{process}} {{peak}}\\n".encode())
def forked():
    held.append(tracemalloc.get_traced_memory()[0])
    tracemalloc.reset_peak()
    return fork()
def exited(code):
    grown("child")
    exit(code)
os.fork, os._exit = forked, exited
tracemalloc.start()
batch, report = parse_trial_path(
    sys.argv[1], ColumnMapping(timestamp=0, ax=1, ay=2, az=3))
grown("parent")
print(len(held), len(batch))
"""


def _replay_argv(trial, mapping_path, artifact_path, cpus, slow_child_s=0.0):
    return [sys.executable, "-c",
            _REPLAY.format(cpus=cpus, slow_child_s=slow_child_s),
            "replay", str(trial), "--mapping", str(mapping_path),
            "--artifact", str(artifact_path), "--speed", "max",
            "--sink", "stdout"]


def _child_of(pid, timeout=20.0) -> int:
    """The pid of a running child of ``pid``, once there is one."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for entry in os.listdir("/proc"):
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue  # not a process, or one that has gone
            state, ppid = stat.rsplit(")", 1)[1].split()[:2]
            if int(ppid) == pid and state != "Z":
                return int(entry)
        time.sleep(0.005)
    raise AssertionError(f"process {pid} forked no child")


class TestSplitReplay:
    def test_each_detection_line_is_written_once(self, tmp_path,
                                                 mapping_path,
                                                 artifact_path):
        trial = tmp_path / "long.csv"
        write_trial_csv(make_trial("fall", 20_000, seed=41), trial)
        assert trial.stat().st_size > 4 * ingest.TRIAL_BLOCK_BYTES
        # stdout to a pipe is block-buffered unless this is set
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        runs = [subprocess.run(
            _replay_argv(trial, mapping_path, artifact_path, cpus),
            capture_output=True, text=True, timeout=120, env=env)
            for cpus in (_cpu_pair(), _cpu_pair()[:1])]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
        split, serial = runs
        assert split.stderr.count("fork\n") == 1
        assert serial.stderr.count("fork\n") == 0
        assert split.stdout == serial.stdout
        lines = split.stdout.splitlines()
        assert lines[0] == "before the parse" and len(lines) == 1 + 100
        assert "before the parse" not in lines[1:]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="finds the child in /proc")
    @pytest.mark.parametrize("group", [False, True],
                             ids=["parent", "process-group"])
    def test_sigint_mid_parse_leaves_no_process(self, tmp_path, mapping_path,
                                                artifact_path, group):
        trial = tmp_path / "long.csv"
        trial.write_bytes("".join(_fixed_lines(range(0, 1_500_000, 50)))
                          .encode())
        # the child takes at least 6 s: a second for each of its blocks
        proc = subprocess.Popen(
            _replay_argv(trial, mapping_path, artifact_path, _cpu_pair(),
                         slow_child_s=1.0),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            child = _child_of(proc.pid)
            if group:  # as a terminal's ^C reaches both
                os.killpg(proc.pid, signal.SIGINT)
            else:
                proc.send_signal(signal.SIGINT)
            sent = time.monotonic()
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        # the replay stops: the rows read so far are classified and counted
        assert proc.returncode == 0, stderr
        assert "Traceback" not in stderr and "KeyboardInterrupt" not in stderr
        stats = dict(kv.split("=")
                     for kv in stderr.splitlines()[-1].split()[1:])
        stats = {k: int(v) for k, v in stats.items()}
        assert stats["samples_in"] < 30_000
        assert stats["samples_in"] == (
            stats["malformed"] + 200 * stats["windows"]
            + stats["partial_window_drops"])
        assert time.monotonic() - sent < 3.0  # the child was not waited out
        deadline = time.monotonic() + 10
        while os.path.exists(f"/proc/{child}") and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not os.path.exists(f"/proc/{child}")


    @pytest.mark.parametrize("split", [True, False], ids=["split", "one"])
    def test_a_mostly_malformed_long_file_exits_2_with_no_output(
            self, tmp_path, mapping_path, artifact_path, split):
        lines = _fixed_lines(range(0, 1_000_000, 50))
        lines[8000:] = [_BAD_LINE] * 12_000
        trial = tmp_path / "long.csv"
        trial.write_bytes("".join(lines).encode())
        assert trial.stat().st_size > 4 * ingest.TRIAL_BLOCK_BYTES
        cpus = _cpu_pair() if split else _cpu_pair()[:1]
        proc = subprocess.run(
            _replay_argv(trial, mapping_path, artifact_path, cpus),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == "before the parse\n"
        assert proc.stderr.count("fork\n") == split
        assert "error: 12000/20000 rows malformed" in proc.stderr

    @pytest.mark.parametrize("split", [True, False], ids=["split", "one"])
    def test_replay_memory_does_not_grow_with_the_trial(
            self, tmp_path, mapping_path, artifact_path, split):
        # 200,000 rows: 6.4 MB as columns. A replay holds a few blocks and
        # their windows, and the detection lines it has not yet delivered
        rows = 200_000
        trial = tmp_path / "long.csv"
        trial.write_bytes("".join(_fixed_lines(range(0, 50 * rows, 50)))
                          .encode())
        cpus = _cpu_pair() if split else _cpu_pair()[:1]
        proc = subprocess.run(
            [sys.executable, "-c", _REPLAY_PEAKS.format(cpus=cpus), "replay",
             str(trial), "--mapping", str(mapping_path),
             "--artifact", str(artifact_path), "--speed", "max",
             "--sink", f"file:{tmp_path / 'out.jsonl'}"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out.jsonl").read_text().count("\n") == rows // 200
        grown = dict(line.split() for line in proc.stderr.splitlines()
                     if line.split()[0] in ("parent", "child"))
        assert sorted(grown) == (["child", "parent"] if split else ["parent"])
        # the artifact, a few blocks' strings and windows, and the lines
        # held until the file's totals are known
        bound = 30 * ingest.TRIAL_BLOCK_BYTES + 2 * rows
        assert bound < 32 * rows / 2
        for process, peak in grown.items():
            assert int(peak) <= bound, (process, peak)


# a replay (argv) under tracemalloc, its trial parse split over the given
# CPUs: the parent writes to stderr the peak it traced from the start, a
# forked child the peak past the fork, less what it held then
_REPLAY_PEAKS = """\
import os, sys, tracemalloc
from fallstream import cli, ingest
ingest._split_cpus = lambda: {cpus!r}
fork, exit = os.fork, os._exit
forks = []  # (traced, peak) at each fork
def forked():
    forks.append(tracemalloc.get_traced_memory())
    tracemalloc.reset_peak()
    return fork()
def exited(code):
    peak = tracemalloc.get_traced_memory()[1] - forks[-1][0]
    os.write(2, f"child {{peak}}\\n".encode())
    exit(code)
os.fork, os._exit = forked, exited
tracemalloc.start()
code = cli.main(sys.argv[1:])
peak = max([tracemalloc.get_traced_memory()[1]] + [p for _, p in forks])
os.write(2, f"parent {{peak}}\\n".encode())
sys.exit(code)
"""


class TestSampleBatch:
    def test_from_samples_round_trips(self):
        rows = [Sample("a", 0, 1.0, 2.0, 3.0, "WAL"),
                Sample("b", 5, 4.0, 5.0, 6.0, None)]
        batch = SampleBatch.from_samples(rows)
        assert batch.device_id == ["a", "b"]
        assert batch.device_index.tolist() == [0, 1]
        assert _rows(batch) == rows

    def test_one_device_collapses_to_one_id(self):
        batch = SampleBatch.from_samples(_mk_samples(3))
        assert batch.device_id == "d" and batch.labels is None
        assert _rows(batch) == _mk_samples(3)

    def test_rows_slice_every_column(self):
        rows = [Sample(f"d{i % 2}", i, float(i), 0.0, 0.0, "WAL")
                for i in range(6)]
        assert _rows(SampleBatch.from_samples(rows).rows(2, 5)) == rows[2:5]

    def test_empty(self):
        batch = SampleBatch.from_samples([])
        assert len(batch) == 0 and batch.acc.shape == (0, 3)


class TestActivityMapping:
    def test_fol_is_fall(self):
        assert map_activity_to_class("FOL") is BinaryClass.FALL

    def test_wal_is_adl(self):
        assert map_activity_to_class("WAL") is BinaryClass.ADL

    def test_unknown_code(self):
        with pytest.raises(UnknownActivity):
            map_activity_to_class("XYZ")

    def test_vocabulary_partition(self):
        falls = [c for c, v in MOBIACT_ACTIVITIES.items() if v is BinaryClass.FALL]
        adls = [c for c, v in MOBIACT_ACTIVITIES.items() if v is BinaryClass.ADL]
        assert sorted(falls) == ["BSC", "FKL", "FOL", "SDL"]
        assert len(adls) == 9
        assert len(MOBIACT_ACTIVITIES) == 13

    def test_extra_mappings(self):
        extra = {"F01": BinaryClass.FALL, "D01": BinaryClass.ADL}
        assert map_activity_to_class("F01", extra) is BinaryClass.FALL
        assert map_activity_to_class("d01", extra) is BinaryClass.ADL

    def test_case_insensitive_tokens(self):
        assert map_activity_to_class("fol") is BinaryClass.FALL


class TestAdcConversion:
    def test_zero(self):
        assert convert_adc_to_g(0, 16.0, 13) == 0.0

    def test_full_scale(self):
        # 4096 * (2 * 16 / 8192) = 16 g
        assert convert_adc_to_g(1 << 12, 16.0, 13) == 16.0

    def test_negative_symmetry(self):
        assert convert_adc_to_g(-(1 << 12), 16.0, 13) == -16.0

    @given(st.integers(-4096, 4096))
    def test_linear(self, bits):
        assert convert_adc_to_g(bits, 16.0, 13) == bits * (32.0 / 8192.0)

    def test_resolution_bounds(self):
        with pytest.raises(ConfigError):
            convert_adc_to_g(1, 16.0, 7)
        with pytest.raises(ConfigError):
            convert_adc_to_g(1, 16.0, 17)


def _mk_samples(n):
    return [Sample("d", i * 50, float(i), 0.0, 0.0) for i in range(n)]


def _replay(artifact_path, out, samples, speed):
    """Replay samples through the pipeline into a file sink."""
    return run_pipeline(PipelineConfig(
        source=ReplaySpec(samples=replay_source(samples), speed=speed),
        artifact_path=artifact_path, sinks=(f"file:{out}",)))


class TestReplaySource:
    """A replay as the pipeline's source: pacing changes when rows are
    queued, never which rows or what is detected."""

    def test_content_independent_of_pacing(self, artifact_path, tmp_path):
        samples = make_trial("fall", 450, seed=31, device_id="d")
        fast = _replay(artifact_path, tmp_path / "fast.jsonl", samples,
                       speed=math.inf)
        paced = _replay(artifact_path, tmp_path / "paced.jsonl", samples,
                        speed=2500)
        assert fast == paced
        assert (fast.samples_in, fast.windows, fast.partial_window_drops) \
            == (450, 2, 50)
        assert (tmp_path / "fast.jsonl").read_bytes() == \
            (tmp_path / "paced.jsonl").read_bytes()

    def test_pacing_duration(self, artifact_path, tmp_path):
        t0 = time.monotonic()
        stats = _replay(artifact_path, tmp_path / "out.jsonl",
                        _mk_samples(100), speed=50.0)
        elapsed = time.monotonic() - t0
        assert stats.samples_in == stats.partial_window_drops == 100
        # rows 50 ms apart at 50 times their clock: 99 steps in about 0.1 s
        assert elapsed >= 0.09

    def test_max_speed_is_immediate(self, artifact_path, tmp_path):
        t0 = time.monotonic()
        stats = _replay(artifact_path, tmp_path / "out.jsonl",
                        _mk_samples(2000), speed=math.inf)
        assert time.monotonic() - t0 < 0.5
        assert stats.samples_in == 2000 and stats.windows == 10

    def test_empty_sequence(self, artifact_path, tmp_path):
        stats = _replay(artifact_path, tmp_path / "out.jsonl", [],
                        speed=1.0)
        assert stats.samples_in == stats.detections == 0

    def test_bad_speed(self):
        for speed in (0.0, -1.0, math.nan, -math.inf, -0.0):
            with pytest.raises(ConfigError):
                ReplaySpec(samples=replay_source([]), speed=speed)


class TestWireProtocol:
    def test_valid_line(self):
        s = parse_wire_line("dev1,1000,0.10,9.80,0.00")
        # (device_id, t_ms, ax, ay, az): the wire carries no label
        assert s == ("dev1", 1000, 0.1, 9.8, 0.0)

    def test_bad_timestamp(self):
        assert parse_wire_line("dev1,abc,0.1,9.8,0.0") is None
        # timestamps are int64 columns downstream
        assert parse_wire_line(f"dev1,{2**63},0.1,9.8,0.0") is None
        assert parse_wire_line(f"dev1,{2**63 - 1},0.1,9.8,0.0") is not None

    def test_bad_device_id(self):
        assert parse_wire_line("bad dev,1000,0.1,9.8,0.0") is None
        assert parse_wire_line("a" * 65 + ",1000,0.1,9.8,0.0") is None

    def test_wrong_field_count(self):
        assert parse_wire_line("dev1,1000,0.1,9.8") is None
        assert parse_wire_line("dev1,1000,0.1,9.8,0.0,extra") is None

    def test_non_finite_rejected(self):
        assert parse_wire_line("dev1,1000,inf,9.8,0.0") is None

    def test_crlf_tolerated(self):
        assert parse_wire_line("dev1,1000,0.1,9.8,0.0\r") is not None


_wire_valid = st.builds(
    lambda *fields: ",".join(fields).encode(),
    st.one_of(st.sampled_from(["a", "b", "dev-1"]),
              st.from_regex(r"[A-Za-z0-9_-]{1,64}", fullmatch=True)),
    st.integers(-2**63, 2**63 - 1).map(str),
    *[st.floats(allow_nan=False, allow_infinity=False).map(repr)] * 3,
)
# valid too: forms int() and float() accept, and CRs before the newline
_wire_accepted = st.sampled_from([
    b"a, 10 , 1.5,2,3", b"a,1_0,1_0.5,2e-3,3", b"b,+7,-0.0,1E3,.5",
    b"a,5,1,2,3\r", b"b,6,1,2, 3 \r\r", "a,\u0663,\u0661.5,2,3".encode(),
    b"a,1,2,3," + b" " * (MAX_LINE_BYTES - 9) + b"4",  # exactly the cap
])
_wire_malformed = st.sampled_from([
    b"", b"a,1,2,3", b"a,1,2,3,4,5", b",,,,", b",1,2,3,4",
    b"bad dev,1,2,3,4", b"a" * 65 + b",1,2,3,4", b"a\r,1,2,3,4",
    f"a,{2**63},1,2,3".encode(), f"a,{-2**63 - 1},1,2,3".encode(),
    b"a,1,inf,2,3", b"a,1,2,nan,3", b"a,1,2,3,-Infinity", b"a,1.5,1,2,3",
    b"a,x,1,2,3", b"a,1,,2,3", b"a,1,2,3,\r", b"a,1,\xff,2,3",
    b"\xc3(,1,2,3,4", b"a,1,2,3," + b" " * (MAX_LINE_BYTES - 8) + b"4",
    b"7,1,2,3",
])


def _through(handler: str, block: bytes):
    """(emitted batches, stats, last_t) of one read's lines on fresh
    counters: sent through SocketSource's column parse ("block"), or the
    reference ("lines"): each line parsed alone by parse_wire_line, the
    rows it accepts emitted as one batch, regressions counted row by row."""
    got, last_t = [], {}
    if handler == "lines":
        stats, rows = PipelineStats(), []
        for raw in block.split(b"\n"):
            try:
                row = parse_wire_line(raw.decode("utf-8"))
            except UnicodeDecodeError:
                row = None
            if row is None or len(raw) > MAX_LINE_BYTES:
                stats.malformed += 1
            else:
                rows.append(row)
        stats.samples_in = block.count(b"\n") + 1
        stats.timestamp_regressions = _regressions_row_by_row(
            [r[0] for r in rows], [r[1] for r in rows], last_t)
        if rows:
            ids = list(dict.fromkeys(r[0] for r in rows))
            got.append(SampleBatch(
                ids, np.array([r[1] for r in rows], dtype=np.int64),
                np.array([r[2:] for r in rows], dtype=np.float64),
                device_index=np.array([ids.index(r[0]) for r in rows],
                                      dtype=np.uint32)))
        return got, stats, last_t
    source = SocketSource(ingest.bind_listener("127.0.0.1", 0),
                          emit=got.append, stats=PipelineStats())
    try:
        source._handle_block(block, last_t)
    finally:
        source.close()
    return got, source.stats, last_t


def _regressions_row_by_row(ids, t_ms, last_t):
    """Timestamp regressions counted one row at a time: the reference for
    the per-device count of a read."""
    regressions = 0
    for device_id, t in zip(ids, t_ms):
        prev = last_t.get(device_id)
        if prev is not None and t < prev:
            regressions += 1
        last_t[device_id] = t
    return regressions


class TestWireBlock:
    @settings(max_examples=300)
    # 4n commas in all, but 5 and 3 (or 3 and 5) on adjacent lines
    @example([b"a,1,2,3,4,5", b"7,1,2,3"])
    @example([b"a,1,2,3", b"7,1,2,3,4,5"])
    # lines one byte under, at and over the cap
    @example([b"a,1,2,3," + b" " * n + b"4"
              for n in (MAX_LINE_BYTES - 10, MAX_LINE_BYTES - 9)])
    @example([b"a,1,2,3," + b" " * (MAX_LINE_BYTES - 8) + b"4"])
    # device z sends only malformed lines: it is not named
    @example([b"a,1,2,3,4", b"z,x,1,2,3", b"b,2,2,3,4", b"z,1,inf,2,3"])
    # only malformed lines: nothing is emitted, the counters still move
    @example([b"a,1,2,3", b"bad dev,1,2,3,4", b""])
    @example([b"a,1,2,3,4", f"a,{2**63},1,2,3".encode(), b"a,2,2,3,4"])
    # invalid UTF-8 in the id, in t_ms and in an axis
    @example([b"a,1,2,3,4", b"\xffa,2,2,3,4", b"a,\xff3,2,3,4",
              b"a,4,2,\xff,4", b"a,5,2,3,4"])
    @example([b"a,1,2,3,4", b"a,2,2,3," + b" " * (MAX_LINE_BYTES - 8) + b"4",
              b"a,3,2,3,4"])
    # a refused t_ms and a refused axis on one line: one malformed line
    @example([b"a,1,2,3,4", b"a,x,2,y,4", b"a,3,2,3,4"])
    @given(st.one_of(
        st.lists(st.one_of(_wire_valid, _wire_accepted), min_size=1,
                 max_size=30),
        st.lists(st.one_of(_wire_valid, _wire_accepted, _wire_malformed),
                 min_size=1, max_size=30),
    ))
    def test_block_equals_line_by_line(self, lines):
        block = b"\n".join(lines)
        got, stats, last_t = _through("block", block)
        want, want_stats, want_last_t = _through("lines", block)
        assert stats == want_stats and last_t == want_last_t
        assert len(got) == len(want) <= 1
        for batch, ref in zip(got, want):
            # the same ids in order of first appearance, the same index
            assert batch.device_id == ref.device_id
            assert batch.device_index.dtype == ref.device_index.dtype \
                == np.uint32
            assert batch.device_index.tobytes() == ref.device_index.tobytes()
            assert batch.t_ms.dtype == ref.t_ms.dtype == np.int64
            assert batch.t_ms.tobytes() == ref.t_ms.tobytes()
            assert batch.acc.shape == ref.acc.shape
            assert batch.acc.tobytes() == ref.acc.tobytes()
        assert parse_wire_block(block)[1] == want_stats.malformed

    def test_all_valid_block_is_one_batch(self):
        lines = [f"d{i % 3},{i * 50},{i / 7!r},9.8,-0.5" for i in range(480)]
        batch, rejected = parse_wire_block("\n".join(lines).encode())
        assert rejected == 0 and len(batch) == 480
        assert batch.device_id == ["d0", "d1", "d2"]
        assert batch.device_index.tolist() == [i % 3 for i in range(480)]
        assert batch.t_ms.tolist() == [i * 50 for i in range(480)]
        assert batch.acc[:, 0].tolist() == [i / 7 for i in range(480)]

    @pytest.mark.parametrize("handler", ["block", "lines"])
    def test_only_a_step_back_is_a_regression(self, handler):
        block = b"\n".join(b"d,%d,1,2,3" % t for t in (5, 5, 9, 4, 4, 9))
        _, stats, last_t = _through(handler, block)
        assert stats.timestamp_regressions == 1 and last_t == {"d": 9}

    @given(rows=st.lists(st.tuples(st.sampled_from("abcd"),
                                   st.integers(0, 6)), max_size=80),
           cuts=st.lists(st.integers(0, 80), max_size=5))
    def test_grouped_regression_count_equals_a_row_loop(self, rows, cuts):
        # small clocks give steps back and equal timestamps; the reads
        # share one connection's last_t, and a read of one device is a
        # one-id batch
        bounds = sorted({0, len(rows), *(c for c in cuts if c < len(rows))})
        got = want = 0
        got_last, want_last = {}, {}
        for a, b in zip(bounds, bounds[1:]):
            read = rows[a:b]
            batch = SampleBatch.from_samples(
                [Sample(d, t, 1.0, 2.0, 3.0) for d, t in read])
            got += ingest._count_regressions(batch, got_last)
            want += _regressions_row_by_row([d for d, _ in read],
                                            [t for _, t in read], want_last)
        assert got == want
        assert got_last == want_last

    def test_one_bad_line_is_left_out_alone(self):
        lines = [f"d,{i},1,2,3" for i in range(100)]
        lines[57] = "d,57,1,2"
        batch, rejected = parse_wire_block("\n".join(lines).encode())
        assert len(batch) == 99 and rejected == 1
        assert batch.t_ms.tolist() == [i for i in range(100) if i != 57]
        got, stats, _ = _through("block", "\n".join(lines).encode())
        assert stats.samples_in == 100 and stats.malformed == 1
        assert len(got[0]) == 99


def _connect_and_send(port, payload: bytes):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall(payload)


def _collecting_source():
    """A SocketSource on a free port, the list its batches land in and the
    port."""
    got = []
    listener = ingest.bind_listener("127.0.0.1", 0)
    source = SocketSource(listener,
                          emit=lambda batch: got.extend(_rows(batch)),
                          stats=PipelineStats())
    return source, got, listener.getsockname()[1]


def _poll_until(source, condition, timeout=10.0):
    """Drive the source's selector passes on this thread until condition()."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        source.poll(0.01)
    assert condition()


def _poll_for(source, seconds):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        source.poll(0.01)


def _send_polling(source, conn, payload: bytes):
    """Send in READ_BYTES pieces with a pass after each, so the kernel
    buffers never hold more than a piece or two."""
    for i in range(0, len(payload), READ_BYTES):
        conn.sendall(payload[i:i + READ_BYTES])
        source.poll(0)


def _lines(device, times) -> bytes:
    return b"".join(f"{device},{t},1,2,3\n".encode() for t in times)


class TestSocketSource:
    def test_lines_become_samples_in_order(self):
        source, got, port = _collecting_source()
        payload = b"".join(
            f"dev1,{i * 50},0.1,9.8,0.0\n".encode() for i in range(10)
        )
        _connect_and_send(port, payload)
        _poll_until(source, lambda: len(got) == 10)
        source.close()
        assert [s.t_ms for s in got] == [i * 50 for i in range(10)]
        assert source.stats.samples_in == 10
        assert source.stats.malformed == 0

    def test_malformed_lines_counted_and_dropped(self):
        source, got, port = _collecting_source()
        _connect_and_send(
            port, b"dev1,abc,0.1,9.8,0.0\ndev1,100,0.1,9.8,0.0\n")
        _poll_until(source, lambda: source.stats.samples_in == 2)
        source.close()
        assert len(got) == 1
        assert source.stats.malformed == 1
        assert source.stats.samples_in == 2

    def test_two_devices_keep_their_own_order(self):
        source, got, port = _collecting_source()
        a = b"".join(f"a,{i},1,2,3\n".encode() for i in range(20))
        b = b"".join(f"b,{i},1,2,3\n".encode() for i in range(20))
        _connect_and_send(port, a)
        _connect_and_send(port, b)
        _poll_until(source, lambda: len(got) == 40)
        source.close()
        for dev in ("a", "b"):
            ts = [s.t_ms for s in got if s.device_id == dev]
            assert ts == sorted(ts) and len(ts) == 20

    def test_close_counts_open_tails_and_starts_no_thread(self):
        before = threading.active_count()
        source, got, port = _collecting_source()
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as conn:
            conn.sendall(b"d,1,1,2,3\nd,2,1,")
            _poll_until(source, lambda: len(got) == 1)
            assert threading.active_count() == before
            t0 = time.monotonic()
            source.close()
            assert time.monotonic() - t0 < 1.0
            # the open connection's half line is counted once, at close
            assert source.stats.samples_in == 2
            assert source.stats.malformed == 1
            assert conn.recv(1) == b""  # the server's end is closed
        # so is the listener: its port can be bound again
        with socket.socket() as again:
            again.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            again.bind(("127.0.0.1", port))

    # a blank last line counts the same with and without its newline
    @pytest.mark.parametrize("payload", [
        b"d,1,1,2,3\n \n", b"d,1,1,2,3\n ", b"d,1,1,2,3\n\r\n",
        b"d,1,1,2,3\n\r"])
    def test_blank_tail_at_disconnect_is_malformed(self, payload):
        source, got, port = _collecting_source()
        _connect_and_send(port, payload)
        _poll_until(source, lambda: source.stats.samples_in == 2)
        _poll_for(source, 0.1)
        source.close()
        assert [s.t_ms for s in got] == [1]
        assert (source.stats.samples_in, source.stats.malformed) == (2, 1)

    def test_unterminated_line_dropped_once_it_passes_the_cap(self):
        source, got, port = _collecting_source()
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as conn:
            _send_polling(source, conn, b"7" * 100_000)
            _poll_until(source, lambda: source.stats.malformed > 0, 5)
            # counted before any newline arrives: nothing past the cap is kept
            assert source.stats.malformed == 1
            _send_polling(source, conn, b"7" * 100_000 + b"\nd,1,1,2,3\n")
        _poll_until(source, lambda: len(got) == 1)
        _poll_for(source, 0.1)
        source.close()
        assert [s.t_ms for s in got] == [1]
        assert source.stats.malformed == 1
        assert source.stats.samples_in == 2

    def test_line_longer_than_cap_is_malformed(self):
        source, got, port = _collecting_source()
        padded = b"d,1,1,2," + b" " * MAX_LINE_BYTES + b"3\n"
        assert parse_wire_line(padded.decode()) is not None  # only too long
        # whole within one recv, then split so the cap cuts it while buffered
        _connect_and_send(port, padded + b"d,2,1,2,3\n")
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.sendall(padded[:-20])
            _poll_for(source, 0.1)
            conn.sendall(padded[-20:] + b"d,3,1,2,3\n")
        _poll_until(source, lambda: source.stats.samples_in == 4)
        _poll_for(source, 0.1)
        source.close()
        assert sorted(s.t_ms for s in got) == [2, 3]
        assert source.stats.malformed == 2
        assert source.stats.samples_in == 4

    def test_closed_connections_are_forgotten(self):
        before = set(threading.enumerate())
        source, got, port = _collecting_source()
        registered = source._selector.get_map()
        try:
            for i in range(200):
                _connect_and_send(port, f"d,{i},1,2,3\n".encode())
                source.poll(0)  # keeps the listen backlog short
            # a connection may still wait in the listen backlog
            _poll_until(source, lambda: (len(registered) == 1
                                         and source.stats.samples_in == 200))
            # only the listener is left
            assert [key.fileobj.getsockname()[1]
                    for key in registered.values()] == [port]
            # and no thread was started
            assert set(threading.enumerate()) == before
            assert source.stats.samples_in == len(got) == 200
        finally:
            source.close()

    def test_one_backwards_step_counts_one_regression(self):
        source, got, port = _collecting_source()
        _connect_and_send(port, _lines("d", [100, 200, 150, 300]))
        _poll_until(source, lambda: len(got) == 4)
        source.close()
        assert source.stats.timestamp_regressions == 1

    def test_reconnect_with_restarted_clock_is_no_regression(self):
        source, got, port = _collecting_source()
        _connect_and_send(port, _lines("d", range(0, 1000, 50)))
        _poll_until(source, lambda: len(got) == 20)
        _connect_and_send(port, _lines("d", range(0, 500, 50)))
        _poll_until(source, lambda: len(got) == 30)
        source.close()
        assert source.stats.timestamp_regressions == 0

    def test_connections_sharing_an_id_count_only_their_own_regressions(self):
        source, got, port = _collecting_source()
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as a, \
                socket.create_connection(("127.0.0.1", port),
                                         timeout=5) as b:
            # the two clocks interleave; only b steps back on its own
            a.sendall(_lines("d", range(10)))
            _poll_until(source, lambda: len(got) == 10)
            b.sendall(_lines("d", [1000, 1009, 1005]))
            _poll_until(source, lambda: len(got) == 13)
            a.sendall(_lines("d", range(10, 20)))
            _poll_until(source, lambda: len(got) == 23)
        source.close()
        assert source.stats.timestamp_regressions == 1

    def test_failed_accept_leaves_the_source_serving(self, monkeypatch):
        real_accept = socket.socket.accept
        failures = []

        def accept_failing_once(sock):
            if not failures:
                failures.append(sock)
                raise OSError(errno.EMFILE, "Too many open files")
            return real_accept(sock)

        monkeypatch.setattr(socket.socket, "accept", accept_failing_once)
        source, got, port = _collecting_source()
        try:
            _connect_and_send(port, _lines("a", [1]))
            _connect_and_send(port, _lines("b", [2]))
            _poll_until(source, lambda: len(got) == 2, timeout=5)
        finally:
            source.close()
        assert len(failures) == 1
        assert sorted(s.device_id for s in got) == ["a", "b"]

    def test_thread_count_does_not_grow_with_connections(self):
        before = threading.active_count()
        source, got, port = _collecting_source()
        conns, counts = [], []
        try:
            for k in range(50):
                conns.append(socket.create_connection(
                    ("127.0.0.1", port), timeout=5))
                conns[-1].sendall(_lines(f"d{k}", [k]))
                _poll_until(source, lambda: len(got) == k + 1)
                counts.append(threading.active_count())
            # the same with 1, 2, ... and 50 connections open: none started
            assert set(counts) == {before}
        finally:
            for conn in conns:
                conn.close()
            source.close()

    def test_bind_failure_is_fatal(self):
        holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        port = holder.getsockname()[1]
        try:
            with pytest.raises(OSError):
                ingest.bind_listener("127.0.0.1", port)
        finally:
            holder.close()
