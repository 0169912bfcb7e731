"""Tests for CSV ingestion, the command-line harness and report emission."""

import errno
import io
import json
from pathlib import Path

import numpy as np
import pytest

from qrelieff import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateSampleError,
    NoSolutionError,
    PipelineConfig,
    PostselectionError,
    QReliefFError,
    RngStream,
    RunConfig,
    SearchFailedError,
    normalize,
    qrelieff_run,
    relieff_run,
    select_features,
)
from qrelieff.cli import build_parser, example_csv_path, load_csv, run_cli
from qrelieff.pipeline import check_quantum_input
from qrelieff.program3 import Program3Result
from qrelieff.relieff import IterationRecord, NeighborSet, ReliefFResult
from qrelieff.report import canonical_body, neighbor_agreement, render_program3_text, schema
from similarity_log import assert_similarity_log_shape

jsonschema = pytest.importorskip("jsonschema")

DATA = Path(__file__).parent / "data"


def run(argv):
    out = io.StringIO()
    code = run_cli(argv, out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def fixture_path():
    return str(example_csv_path())


class TestLoadCsv:
    def test_fixture_parses(self, fixture_path):
        ds, class_names = load_csv(fixture_path)
        assert ds.n_samples == 6
        assert ds.n_features == 6
        assert ds.n_classes == 3
        assert class_names == ["A", "B", "C"]
        assert ds.feature_names == [f"F{i}" for i in range(6)]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "nope.csv")

    def test_non_numeric_cell_named(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,class\n1,x,A\n2,3,B\n")
        with pytest.raises(DataError, match=r"row 2.*'b'"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_named(self, tmp_path, cell):
        # a number the run cannot use names its sample, as Dataset counts them
        p = tmp_path / "bad.csv"
        p.write_text(f"a,b,class\n1,2,A\n3,{cell},B\n")
        with pytest.raises(DataError) as info:
            load_csv(p)
        assert str(info.value) == (
            f"{p}: sample 1 (counting from 0), feature 'b' is not finite: {cell}"
        )

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(p)

    def test_single_row_rejected(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("a,class\n1,A\n")
        with pytest.raises(DataError, match="at least 2"):
            load_csv(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b,class\n1,2,A\n3,B\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(p)

    @pytest.mark.parametrize("header, row, names", [
        ("class,a,b", "A,1,2", ["a", "b"]),
        ("a,class,b", "1,A,2", ["a", "b"]),
    ])
    def test_byte_order_mark_dropped(self, tmp_path, header, row, names):
        # a UTF-8 byte-order mark before the first header cell, label first
        # or a feature first
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + f"{header}\n{row}\n{row.replace('A', 'B')}\n".encode())
        ds, class_names = load_csv(p)
        assert ds.feature_names == names
        assert class_names == ["A", "B"]
        assert ds.samples.tolist() == [[1.0, 2.0], [1.0, 2.0]]


class TestRunCli:
    def test_worked_example_selection(self, fixture_path):
        code, out = run(
            ["--input", fixture_path, "--backend", "both", "--pick", "round-robin",
             "--k", "1", "--T", "4", "--tau", "0.5", "--seed", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["classical"]["selected_features"] == ["F0", "F1", "F2"]
        assert doc["results"]["quantum"]["selected_features"] == ["F0", "F1", "F2"]
        assert doc["agreement"]["neighbors_all_equal"] is True
        assert doc["agreement"]["selected_equal"] is True

    def test_tau_out_of_range(self, fixture_path):
        code, _ = run(["--input", fixture_path, "--tau", "1.5"])
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shots", "0"],
            ["--mode", "sampled", "--shots", "0"],
            ["--backend", "classical", "--shots", "0"],
            ["--backend", "classical", "--ae-bits", "99"],
            ["--backend", "classical", "--ae-bits", "0"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_flags_outside_report_schema_rejected(self, fixture_path, flags):
        # every report the CLI writes must validate, whichever backend runs
        code, out = run(["--input", fixture_path, *flags])
        assert code == 2
        assert out == ""

    def test_missing_input_flag(self):
        code, _ = run(["--backend", "classical"])
        assert code == 2

    def test_unknown_flag(self):
        code, _ = run(["--frobnicate"])
        assert code == 2

    def test_data_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,class\nx,A\ny,B\n")
        code, _ = run(["--input", str(p)])
        assert code == 3

    @pytest.mark.parametrize("target, reason", [
        ("", "cannot read: Is a directory"),
        ("binary.csv", "not UTF-8 text: invalid start byte at byte 8"),
    ])
    def test_unreadable_input_is_one_data_error_line(self, tmp_path, capsys, target, reason):
        path = tmp_path / target
        if target:
            path.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\n")
        code, out = run(["--input", str(path), "--backend", "classical"])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == f"data error: {path}: {reason}\n"

    def test_capacity_error_exit_code(self, fixture_path, monkeypatch):
        def boom(*args, **kwargs):
            raise CapacityError("register too wide")

        monkeypatch.setattr("qrelieff.cli.qrelieff_run", boom)
        code, _ = run(["--input", fixture_path, "--backend", "quantum"])
        assert code == 4

    @pytest.mark.parametrize(
        "error, code, message",
        [
            (MemoryError(), 4, "capacity error: out of memory"),
            (MemoryError("Unable to allocate 8.00 GiB"), 4, "8.00 GiB"),
            (PostselectionError("branch has probability 0"), 5, "internal error"),
            (NoSolutionError("no marked elements"), 5, "internal error"),
            (SearchFailedError("16 searches in a row"), 5, "internal error"),
            (ConfigError("bad flag"), 2, "configuration error"),
            (DataError("bad cell"), 3, "data error"),
            (DegenerateSampleError("zero-norm row"), 3, "zero-norm row"),
            pytest.param(QReliefFError("class has only the picked sample"), 5,
                         "internal error: QReliefFError: class has only",
                         id="QReliefFError-5-internal error"),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else None,
    )
    def test_exit_code_names_the_cause(self, fixture_path, monkeypatch, capsys,
                                       error, code, message):
        def boom(*args, **kwargs):
            raise error

        monkeypatch.setattr("qrelieff.cli.qrelieff_run", boom)
        assert run(["--input", fixture_path, "--backend", "quantum"]) == (code, "")
        assert message in capsys.readouterr().err

    def test_program_fault_in_dataset_is_internal_error(self, fixture_path, monkeypatch, capsys):
        # load_csv adds its path to a DataError only; anything else is not bad input
        def boom(*args, **kwargs):
            raise QReliefFError("broken check")

        monkeypatch.setattr("qrelieff.cli.Dataset", boom)
        assert run(["--input", fixture_path, "--backend", "classical"]) == (5, "")
        assert capsys.readouterr().err == "internal error: QReliefFError: broken check\n"

    @pytest.mark.parametrize("flags", [
        ["--mode", "sampled"],
        ["--backend", "classical"],
        ["--reproduce-program3"],
    ])
    def test_shots_beyond_int64_is_config_error(self, fixture_path, capsys, flags):
        # numpy draws shot counts as int64, so 2**63 would overflow the draw
        code, out = run(["--input", fixture_path, "--shots", str(2**63), *flags])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"configuration error: shots must be <= {2**63 - 1}, got {2**63}\n"
        )

    def test_largest_shot_count_runs(self):
        assert run(["--reproduce-program3", "--shots", str(2**63 - 1)])[0] == 0

    def test_capacity_error_from_register_width(self, fixture_path, monkeypatch):
        # the example's swap-test composite has 17 qubits
        monkeypatch.setattr("qrelieff.statevector.MAX_QUBITS", 16)
        code, _ = run(["--input", fixture_path, "--backend", "quantum"])
        assert code == 4

    @pytest.mark.parametrize("flags", [
        ["--backend", "classical"],
        ["--backend", "quantum"],
        ["--reproduce-program3", "--shots", "8"],
    ])
    def test_negative_seed_is_config_error(self, fixture_path, capsys, flags):
        code, out = run(["--input", fixture_path, "--seed", "-1", *flags])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "configuration error: seed must be a nonnegative integer, got -1\n"
        )
        with pytest.raises(ConfigError, match="got -3"):
            RngStream(-3)

    def test_program3_zero_shots_is_config_error(self, monkeypatch):
        def final_state():
            raise AssertionError("circuit built before the shot count was checked")

        monkeypatch.setattr("qrelieff.program3.final_state", final_state)
        code, _ = run(["--reproduce-program3", "--shots", "0"])
        assert code == 2

    def test_output_file(self, fixture_path, tmp_path):
        target = tmp_path / "report.json"
        code, rendered = run(
            ["--input", fixture_path, "--backend", "classical",
             "--pick", "round-robin", "--output", str(target), "--emit-iterations"]
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert "classical" in doc["results"]
        assert "selected:" in rendered

    @pytest.mark.parametrize(
        "flags, entry",
        [
            (["--backend", "classical"], "relieff_run"),
            (["--reproduce-program3"], "reproduce_program3"),
        ],
        ids=["classical", "program3"],
    )
    def test_output_directory_checked_before_any_run(
        self, fixture_path, tmp_path, monkeypatch, capsys, flags, entry
    ):
        def boom(*args, **kwargs):
            raise AssertionError("ran before --output was checked")

        monkeypatch.setattr(f"qrelieff.cli.{entry}", boom)
        missing = tmp_path / "missing" / "r.json"
        for target, reason in (
            (missing, f"{missing.parent} is not a directory"),
            (tmp_path, "it is a directory"),
        ):
            code, out = run(["--input", fixture_path, *flags, "--output", str(target)])
            assert (code, out) == (2, "")
            assert capsys.readouterr().err == (
                f"configuration error: --output {target}: {reason}\n"
            )

    def test_output_write_error_is_one_line(self, tmp_path, monkeypatch, capsys):
        def full_disk(self, *args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full_disk)
        target = tmp_path / "r.json"
        code, out = run(["--reproduce-program3", "--shots", "8", "--output", str(target)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"configuration error: cannot write --output {target}: No space left on device\n"
        )

    def test_defaults_match_documented_values(self):
        args = build_parser().parse_args([])
        assert (args.backend, args.k, args.T, args.tau) == ("both", 1, 4, 0.5)
        assert (args.pick, args.order, args.mode) == ("random", "max", "exact")
        assert (args.shots, args.ae_bits, args.ae_circuit) == (1024, 6, "reduced")
        assert args.label_col == "class"


@pytest.fixture
def backend_calls(monkeypatch):
    """Counts the CLI's calls of each backend; the backends still run."""
    calls = {"classical": 0, "quantum": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr("qrelieff.cli.relieff_run", counted("classical", relieff_run))
    monkeypatch.setattr("qrelieff.cli.qrelieff_run", counted("quantum", qrelieff_run))
    return calls


@pytest.fixture
def no_encoding(monkeypatch):
    def prepare_states(nd):
        raise AssertionError("samples encoded before the input was checked")

    monkeypatch.setattr("qrelieff.pipeline.prepare_states", prepare_states)


class TestOneClassInput:
    """ReliefF needs a miss class, so one class is a data error on every path."""

    @pytest.fixture
    def one_class_csv(self, tmp_path):
        p = tmp_path / "one_class.csv"
        p.write_text("a,b,class\n1,0,A\n1,1,A\n")
        return str(p)

    @pytest.mark.parametrize(
        "run_fn, cfg",
        [
            (relieff_run, RunConfig()),
            (qrelieff_run, PipelineConfig()),
            (qrelieff_run, PipelineConfig(ae_circuit="full", ae_bits=10)),
        ],
        ids=["classical", "quantum", "quantum-full"],
    )
    def test_library_run(self, one_class_csv, run_fn, cfg):
        dataset, _ = load_csv(one_class_csv)  # the dataset itself is valid
        nd, stats = normalize(dataset)
        with pytest.raises(DataError, match="at least 2 classes, got 1"):
            run_fn(nd, cfg, RngStream(0), stats)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--backend", "classical"],
            ["--backend", "quantum"],
            ["--backend", "both"],
            ["--backend", "both", "--ae-circuit", "full", "--ae-bits", "10"],
        ],
        ids=["classical", "quantum", "both", "both-full"],
    )
    def test_cli_exit_code(self, one_class_csv, capsys, flags):
        assert run(["--input", one_class_csv, *flags]) == (3, "")
        assert "data error: ReliefF needs at least 2 classes" in capsys.readouterr().err

    def test_cli_rejects_before_either_backend(self, one_class_csv, capsys, backend_calls):
        flags = ["--backend", "both", "--ae-circuit", "full", "--ae-bits", "10"]
        assert run(["--input", one_class_csv, *flags]) == (3, "")
        assert "data error: ReliefF needs at least 2 classes" in capsys.readouterr().err
        assert backend_calls == {"classical": 0, "quantum": 0}


class TestFullCircuitFeatureCount:
    """Amplitude estimation of the ``full`` circuit needs its preparation to be
    a unitary circuit, and the encoding is one only for N a power of two (2 or
    more; any other N encodes by postselection).  Any other N is a data error
    before any sample is encoded."""

    @pytest.fixture(params=[1, 3, 6], ids=lambda n: f"N={n}")
    def csv_path(self, request, tmp_path):
        n = request.param
        rng = np.random.default_rng(n)
        header = ",".join(f"f{i}" for i in range(n)) + ",class"
        rows = [",".join(f"{v:.3f}" for v in rng.random(n) + 0.1) + f",{c}" for c in "AABB"]
        p = tmp_path / "features.csv"
        p.write_text("\n".join([header, *rows]) + "\n")
        return str(p), n

    @pytest.mark.parametrize("entry", ["library", "quantum", "both"])
    def test_data_error_names_n(self, csv_path, no_encoding, capsys, entry):
        path, n = csv_path
        message = f"power-of-two feature count of 2 or more, got N={n}"
        if entry == "library":
            nd, stats = normalize(load_csv(path)[0])
            with pytest.raises(DataError, match=message):
                qrelieff_run(nd, PipelineConfig(ae_circuit="full"), RngStream(0), stats)
            return
        assert run(["--input", path, "--backend", entry, "--ae-circuit", "full"]) == (3, "")
        assert f"data error: ae_circuit 'full' needs a {message}" in capsys.readouterr().err

    def test_cli_rejects_before_either_backend(self, csv_path, capsys, backend_calls):
        path, n = csv_path
        assert run(["--input", path, "--backend", "both", "--ae-circuit", "full"]) == (3, "")
        assert (
            f"data error: ae_circuit 'full' needs a power-of-two feature count of 2 or more, "
            f"got N={n}" in capsys.readouterr().err
        )
        assert backend_calls == {"classical": 0, "quantum": 0}


class TestNegativeFeatureValue:
    """The encoding writes the feature values as amplitudes, so the quantum
    backend refuses a negative one, naming its sample and column, before
    either backend runs; the classical backend takes it."""

    MESSAGE = "data error: sample 2 (counting from 0), feature 'b' is negative"

    @pytest.fixture
    def csv_path(self, tmp_path):
        p = tmp_path / "negative.csv"
        p.write_text("a,b,class\n1,0.5,A\n0.2,0.3,A\n0.4,-0.1,B\n0.5,0.1,B\n")
        return str(p)

    def test_library_run(self, csv_path, no_encoding):
        nd, stats = normalize(load_csv(csv_path)[0])
        with pytest.raises(DataError, match=r"sample 2 \(counting from 0\), feature 'b' is negative"):
            qrelieff_run(nd, PipelineConfig(), RngStream(0), stats)

    @pytest.mark.parametrize("backend", ["quantum", "both"])
    def test_cli_rejects_before_either_backend(self, csv_path, tmp_path, capsys, backend_calls,
                                               backend):
        output = tmp_path / "report.json"
        assert run(["--input", csv_path, "--backend", backend, "--output", str(output)]) == (3, "")
        assert self.MESSAGE in capsys.readouterr().err
        assert backend_calls == {"classical": 0, "quantum": 0}
        assert not output.exists()

    def test_classical_backend_runs(self, csv_path, capsys):
        code, out = run(["--input", csv_path, "--backend", "classical"])
        assert code == 0
        assert list(json.loads(out)["results"]) == ["classical"]


class TestZeroRow:
    """A sample of all zeros cannot be normalized, on any backend.  The
    error counts samples from 0, as the negative-value error does, and says
    so: the load errors count CSV lines from the header, so this sample is
    on row 3."""

    MESSAGE = "error: sample 1 (counting from 0) has zero norm"

    @pytest.mark.parametrize("backend", ["classical", "quantum", "both"])
    def test_cli_names_the_sample(self, tmp_path, capsys, backend):
        p = tmp_path / "zero.csv"
        p.write_text("a,b,class\n1,0.5,A\n0,0,A\n0.4,0.1,B\n0.5,0.1,B\n")
        assert run(["--input", str(p), "--backend", backend]) == (3, "")
        assert self.MESSAGE in capsys.readouterr().err

    def test_cli_prints_a_data_error(self, tmp_path, capsys):
        """A zero row is an input fault, and its one stderr line says so."""
        p = tmp_path / "zero.csv"
        p.write_text("a,b,class\n1,2,a\n0,0,a\n1,1,b\n2,2,b\n")
        assert run(["--input", str(p)]) == (3, "")
        assert capsys.readouterr().err == "data error: sample 1 (counting from 0) has zero norm\n"


class TestRowScale:
    """Rows far below or above 1 run as any other: the squares of their raw
    values would underflow to a zero norm or overflow to inf, but the rows
    are scaled by a power of two before their norms are taken."""

    @pytest.mark.parametrize("row", ["1e-170,1e-170", "1e-160,3e-160", "1e200,1e200"])
    def test_both_backends_agree(self, tmp_path, capsys, row):
        p = tmp_path / "scale.csv"
        p.write_text(f"a,b,class\n{row},A\n1,0.5,A\n0.4,0.1,B\n0.5,0.1,B\n")
        code, out = run(["--input", str(p), "--backend", "both"])
        assert code == 0, capsys.readouterr().err
        doc = json.loads(out)
        assert doc["agreement"]["neighbors_all_equal"] is True
        assert doc["agreement"]["selected_equal"] is True


class TestCapacityPreflight:
    """The quantum backend checks its widest registers before it encodes a
    sample: the swap-test composite, 2(2 + ceil(log2 N) + ceil(log2 M)) + 1
    qubits, and under ``full`` the one-qubit amplitude estimation with its
    t_f = t + 2 ceil(log2 N) + 4 readout qubits, whose orbit, FFT result and
    readout state of 1 + t_f qubits are charged four states: 3 + t_f qubits."""

    @staticmethod
    def write_csv(path, m, n):
        rng = np.random.default_rng(m + n)
        header = ",".join(f"f{i}" for i in range(n)) + ",class"
        rows = [",".join(f"{v:.3f}" for v in rng.random(n) + 0.1) + f",c{r % 2}" for r in range(m)]
        path.write_text("\n".join([header, *rows]) + "\n")
        return str(path)

    def test_library_rejects_wide_composite(self, tmp_path, no_encoding):
        # M=512, N=16: 2(2 + 4 + 9) + 1 = 31 qubits
        nd, stats = normalize(load_csv(self.write_csv(tmp_path / "wide.csv", 512, 16))[0])
        with pytest.raises(CapacityError, match="qubit count 31 outside"):
            qrelieff_run(nd, PipelineConfig(T=1), RngStream(0), stats)

    def test_cli_rejects_before_classical_run(self, tmp_path, monkeypatch, capsys):
        def relieff_run(*args, **kwargs):
            raise AssertionError("classical backend ran before the width was checked")

        monkeypatch.setattr("qrelieff.cli.relieff_run", relieff_run)
        path = self.write_csv(tmp_path / "wide.csv", 512, 16)
        assert run(["--input", path, "--backend", "both", "--T", "1"]) == (4, "")
        assert "capacity error: qubit count 31 outside" in capsys.readouterr().err

    def test_full_circuit_ae_state(self, tmp_path, no_encoding, capsys):
        # M=4, N=128: a 23-qubit composite, but 3 + (10 + 2*7 + 4) = 31 AE qubits
        path = self.write_csv(tmp_path / "deep.csv", 4, 128)
        flags = ["--backend", "quantum", "--ae-circuit", "full", "--ae-bits", "10"]
        assert run(["--input", path, *flags]) == (4, "")
        assert "capacity error: qubit count 31 outside" in capsys.readouterr().err

    def test_full_circuit_charges_four_ae_states(self, tmp_path, no_encoding, capsys):
        # M=16, N=128, t=9: t_f = 27, so one state of 1 + t_f = 28 qubits
        # fits the cap, but the estimator holds about three (9 GiB)
        path = self.write_csv(tmp_path / "deep.csv", 16, 128)
        flags = ["--backend", "quantum", "--ae-circuit", "full", "--ae-bits", "9"]
        assert run(["--input", path, *flags]) == (4, "")
        assert "capacity error: qubit count 30 outside" in capsys.readouterr().err

    def test_full_circuit_within_four_ae_states(self, tmp_path):
        # t=7: t_f = 25 and 3 + t_f = 28 qubits, the cap; checked, not run
        nd, _ = normalize(load_csv(self.write_csv(tmp_path / "deep.csv", 16, 128))[0])
        check_quantum_input(nd, PipelineConfig(ae_circuit="full", ae_bits=7))


class TestSingletonPickedClass:
    """A picked sample alone in its class has no hit: every path raises the
    same data error (round-robin picks sample 0, the only member of class A)."""

    MESSAGE = "class 0 has no sample other than the picked one"

    @pytest.fixture
    def csv_path(self, tmp_path):
        p = tmp_path / "singleton.csv"
        p.write_text("a,b,class\n1,0,A\n0,1,B\n1,1,B\n")
        return str(p)

    @pytest.mark.parametrize(
        "run_fn, cfg",
        [
            (relieff_run, RunConfig(pick_policy="round-robin")),
            (qrelieff_run, PipelineConfig(pick_policy="round-robin")),
            (qrelieff_run, PipelineConfig(pick_policy="round-robin", mode="sampled")),
            (qrelieff_run, PipelineConfig(pick_policy="round-robin", ae_circuit="full")),
        ],
        ids=["classical", "quantum-exact", "quantum-sampled", "quantum-full"],
    )
    def test_library_run(self, csv_path, run_fn, cfg):
        nd, stats = normalize(load_csv(csv_path)[0])
        with pytest.raises(QReliefFError) as info:
            run_fn(nd, cfg, RngStream(0), stats)
        assert type(info.value) is DataError
        assert str(info.value) == self.MESSAGE

    @pytest.mark.parametrize("backend", ["classical", "quantum", "both"])
    def test_cli_exit_code(self, csv_path, capsys, backend):
        flags = ["--input", csv_path, "--backend", backend, "--pick", "round-robin"]
        assert run(flags) == (3, "")
        assert f"data error: {self.MESSAGE}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def report(fixture_path):
    code, out = run(
        ["--input", fixture_path, "--backend", "both", "--pick", "round-robin",
         "--seed", "2", "--emit-iterations"]
    )
    assert code == 0
    return json.loads(out)


class TestReport:
    def test_schema_validates(self, report):
        jsonschema.validate(report, schema())

    def test_round_trip_selection(self, report):
        for backend in ("classical", "quantum"):
            section = report["results"][backend]
            recomputed = select_features(
                np.array(section["average_weights"]), report["config"]["tau"]
            )
            assert recomputed == section["selected_indices"]

    def test_canonical_body_excludes_timing(self, report):
        body = canonical_body(report)
        assert '"timing"' not in body
        assert json.loads(body)["results"] == report["results"]

    def test_similarity_log_present(self, report, fixture_path):
        log = report["results"]["quantum"]["similarity_log"]
        assert len(log) == report["config"]["T"]
        assert_similarity_log_shape(report, load_csv(fixture_path)[0].labels)

    @pytest.mark.parametrize(
        "csv_name, flags",
        [
            (None, []),
            (None, ["--mode", "sampled"]),
            ("four_by_two.csv", ["--ae-circuit", "full"]),
            ("eleven_classes.csv", []),
        ],
        ids=["example6-exact", "example6-sampled", "four_by_two-full", "eleven_classes"],
    )
    def test_similarity_log_lists_every_sample_once(self, fixture_path, csv_name, flags):
        path = fixture_path if csv_name is None else str(DATA / csv_name)
        code, out = run(["--input", path, "--T", "3", "--seed", "1", "--emit-iterations", *flags])
        assert code == 0
        assert_similarity_log_shape(json.loads(out), load_csv(path)[0].labels)

    def test_neighbor_agreement_helper(self, example_normalized):
        from qrelieff import PipelineConfig, RngStream, RunConfig, qrelieff_run, relieff_run

        nd, stats = example_normalized
        c = relieff_run(nd, RunConfig(T=2, pick_policy="round-robin"), RngStream(0), stats)
        q = qrelieff_run(nd, PipelineConfig(T=2, pick_policy="round-robin"), RngStream(0), stats)
        assert neighbor_agreement(c, q) == [True, True]

    def test_neighbor_agreement_flags_each_difference(self):
        def result(*iterations):
            records = [IterationRecord(u, nb, np.zeros(2)) for u, nb in iterations]
            return ReliefFResult(np.zeros(2), records)

        same = (0, NeighborSet([1], {1: [2]}))
        other_miss = (0, NeighborSet([1], {1: [3]}))
        other_pick = (3, NeighborSet([1], {1: [2]}))
        c = result(same, same, same)
        q = result(same, other_miss, other_pick)
        assert neighbor_agreement(c, q) == [True, False, False]


class TestProgram3Flag:
    def test_reproduction_flag(self, tmp_path):
        target = tmp_path / "p3.json"
        out = io.StringIO()
        code = run_cli(
            ["--reproduce-program3", "--shots", "64", "--seed", "3",
             "--output", str(target)],
            out,
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert 0.0 <= doc["exact_p1"] <= 1.0
        assert doc["published_p1"] == 0.435125
        assert "exact P(1)" in out.getvalue()

    def test_reproduction_flag_without_output(self, capsys):
        code, out = run(["--reproduce-program3", "--shots", "64", "--seed", "3"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["shots"], doc["runs"]) == (64, 8)
        assert capsys.readouterr().err == render_program3_text(doc)
        assert f"sampled mean (8x64) = {doc['sampled_mean']:.6f}\n" in render_program3_text(doc)

    def test_text_counts_the_document_runs(self):
        doc = Program3Result(0.5, [0.5, 0.25, 0.75], 0.5, 16, 3).as_dict()
        assert "sampled mean (3x16) = 0.500000\n" in render_program3_text(doc)
