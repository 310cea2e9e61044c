import hashlib
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raldpc as rl
from raldpc import cli
from raldpc.cli import main
from raldpc.codec import _FRAME_BLOCK, _decode_batch

from _strategies import byte_edits


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def small_alist(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.alist"
    m = rl.peg_construct(64, 320, rl.DegreeProfile.interleaved_4_5(320), seed=17)
    rl.save_alist(m, path)
    return path


def test_import_loads_no_pool_or_masked_arrays():
    # every command pays for what ``import raldpc.cli`` loads: the process
    # pool, decimal (spec parsing) and numpy.random (characterization) are
    # imported on use, and np.unique, which would pull in numpy.ma, stays out
    # of the decoder's edge layout too (built with the table)
    src = pathlib.Path(rl.__file__).parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import raldpc.cli; "
        "mods = ('concurrent.futures', 'multiprocessing', 'numpy.ma'); "
        "lazy = mods + ('decimal', 'numpy.random'); "
        "print([m for m in lazy if m in sys.modules]); "
        "import raldpc as rl; "
        "m = rl.peg_construct(16, 40, rl.DegreeProfile.interleaved_4_5(40), 1); "
        "rl.build_table(m, (40, 30), (0.01, 0.05), 20, 1, 5); "
        "print([m for m in mods if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n[]\n"


def test_import_loads_no_process_modules():
    # setup_s times a fresh ``import raldpc.cli``: no module of the process
    # pool's packages may load with it
    src = pathlib.Path(rl.__file__).parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import raldpc.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


class TestGenMatrix:
    def test_default_mother_matrix(self, tmp_path):
        out = tmp_path / "mother.alist"
        assert main(["gen-matrix", "--seed", "5", "--out", str(out)]) == 0
        m = rl.load_alist(out)
        assert m.num_vars == 5120 and m.num_checks == 1024
        assert m.num_edges == 2560 * 4 + 2560 * 5 == 23040
        man = json.loads((tmp_path / "mother.alist.manifest.json").read_text())
        assert man["seed"] == 5 and man["matrix_sha256"] == rl.matrix_digest(m)

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.alist", tmp_path / "b.alist"
        args = ["gen-matrix", "--checks", "64", "--vars", "256", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert sha(a) == sha(b)

    def test_nonpositive_rate_rejected(self, tmp_path):
        out = tmp_path / "x.alist"
        code = main(
            ["gen-matrix", "--checks", "1024", "--vars", "512", "--out", str(out)]
        )
        assert code == 2 and not out.exists()

    def test_uniform_profile(self, tmp_path):
        out = tmp_path / "u.alist"
        assert main(
            ["gen-matrix", "--checks", "32", "--vars", "96",
             "--profile", "uniform:3", "--out", str(out)]
        ) == 0
        assert np.all(rl.load_alist(out).column_degrees() == 3)

    def test_unknown_profile(self, tmp_path):
        code = main(
            ["gen-matrix", "--checks", "32", "--vars", "96",
             "--profile", "magic", "--out", str(tmp_path / "x.alist")]
        )
        assert code == 2


class TestGirthProfile:
    def test_csv_output(self, small_alist, tmp_path, capsys):
        assert main(
            ["girth-profile", "--matrix", str(small_alist), "--widths", "128,192,320"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "width,girth"
        girths = [int(ln.split(",")[1]) for ln in out[1:]]
        assert all(a >= b for a, b in zip(girths, girths[1:]))

    def test_width_below_checks_rejected(self, small_alist):
        assert main(
            ["girth-profile", "--matrix", str(small_alist), "--widths", "64,128"]
        ) == 2

    def test_missing_matrix_is_io_error(self, tmp_path):
        assert main(
            ["girth-profile", "--matrix", str(tmp_path / "nope.alist"),
             "--widths", "128"]
        ) == 3

    def test_malformed_matrix_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.alist"
        bad.write_text("not an alist\n")
        assert main(["girth-profile", "--matrix", str(bad), "--widths", "8"]) == 3


class TestCharacterize:
    def test_runs_and_is_reproducible(self, small_alist, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "characterize", "--matrix", str(small_alist),
            "--widths", "320,192", "--errors", "0.010:0.030:0.010",
            "--frames", "60", "--seed", "2", "--max-iterations", "12",
        ]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert sha(a) == sha(b)
        man = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert man["frames_per_point"] == 60 and man["seed"] == 2

    def test_plateau_cells_equal_effective_rate(self, small_alist, tmp_path):
        out = tmp_path / "t.csv"
        assert main(
            ["characterize", "--matrix", str(small_alist), "--widths", "320",
             "--errors", "0.002:0.004:0.001", "--frames", "60", "--seed", "1",
             "--out", str(out)]
        ) == 0
        table = rl.load_table_csv(out)
        rate = rl.effective_rate(64, 320).rate
        zero = table.fer == 0.0
        assert zero.any()
        assert np.allclose(table.alpha[zero], rate, atol=5e-5)

    def test_empty_grid_rejected(self, small_alist, tmp_path):
        assert main(
            ["characterize", "--matrix", str(small_alist), "--widths", "320",
             "--errors", "0.02:0.01:0.001", "--frames", "10",
             "--out", str(tmp_path / "x.csv")]
        ) == 2

    def test_rate_off_the_csv_grid_rejected_before_decoding(
        self, small_alist, tmp_path, monkeypatch
    ):
        def no_decoding(*args, **kwargs):
            raise AssertionError("build_table ran")

        monkeypatch.setattr(cli, "build_table", no_decoding)
        out = tmp_path / "x.csv"
        assert main(
            ["characterize", "--matrix", str(small_alist), "--widths", "320",
             "--errors", "0.0100:0.0108:0.0004", "--frames", "10", "--out", str(out)]
        ) == 2
        assert not out.exists()

    def test_manifest_grid_equals_csv_rates(self, small_alist, tmp_path):
        out = tmp_path / "t.csv"
        assert main(
            ["characterize", "--matrix", str(small_alist), "--widths", "320",
             "--errors", "0.010:0.014:0.001", "--frames", "8", "--out", str(out)]
        ) == 0
        man = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        rows = out.read_text().splitlines()[1:]
        assert man["error_grid"] == [float(r.split(",")[0]) for r in rows]

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, small_alist, tmp_path, threads):
        out = tmp_path / "x.csv"
        assert main(
            ["characterize", "--matrix", str(small_alist), "--widths", "320",
             "--errors", "0.010:0.020:0.010", "--frames", "8",
             "--threads", threads, "--out", str(out)]
        ) == 2
        assert not out.exists()

    def test_infinite_range_rejected(self, small_alist, tmp_path):
        assert main(
            ["characterize", "--matrix", str(small_alist), "--widths", "320",
             "--errors", "0.01:inf:0.001", "--out", str(tmp_path / "x.csv")]
        ) == 2


class TestParseRange:
    def test_values_snap_to_written_decimals(self):
        assert cli._parse_range("0.01:0.03:1e-3", "errors") == [
            k / 1000 for k in range(10, 31)
        ]
        assert cli._parse_range("0:110:0.5", "distances") == [
            k / 2 for k in range(221)
        ]


class TestReconcile:
    def test_identical_inputs_succeed_with_zero_flips(self, small_alist, tmp_path, capsys):
        rng = np.random.default_rng(0)
        key = rng.integers(0, 2, (1, 320), dtype=np.uint8)
        alice, bob = tmp_path / "alice.txt", tmp_path / "bob.txt"
        rl.write_key_blocks(alice, key)
        rl.write_key_blocks(bob, key)
        out = tmp_path / "corrected.txt"
        code = main(
            ["reconcile", "--matrix", str(small_alist), "--width", "320",
             "--alice", str(alice), "--bob", str(bob), "--p", "0.02",
             "--out", str(out)]
        )
        assert code == 0
        assert "OK (0 flips, 0 iterations)" in capsys.readouterr().out
        assert np.array_equal(rl.read_key_blocks(out), key)

    def test_one_percent_noise_at_full_mother_width(self, mother_alist_path, tmp_path):
        rng = np.random.default_rng(1)
        key = rng.integers(0, 2, (1, 5120), dtype=np.uint8)
        noisy = key ^ (rng.random((1, 5120)) < 0.01).astype(np.uint8)
        alice, bob = tmp_path / "alice.txt", tmp_path / "bob.txt"
        rl.write_key_blocks(alice, key)
        rl.write_key_blocks(bob, noisy)
        out = tmp_path / "corrected.txt"
        code = main(
            ["reconcile", "--matrix", str(mother_alist_path), "--width", "5120",
             "--alice", str(alice), "--bob", str(bob), "--p", "0.01",
             "--out", str(out)]
        )
        assert code == 0
        assert np.array_equal(rl.read_key_blocks(out), key)

    def test_failure_exits_one(self, small_alist, tmp_path):
        rng = np.random.default_rng(2)
        key = rng.integers(0, 2, (1, 320), dtype=np.uint8)
        noisy = key ^ (rng.random((1, 320)) < 0.30).astype(np.uint8)
        alice, bob = tmp_path / "alice.txt", tmp_path / "bob.txt"
        rl.write_key_blocks(alice, key)
        rl.write_key_blocks(bob, noisy)
        code = main(
            ["reconcile", "--matrix", str(small_alist), "--width", "320",
             "--alice", str(alice), "--bob", str(bob), "--p", "0.30",
             "--out", str(tmp_path / "c.txt")]
        )
        assert code == 1
        man = json.loads((tmp_path / "c.txt.manifest.json").read_text())
        assert (man["blocks"], man["failed_blocks"]) == (1, 1)

    def test_trailing_empty_column_keeps_received_bit(self, tmp_path, capsys):
        # 3x5 code whose last column no check touches
        matrix = rl.ParityMatrix(3, 5, [0, 2, 4, 6, 9, 9], [0, 1, 1, 2, 0, 2, 0, 1, 2])
        path = tmp_path / "m.alist"
        rl.save_alist(matrix, path)
        rng = np.random.default_rng(3)
        key = rng.integers(0, 2, (6, 5), dtype=np.uint8)
        noisy = key ^ (rng.random(key.shape) < 0.2).astype(np.uint8)
        alice, bob = tmp_path / "alice.txt", tmp_path / "bob.txt"
        rl.write_key_blocks(alice, key)
        rl.write_key_blocks(bob, noisy)
        out = tmp_path / "c.txt"
        code = main(
            ["reconcile", "--matrix", str(path), "--width", "5",
             "--alice", str(alice), "--bob", str(bob), "--p", "0.1",
             "--out", str(out)]
        )
        assert code in (0, 1)
        assert "Traceback" not in capsys.readouterr().err
        assert np.array_equal(rl.read_key_blocks(out)[:, 4], noisy[:, 4])

    def test_block_length_mismatch_is_parse_error(self, small_alist, tmp_path):
        alice, bob = tmp_path / "alice.txt", tmp_path / "bob.txt"
        rl.write_key_blocks(alice, np.zeros((1, 320), np.uint8))
        rl.write_key_blocks(bob, np.zeros((1, 319), np.uint8))
        code = main(
            ["reconcile", "--matrix", str(small_alist), "--width", "320",
             "--alice", str(alice), "--bob", str(bob), "--p", "0.02",
             "--out", str(tmp_path / "c.txt")]
        )
        assert code == 3

    def test_block_count_mismatch_is_usage_error(self, small_alist, tmp_path):
        alice, bob = tmp_path / "alice.txt", tmp_path / "bob.txt"
        rl.write_key_blocks(alice, np.zeros((1, 320), np.uint8))
        rl.write_key_blocks(bob, np.zeros((2, 320), np.uint8))
        code = main(
            ["reconcile", "--matrix", str(small_alist), "--width", "320",
             "--alice", str(alice), "--bob", str(bob), "--p", "0.02",
             "--out", str(tmp_path / "c.txt")]
        )
        assert code == 2


def reconcile_block_by_block(matrix, width, alice, bob, p, max_iterations):
    """stdout lines and results of ``reconcile``, one ``decode`` per block."""
    prefix = rl.MatrixPrefix(matrix, width)
    config = rl.DecoderConfig(crossover_prior=p, max_iterations=max_iterations)
    lines, results = [], []
    for k in range(alice.shape[0]):
        res = rl.decode(prefix, bob[k], rl.encode_syndrome(prefix, alice[k]), config)
        flips = int(np.sum(res.corrected_key != bob[k]))
        lines.append(
            f"block {k}: OK ({flips} flips, {res.iterations_used} iterations)"
            if res.success
            else f"block {k}: FAIL ({res.unsatisfied_checks} unsatisfied checks)"
        )
        results.append(res)
    return lines, results


class TestReconcileBatch:
    """``reconcile`` decodes a file as one batch; every output equals that
    of a decode per block."""

    def run(self, matrix_path, width, alice, bob, p, max_iterations, out, capsys):
        a, b = out.parent / "alice.txt", out.parent / "bob.txt"
        rl.write_key_blocks(a, alice)
        rl.write_key_blocks(b, bob)
        capsys.readouterr()
        code = main(
            ["reconcile", "--matrix", str(matrix_path), "--width", str(width),
             "--alice", str(a), "--bob", str(b), "--p", str(p),
             "--max-iterations", str(max_iterations), "--out", str(out)]
        )
        manifest = (out.parent / (out.name + ".manifest.json")).read_bytes()
        return code, capsys.readouterr().out, manifest

    def test_split_equals_block_by_block(self, small_alist, tmp_path, capsys):
        # 11 blocks: two whole frame blocks and a partial one
        assert 11 % _FRAME_BLOCK
        rng = np.random.default_rng(12)
        alice = rng.integers(0, 2, (11, 320), dtype=np.uint8)
        noise = np.array([0.005, 0.2, 0.01, 0.0, 0.2, 0.01, 0.005, 0.2, 0.01, 0.0, 0.2])
        bob = alice ^ (rng.random(alice.shape) < noise[:, None]).astype(np.uint8)
        out = tmp_path / "c.txt"
        code, stdout, manifest = self.run(small_alist, 320, alice, bob, 0.02, 15,
                                          out, capsys)

        lines, results = reconcile_block_by_block(
            rl.load_alist(small_alist), 320, alice, bob, 0.02, 15
        )
        failed = sum(not r.success for r in results)
        assert 0 < failed < 11
        assert stdout == "".join(ln + "\n" for ln in lines)
        rl.write_key_blocks(tmp_path / "want.txt",
                            np.array([r.corrected_key for r in results]))
        assert out.read_bytes() == (tmp_path / "want.txt").read_bytes()
        assert code == 1
        man = json.loads(manifest)
        assert man["failed_blocks"] == failed
        assert man["undetected_blocks"] == sum(
            r.success and not np.array_equal(r.corrected_key, a)
            for r, a in zip(results, alice)
        )

    def test_same_outputs_on_any_cpu_count(self, small_alist, tmp_path, capsys,
                                           monkeypatch):
        # the decode is shared over the CPUs the process may use
        rng = np.random.default_rng(14)
        alice = rng.integers(0, 2, (6 * _FRAME_BLOCK + 1, 320), dtype=np.uint8)
        bob = alice ^ (rng.random(alice.shape) < 0.015).astype(np.uint8)
        threads = []

        def decode_batch(*args, **kwargs):
            threads.append(kwargs["threads"])
            return _decode_batch(*args, **kwargs)

        monkeypatch.setattr(cli, "_decode_batch", decode_batch)
        runs = []
        for cpus in (1, 3):
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = tmp_path / f"{cpus}" / "c.txt"
            out.parent.mkdir()
            code, stdout, manifest = self.run(small_alist, 320, alice, bob, 0.015, 20,
                                              out, capsys)
            runs.append((code, stdout, out.read_bytes(), manifest))
        assert threads == [1, 3]
        assert runs[0] == runs[1]

    def test_manifest_telemetry(self, tmp_path, capsys):
        # a 3x5 code whose last column no check touches: flipping that bit
        # keeps the syndrome, so the block converges to Bob's key at
        # iteration 0, reported OK but not Alice's
        matrix = rl.ParityMatrix(3, 5, [0, 2, 4, 6, 9, 9], [0, 1, 1, 2, 0, 2, 0, 1, 2])
        path = tmp_path / "m.alist"
        rl.save_alist(matrix, path)
        rng = np.random.default_rng(13)
        alice = rng.integers(0, 2, (8, 5), dtype=np.uint8)
        bob = alice.copy()
        bob[[1, 4], 4] ^= 1  # undetected
        bob[[2, 5], 0] ^= 1  # one flip the decoder sees
        bob[6, :3] ^= 1
        mans = [
            self.run(path, 5, alice, bob, 0.1, 7, tmp_path / name, capsys)[2]
            for name in ("a.txt", "b.txt")
        ]
        assert mans[0] == mans[1]
        man = json.loads(mans[0])

        _, results = reconcile_block_by_block(matrix, 5, alice, bob, 0.1, 7)
        iters = [r.iterations_used for r in results]
        undetected = [
            k for k, r in enumerate(results)
            if r.success and not np.array_equal(r.corrected_key, alice[k])
        ]
        assert {1, 4} <= set(undetected)
        assert max(iters) > 0
        assert man["blocks"] == 8
        assert man["failed_blocks"] == sum(not r.success for r in results)
        assert man["undetected_blocks"] == len(undetected)
        assert man["iterations_mean"] == np.mean(iters)
        assert man["iterations_max"] == max(iters)
        assert man["disclosed_bits"] == 8 * 3
        assert man["efficiency"] == rl.reconciliation_efficiency(1 - 3 / 5, 0.1)


class TestSimulateLink:
    # one table for the class: every test only reads it
    @pytest.fixture(scope="class")
    def table_csv(self, small_alist, tmp_path_factory):
        out = tmp_path_factory.mktemp("simulate") / "table.csv"
        assert main(
            ["characterize", "--matrix", str(small_alist), "--widths", "320,192,128",
             "--errors", "0.010:0.030:0.005", "--frames", "50", "--seed", "4",
             "--out", str(out)]
        ) == 0
        return out

    def test_sweep(self, table_csv, tmp_path):
        out = tmp_path / "report.csv"
        assert main(
            ["simulate-link", "--table", str(table_csv),
             "--distances", "0:110:10", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 13
        assert lines[0].startswith("distance_km,")

    def test_param_overrides(self, table_csv, tmp_path):
        out = tmp_path / "report.csv"
        assert main(
            ["simulate-link", "--table", str(table_csv), "--visibility", "0.95",
             "--distances", "0:20:10", "--out", str(out)]
        ) == 0
        man = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        assert man["params"]["visibility"] == 0.95

    def test_params_file(self, table_csv, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"visibility": 0.99, "sifting_factor": 0.5}))
        out = tmp_path / "report.csv"
        assert main(
            ["simulate-link", "--table", str(table_csv), "--params", str(pfile),
             "--distances", "0:10:5", "--out", str(out)]
        ) == 0

    def test_bad_params_file(self, table_csv, tmp_path):
        pfile = tmp_path / "params.json"
        # an unknown field, and nesting past the JSON decoder's recursion limit
        for text in (json.dumps({"no_such_field": 1}), "[" * 100_000):
            pfile.write_text(text)
            code = main(
                ["simulate-link", "--table", str(table_csv), "--params", str(pfile),
                 "--distances", "0:10:5", "--out", str(tmp_path / "r.csv")]
            )
            assert code == 3

    def test_empty_sweep_rejected(self, table_csv, tmp_path):
        code = main(
            ["simulate-link", "--table", str(table_csv),
             "--distances", "10:5:1", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "edit",
        ["cut-after-grid", "alpha", "manifest-not-json", "manifest-too-deep",
         "manifest-no-sha"],
    )
    def test_table_its_manifest_does_not_cite_is_refused(self, table_csv, tmp_path, edit):
        lines = table_csv.read_text().splitlines(keepends=True)
        manifest = (table_csv.parent / "table.csv.manifest.json").read_text()
        if edit == "cut-after-grid":
            lines = lines[: 1 + 2 * 3]  # two whole rates of the three widths
        elif edit == "alpha":
            assert lines[2].startswith("0.010,192,0.6667,") and lines[2].endswith(",0\n")
            lines[2] = lines[2].replace(",0.6667,", ",0.6666,")
        elif edit == "manifest-not-json":
            manifest = manifest[:-3]
        elif edit == "manifest-too-deep":
            manifest = "[" * 100_000
        else:
            manifest = manifest.replace('"out_sha256"', '"sha256"')
        table = tmp_path / "table.csv"
        table.write_text("".join(lines))
        (tmp_path / "table.csv.manifest.json").write_text(manifest)
        rl.load_table_csv(table)  # the CSV alone loads as a table
        out = tmp_path / "r.csv"
        code = main(
            ["simulate-link", "--table", str(table),
             "--distances", "0:10:5", "--out", str(out)]
        )
        assert code == 3
        assert not out.exists()

    def test_manifest_checked_is_recorded(self, table_csv, tmp_path):
        bare = tmp_path / "bare.csv"
        bare.write_bytes(table_csv.read_bytes())
        for table, checked in ((table_csv, True), (bare, False)):
            out = tmp_path / "r.csv"
            assert main(
                ["simulate-link", "--table", str(table),
                 "--distances", "0:10:5", "--out", str(out)]
            ) == 0
            man = json.loads((tmp_path / "r.csv.manifest.json").read_text())
            assert man["table_manifest_checked"] is checked

    def test_two_working_flags_is_parse_error(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text(
            "error_rate,width,alpha,fer,ci_low,ci_high,working\n"
            "0.010,512,0.5000,0.000000,0.000000,0.010000,1\n"
            "0.010,256,0.4000,0.000000,0.000000,0.010000,1\n"
        )
        code = main(
            ["simulate-link", "--table", str(table),
             "--distances", "0:10:5", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "rows",
        [
            # 5120 is absent at 0.011 but flagged as the working width
            ["0.011,5120,,0.995000,0.970000,1.000000,1",
             "0.011,4096,0.7500,0.000000,0.000000,0.010000,0"],
            # a flag of 2 is neither 0 nor 1
            ["0.011,5120,0.8000,0.000000,0.000000,0.010000,2",
             "0.011,4096,0.7500,0.000000,0.000000,0.010000,1"],
        ],
        ids=["absent-cell-flagged", "flag-2"],
    )
    def test_bad_working_flag_is_parse_error(self, tmp_path, rows):
        table = tmp_path / "table.csv"
        table.write_text(
            "error_rate,width,alpha,fer,ci_low,ci_high,working\n"
            + "\n".join(rows) + "\n"
        )
        code = main(
            ["simulate-link", "--table", str(table),
             "--distances", "0:10:5", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3
        assert not (tmp_path / "r.csv").exists()

    def test_missing_table_is_io_error(self, tmp_path):
        code = main(
            ["simulate-link", "--table", str(tmp_path / "nope.csv"),
             "--distances", "0:10:5", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "row",
        [
            "nan,512,0.5000,0.000000,0.000000,0.010000,1",
            "0.700,512,0.5000,0.000000,0.000000,0.010000,1",
            "0.010,-5,0.5000,0.000000,0.000000,0.010000,1",
            "0.010,512,0.5000,1.500000,0.000000,1.000000,1",
            "0.010,512,0.5000,0.500000,0.600000,0.700000,1",
            "0.010,512,inf,0.000000,0.000000,0.010000,1",
            "0.0105,512,0.5000,0.000000,0.000000,0.010000,1",
        ],
        ids=["rate-nan", "rate-0.7", "width-negative", "fer-1.5", "interval-misses-fer",
             "alpha-inf", "rate-0.0105"],
    )
    def test_table_that_lies_is_parse_error(self, tmp_path, row):
        table = tmp_path / "table.csv"
        table.write_text(f"error_rate,width,alpha,fer,ci_low,ci_high,working\n{row}\n")
        code = main(
            ["simulate-link", "--table", str(table),
             "--distances", "0:10:5", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--mean-photon-number", "nan"), ("--attenuation-db-per-km", "nan"),
         ("--pulse-rate-hz", "inf")],
    )
    def test_non_finite_flag_is_usage_error(self, table_csv, tmp_path, flag, value):
        out = tmp_path / "r.csv"
        code = main(
            ["simulate-link", "--table", str(table_csv), flag, value,
             "--distances", "0:10:5", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"mean_photon_number": NaN}',
                                      '{"pulse_rate_hz": Infinity}'])
    def test_non_finite_params_file_is_parse_error(self, table_csv, tmp_path, text):
        pfile = tmp_path / "params.json"
        pfile.write_text(text)
        out = tmp_path / "r.csv"
        code = main(
            ["simulate-link", "--table", str(table_csv), "--params", str(pfile),
             "--distances", "0:10:5", "--out", str(out)]
        )
        assert code == 3
        assert not out.exists()


@pytest.fixture(scope="module")
def inputs(small_alist, tmp_path_factory):
    """Key files and a table for ``small_alist``."""
    d = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(5)
    key = rng.integers(0, 2, (2, 320), dtype=np.uint8)
    rl.write_key_blocks(d / "alice.txt", key)
    rl.write_key_blocks(d / "bob.txt", key ^ (rng.random(key.shape) < 0.01))
    assert main(
        ["characterize", "--matrix", str(small_alist), "--widths", "320,192",
         "--errors", "0.010:0.030:0.010", "--frames", "20", "--seed", "4",
         "--out", str(d / "table.csv")]
    ) == 0
    return d


def command_args(command, small_alist, inputs):
    """Arguments of one run of ``command``, all but ``--out``."""
    return {
        "gen-matrix": ["--checks", "32", "--vars", "96", "--seed", "3"],
        "girth-profile": ["--matrix", str(small_alist), "--widths", "128,320"],
        "characterize": ["--matrix", str(small_alist), "--widths", "320",
                         "--errors", "0.010:0.020:0.010", "--frames", "8"],
        "reconcile": ["--matrix", str(small_alist), "--width", "320",
                      "--alice", str(inputs / "alice.txt"),
                      "--bob", str(inputs / "bob.txt"), "--p", "0.01"],
        "simulate-link": ["--table", str(inputs / "table.csv"),
                          "--distances", "0:20:10"],
    }[command]


class TestManifests:
    @pytest.mark.parametrize(
        "command",
        ["gen-matrix", "girth-profile", "characterize", "reconcile", "simulate-link"],
    )
    def test_cites_output_and_repeats(self, small_alist, inputs, tmp_path, command):
        args = [command] + command_args(command, small_alist, inputs)
        manifests = []
        for out in (tmp_path / "a.out", tmp_path / "b.out"):
            assert main(args + ["--out", str(out)]) == 0
            text = (tmp_path / (out.name + ".manifest.json")).read_bytes()
            man = json.loads(text)
            assert man["command"] == command and man["out_sha256"] == sha(out)
            manifests.append(text)
        assert manifests[0] == manifests[1]

    def test_characterize_fields(self, small_alist, inputs, tmp_path):
        args = ["characterize"] + command_args("characterize", small_alist, inputs)
        texts = []
        for out in (tmp_path / "a.csv", tmp_path / "b.csv"):
            assert main(args + ["--max-iterations", "60", "--seed", "9",
                                "--out", str(out)]) == 0
            texts.append((tmp_path / (out.name + ".manifest.json")).read_bytes())
        assert texts[0] == texts[1]
        man = json.loads(texts[0])
        assert set(man) == {
            "command", "version", "matrix_sha256", "matrix_shape", "widths",
            "error_grid", "frames_per_point", "seed", "decoder", "matrix_file",
            "matrix_file_sha256", "undetected_total", "out_sha256",
        }
        assert man["matrix_sha256"] == rl.matrix_digest(rl.load_alist(small_alist))
        assert man["matrix_file"] == str(small_alist)
        assert man["matrix_file_sha256"] == sha(small_alist)
        assert man["frames_per_point"] == 8 and man["seed"] == 9
        assert man["decoder"] == {"llr_clamp": 25.0, "max_iterations": 60}
        assert man["matrix_shape"] == [64, 320] and man["widths"] == [320]
        assert man["error_grid"] == [0.01, 0.02]
        table = rl.build_table(rl.load_alist(small_alist), [320], [0.01, 0.02], 8, 9)
        assert man["undetected_total"] == int(table.undetected.sum())

    def test_girth_profile_to_stdout_writes_none(
        self, small_alist, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        before = sorted(small_alist.parent.iterdir())
        assert main(
            ["girth-profile", "--matrix", str(small_alist), "--widths", "128"]
        ) == 0
        assert not list(tmp_path.iterdir())
        assert sorted(small_alist.parent.iterdir()) == before


class TestEditedInputs:
    """A one-byte edit of an input file is loaded or refused with exit
    code 3, never a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(side=st.sampled_from(["alice", "bob"]), data=st.data())
    def test_reconcile_key_file(self, small_alist, inputs, side, data):
        work = inputs / "edited"
        work.mkdir(exist_ok=True)
        for name in ("alice", "bob"):
            text = (inputs / f"{name}.txt").read_bytes()
            if name == side:
                text = data.draw(byte_edits(text))
            (work / f"{name}.txt").write_bytes(text)
        code = main(
            ["reconcile", "--matrix", str(small_alist), "--width", "320",
             "--alice", str(work / "alice.txt"), "--bob", str(work / "bob.txt"),
             "--p", "0.01", "--out", str(work / "c.txt")]
        )
        assert code in (0, 1, 3)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_simulate_link_table(self, inputs, data):
        table = inputs / "edited.csv"
        table.write_bytes(data.draw(byte_edits((inputs / "table.csv").read_bytes())))
        code = main(
            ["simulate-link", "--table", str(table), "--distances", "0:110:10",
             "--out", str(inputs / "r.csv")]
        )
        assert code in (0, 3)
