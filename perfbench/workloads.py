"""The benchmark's workloads and the checks on their outputs.

A workload is one unit of work, given as raldpc CLI calls, plus the set-up
that makes its inputs from the workload seed and the checks that decide, for
every output, whether it is right.  Each checked output is one operation:
an artifact file (matrix, girth report, table, ladder, corrected keys), one
reconciled key block, or the mother matrix placed at set-up.

At ``DEFAULT_SEED`` the outputs are also compared with the SHA-256 digests
recorded in ``digests.json``.  On every seed the consistency checks run: the
alist reloads to the matrix that was built, the table CSV reloads, the
reconcile exit code agrees with its FAIL lines, and every block reported OK
equals Alice's block.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from raldpc.adapt import load_table_csv
from raldpc.charact import matrix_digest
from raldpc.tanner import DegreeProfile, load_alist, peg_construct, save_alist

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Scale:
    """Sizes and recorded answers of one benchmark configuration."""

    checks: int
    vars: int
    mother_seed: int
    mother_sha256: str
    girth_widths: tuple
    girth: tuple  # recorded girth per width
    char_widths: tuple
    errors: str
    frames: int
    max_iterations: int
    distances: str
    rungs: tuple  # (width, crossover probability) per reconcile call
    blocks: int  # key blocks per reconcile call
    mother_file: str | None = None  # shipped alist; None builds it at set-up
    digests: dict = field(default_factory=dict)  # output -> sha256 at DEFAULT_SEED


FULL = Scale(
    checks=1024,
    vars=5120,
    mother_seed=20260810,
    mother_sha256="83bb245f68d31035f2ed21262bff8ab2adfeefbb76f87c59f6581b6c309760c6",
    girth_widths=(1280, 2048, 3072, 4096, 5120),
    girth=(8, 8, 6, 6, 6),
    char_widths=(5120, 4096, 3072),
    errors="0.010:0.025:0.001",
    frames=64,
    max_iterations=10,
    distances="0:110:0.5",
    rungs=((5120, 0.011), (4096, 0.016), (3072, 0.022)),
    blocks=256,
    mother_file="data/mother_1024x5120_i45_s20260810.alist",
    digests=json.loads((HERE / "digests.json").read_text()),
)

def _range_len(spec: str) -> int:
    lo, hi, step = (float(x) for x in spec.split(":"))
    return int(round((hi - lo) / step)) + 1


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Tally:
    """Operations attempted and failed, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def guarded(self, what: str, check) -> None:
        """One operation whose check may itself fail on a malformed output."""
        try:
            ok = bool(check())
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.op(False, f"{what}: {type(exc).__name__}: {exc}")
            return
        self.op(ok, what)


def _write_keys(path: Path, blocks: np.ndarray) -> None:
    """ASCII '0'/'1' key blocks, one per line (the CLI's key-file format)."""
    rows = np.empty((blocks.shape[0], blocks.shape[1] + 1), dtype=np.uint8)
    rows[:, :-1] = blocks + ord("0")
    rows[:, -1] = ord("\n")
    path.write_bytes(rows.tobytes())


def _read_keys(path: Path, width: int) -> np.ndarray:
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size % (width + 1):
        raise ValueError(f"{path.name}: not a file of {width}-bit key lines")
    rows = raw.reshape(-1, width + 1)
    if np.any(rows[:, -1] != ord("\n")) or np.any((rows[:, :-1] - ord("0")) > 1):
        raise ValueError(f"{path.name}: malformed key line")
    return rows[:, :-1] - ord("0")


class Workload:
    name = ""
    outputs: tuple = ()  # files whose digests are recorded at DEFAULT_SEED

    def __init__(self, scale: Scale):
        self.scale = scale

    def prepare(self, work: Path, seed: int, tally: Tally) -> None:
        """Make the inputs of the unit in ``work`` (timed as set-up)."""

    def calls(self, work: Path, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, work: Path, seed: int, outcomes, tally: Tally) -> int:
        """Check one unit's outputs; returns key bits reconciled."""
        raise NotImplementedError

    def digests(self, work: Path) -> dict:
        return {f: sha256(work / f) for f in self.outputs if (work / f).exists()}

    def _digest_ok(self, work: Path, seed: int, name: str) -> bool:
        want = self.scale.digests.get(name) if seed == DEFAULT_SEED else None
        return want is None or sha256(work / name) == want

    def _place_mother(self, work: Path, tally: Tally) -> None:
        """Put the mother alist in ``work`` and check its digest."""
        s = self.scale
        path = work / "mother.alist"
        if s.mother_file:
            path.write_bytes((HERE / s.mother_file).read_bytes())
        else:
            profile = DegreeProfile.interleaved_4_5(s.vars)
            save_alist(peg_construct(s.checks, s.vars, profile, s.mother_seed), path)
        tally.guarded(
            "mother alist digest",
            lambda: matrix_digest(load_alist(path)) == s.mother_sha256,
        )


class MotherBuild(Workload):
    """Grow the PEG mother matrix and report its prefix girths."""

    name = "mother-build"
    outputs = ("mother.alist", "girth.csv")

    def calls(self, work, seed):
        s = self.scale
        return [
            ["gen-matrix", "--checks", str(s.checks), "--vars", str(s.vars),
             "--profile", "interleaved45", "--seed", str(s.mother_seed),
             "--out", str(work / "mother.alist")],
            ["girth-profile", "--matrix", str(work / "mother.alist"),
             "--widths", ",".join(map(str, s.girth_widths)),
             "--out", str(work / "girth.csv")],
        ]

    def check(self, work, seed, outcomes, tally):
        s = self.scale

        def matrix_ok():
            man = json.loads((work / "mother.alist.manifest.json").read_text())
            reloaded = matrix_digest(load_alist(work / "mother.alist"))
            return (
                outcomes[0][0] == 0
                and man["matrix_sha256"] == reloaded == s.mother_sha256
                and self._digest_ok(work, seed, "mother.alist")
            )

        def girth_ok():
            with open(work / "girth.csv", newline="", encoding="ascii") as fh:
                rows = list(csv.DictReader(fh))
            got = [(int(r["width"]), r["girth"]) for r in rows]
            want = [(w, str(g)) for w, g in zip(s.girth_widths, s.girth)]
            return outcomes[1][0] == 0 and got == want

        tally.guarded("gen-matrix: built matrix == reloaded alist == recorded", matrix_ok)
        tally.guarded("girth-profile: girth per width == recorded", girth_ok)
        return 0


class Characterize(Workload):
    """Characterize the mother into a table, then sweep the link ladder."""

    name = "characterize"
    outputs = ("table.csv", "ladder.csv")

    def prepare(self, work, seed, tally):
        self._place_mother(work, tally)

    def calls(self, work, seed):
        s = self.scale
        return [
            ["characterize", "--matrix", str(work / "mother.alist"),
             "--widths", ",".join(map(str, s.char_widths)), "--errors", s.errors,
             "--frames", str(s.frames), "--max-iterations", str(s.max_iterations),
             "--threads", "1", "--seed", str(seed), "--out", str(work / "table.csv")],
            ["simulate-link", "--table", str(work / "table.csv"),
             "--distances", s.distances, "--out", str(work / "ladder.csv")],
        ]

    def check(self, work, seed, outcomes, tally):
        s = self.scale
        n_rates, n_dists = _range_len(s.errors), _range_len(s.distances)

        def table_ok():
            t = load_table_csv(work / "table.csv")
            man = json.loads((work / "table.csv.manifest.json").read_text())
            return (
                outcomes[0][0] == 0
                and t.fer.shape == (n_rates, len(s.char_widths))
                and bool(np.all((t.fer >= 0) & (t.fer <= 1)))
                and man["matrix_sha256"] == s.mother_sha256
                and man["seed"] == seed
                and self._digest_ok(work, seed, "table.csv")
            )

        def ladder_ok():
            with open(work / "ladder.csv", newline="", encoding="ascii") as fh:
                rows = list(csv.DictReader(fh))
            man = json.loads((work / "ladder.csv.manifest.json").read_text())
            return (
                outcomes[1][0] == 0
                and len(rows) == n_dists
                and man["table_sha256"] == sha256(work / "table.csv")
                and self._digest_ok(work, seed, "ladder.csv")
            )

        tally.guarded("characterize: table reloads, matches recorded digest", table_ok)
        tally.guarded("simulate-link: ladder complete, matches recorded digest", ladder_ok)
        return 0


_BLOCK_LINE = re.compile(r"^block (\d+): (OK|FAIL) ")


class Reconcile(Workload):
    """Reconcile generated key blocks at three rungs of the rate ladder."""

    name = "reconcile"

    @property
    def outputs(self):
        return tuple(f"corrected_{w}.txt" for w, _ in self.scale.rungs)

    def prepare(self, work, seed, tally):
        self._place_mother(work, tally)
        for r, (w, p) in enumerate(self.scale.rungs):
            rng = np.random.default_rng([seed, r])
            alice = rng.integers(0, 2, size=(self.scale.blocks, w), dtype=np.uint8)
            bob = alice ^ (rng.random(alice.shape) < p).astype(np.uint8)
            _write_keys(work / f"alice_{w}.txt", alice)
            _write_keys(work / f"bob_{w}.txt", bob)

    def calls(self, work, seed):
        return [
            ["reconcile", "--matrix", str(work / "mother.alist"), "--width", str(w),
             "--alice", str(work / f"alice_{w}.txt"), "--bob", str(work / f"bob_{w}.txt"),
             "--p", repr(p), "--out", str(work / f"corrected_{w}.txt")]
            for w, p in self.scale.rungs
        ]

    def check(self, work, seed, outcomes, tally):
        bits = 0
        for (w, _), (rc, out) in zip(self.scale.rungs, outcomes):
            status = {}
            for line in out.splitlines():
                m = _BLOCK_LINE.match(line)
                if m:
                    status[int(m.group(1))] = m.group(2)
            try:
                alice = _read_keys(work / f"alice_{w}.txt", w)
                fixed = _read_keys(work / f"corrected_{w}.txt", w)
            except (OSError, ValueError) as exc:
                tally.op(False, f"reconcile {w}: {exc}")
                continue
            n = alice.shape[0]
            name = f"corrected_{w}.txt"
            tally.op(
                sorted(status) == list(range(n))
                and fixed.shape == alice.shape
                and rc == (1 if "FAIL" in status.values() else 0)
                and self._digest_ok(work, seed, name),
                f"reconcile {w}: exit code, block lines and {name}",
            )
            for k in range(min(n, fixed.shape[0])):
                if status.get(k) == "OK":
                    same = np.array_equal(fixed[k], alice[k])
                    tally.op(same, f"reconcile {w}: block {k} OK but differs from Alice")
                    bits += w if same else 0
                else:
                    tally.op(status.get(k) == "FAIL", f"reconcile {w}: block {k} unreported")
        return bits


WORKLOADS = {cls.name: cls for cls in (MotherBuild, Characterize, Reconcile)}
