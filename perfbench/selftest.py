"""Fast self-test of the benchmark machinery on a 64x256 code.

    python3 perfbench/selftest.py

Runs every workload of ``run.py`` on the small code, untraced and traced,
and checks that each run emits exactly the metrics ``BENCHMARK.json`` names,
each with its unit, with no failed operation.  It then corrupts one output
of each workload before its checks run and checks that the corruption is
counted as a failed operation.  Exits 0 when everything holds.
"""

import json
import sys

import run


def _flip_bit(path, index):
    """Turn one '0'/'1' of a file (counted among those digits) into the other."""
    data = bytearray(path.read_bytes())
    where = [k for k, b in enumerate(data) if b in b"01"]
    data[where[index]] ^= 1  # '0' <-> '1'
    path.write_bytes(bytes(data))


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


# one corruption per workload, each caught by a different check
CORRUPT = {
    "mother-build": ("mother.alist", _truncate),  # alist no longer reloads
    "characterize": ("table.csv", lambda p: _flip_bit(p, -1)),  # ladder cites other bytes
    "reconcile": ("corrected_256.txt", lambda p: _flip_bit(p, 0)),  # OK block != Alice's
}


def main() -> int:
    run.load_program()
    from workloads import WORKLOADS, Scale

    small = Scale(
        checks=64,
        vars=256,
        mother_seed=3,
        mother_sha256="911c51b65171ffaa4f7cef8f2ab951d07e4d688d820c53be8d4822d84c86b539",
        girth_widths=(128, 192, 256),
        girth=(6, 4, 4),
        char_widths=(256, 192, 128),
        errors="0.02:0.06:0.02",
        frames=16,
        max_iterations=10,
        distances="0:100:10",
        rungs=((256, 0.02), (192, 0.03), (128, 0.04)),
        blocks=8,
    )

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for name, cls in WORKLOADS.items():
        for trace in (False, True):
            result, _ = run.run_benchmark(name, 1, 0.2, trace, small)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                errors.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want[trace]))} "
                              f"or their units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{name} trace={trace}: {result['failed']} of "
                              f"{result['attempted']} operations failed")

        check = cls.check
        target, corrupt = CORRUPT[name]

        def corrupted(self, work, seed, outcomes, tally, check=check):
            corrupt(work / target)
            return check(self, work, seed, outcomes, tally)

        cls.check = corrupted
        try:
            result, record = run.run_benchmark(name, 1, 0.2, False, small)
        finally:
            cls.check = check
        if result["correct"] or result["failed"] < 1 or record["ops_failed_ratio"] <= 0:
            errors.append(f"{name}: corrupted {target} was not counted as failed")
    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
