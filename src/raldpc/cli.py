"""Command-line entry points for the reconciliation pipeline.

Five subcommands cover the whole workflow: gen-matrix builds the PEG
mother matrix, girth-profile inspects prefix quality, characterize builds
the distillation table, reconcile runs one syndrome round between key
files, and simulate-link sweeps the QKD link model against a table.

Exit codes: 0 success, 1 reconciliation failure, 2 bad arguments,
3 I/O or parse error.  Every file-producing command also writes
``<out>.manifest.json`` with the parameters needed to reproduce the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .adapt import (
    _check_csv_rates,
    effective_rate,
    load_table_csv,
    reconciliation_efficiency,
    save_table_csv,
)
from .charact import build_table, matrix_digest
from .codec import (
    _LLR_CLAMP,
    DecoderConfig,
    _decode_batch,
    encode_syndrome_batch,
    read_key_blocks,
    write_key_blocks,
)
from .qkdsim import LinkParams, save_report_csv, simulate_link
from .tanner import (
    DegreeProfile,
    MatrixPrefix,
    girth_profile,
    load_alist,
    peg_construct,
    save_alist,
)

USAGE_ERROR = 2
IO_ERROR = 3


class _ParseFailure(Exception):
    """Input file was readable but malformed (exit code 3)."""


def _parsing(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, TypeError, RecursionError) as exc:  # nested too deep for json
        raise _ParseFailure(str(exc)) from None


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(command: str, out: str, fields: dict) -> None:
    """Write ``<out>.manifest.json``: ``fields`` with the command, the
    package version and the SHA-256 of the file ``out``."""
    manifest = {"command": command, "version": __version__, **fields,
                "out_sha256": _file_sha256(out)}
    with open(out + ".manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_table_manifest(table: str) -> bool:
    """Refuse ``table`` unless its SHA-256 is the ``out_sha256`` of
    ``<table>.manifest.json``; returns False, checking nothing, when there is
    no such manifest.

    The CSV does not carry its grid, so a file cut after a whole grid of
    cells, or with an edited alpha, still loads as a table: only its
    manifest tells.
    """
    path = table + ".manifest.json"
    if not os.path.exists(path):
        return False
    with open(path, "rb") as fh:
        doc = _parsing(json.load, fh)
    want = doc.get("out_sha256") if isinstance(doc, dict) else None
    if not isinstance(want, str):
        raise _ParseFailure(f"{path}: no out_sha256 to check the table against")
    if want != _file_sha256(table):
        raise _ParseFailure(f"{table}: SHA-256 differs from out_sha256 in {path}")
    return True


def _parse_range(spec: str, name: str) -> list[float]:
    from decimal import Decimal

    toks = spec.split(":")
    try:
        lo, hi, step = (float(x) for x in toks)
    except ValueError:
        raise ValueError(f"--{name} must look like from:to:step") from None
    if not np.all(np.isfinite([lo, hi, step])):
        raise ValueError(f"--{name}: from, to and step must be finite")
    if step <= 0 or hi < lo:
        raise ValueError(f"--{name}: need step > 0 and to >= from")
    # round to the decimals written in the spec: 0.013, not 0.013000000000000001
    places = max(0, *(-Decimal(t).as_tuple().exponent for t in toks))
    n = int(round((hi - lo) / step))
    vals = [round(lo + k * step, places) for k in range(n + 1)]
    return [v for v in vals if v <= hi + 1e-12]


def _parse_profile(spec: str, num_vars: int) -> DegreeProfile:
    if spec == "interleaved45":
        return DegreeProfile.interleaved_4_5(num_vars)
    if spec.startswith("uniform:"):
        return DegreeProfile.uniform(num_vars, int(spec.split(":", 1)[1]))
    raise ValueError("--profile must be 'interleaved45' or 'uniform:<degree>'")


def _cmd_gen_matrix(args) -> int:
    profile = _parse_profile(args.profile, args.vars)
    matrix = peg_construct(args.checks, args.vars, profile, args.seed)
    save_alist(matrix, args.out)
    _write_manifest("gen-matrix", args.out, {
        "checks": args.checks,
        "vars": args.vars,
        "profile": args.profile,
        "seed": args.seed,
        "matrix_sha256": matrix_digest(matrix),
    })
    print(f"wrote {args.out}: {matrix.num_checks}x{matrix.num_vars}, "
          f"{matrix.num_edges} edges")
    return 0


def _cmd_girth_profile(args) -> int:
    matrix = _parsing(load_alist, args.matrix)
    widths = [int(w) for w in args.widths.split(",")]
    rows = girth_profile(matrix, widths)
    lines = ["width,girth"] + [
        f"{w},{'acyclic' if g == float('inf') else int(g)}" for w, g in rows
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        _write_manifest("girth-profile", args.out, {
            "matrix_file_sha256": _file_sha256(args.matrix),
            "widths": widths,
        })
    else:
        sys.stdout.write(text)
    return 0


def _cmd_characterize(args) -> int:
    matrix = _parsing(load_alist, args.matrix)
    widths = [int(w) for w in args.widths.split(",")]
    grid = _parse_range(args.errors, "errors")
    _check_csv_rates(grid)  # refuse now, not after decoding the whole grid
    table = build_table(
        matrix,
        widths,
        grid,
        frames_per_point=args.frames,
        seed=args.seed,
        max_iterations=args.max_iterations,
        threads=args.threads,
    )
    save_table_csv(table, args.out)
    _write_manifest("characterize", args.out, {
        "matrix_sha256": matrix_digest(matrix),
        "matrix_shape": [matrix.num_checks, matrix.num_vars],
        "widths": widths,
        "error_grid": grid,
        "frames_per_point": args.frames,
        "seed": args.seed,
        "decoder": {"max_iterations": args.max_iterations, "llr_clamp": _LLR_CLAMP},
        "matrix_file": args.matrix,
        "matrix_file_sha256": _file_sha256(args.matrix),
        "undetected_total": int(table.undetected.sum()),
    })
    print(f"wrote {args.out}: {len(grid)} error rates x {len(widths)} widths")
    return 0


def _cmd_reconcile(args) -> int:
    matrix = _parsing(load_alist, args.matrix)
    prefix = MatrixPrefix(matrix, args.width)
    alice = _parsing(read_key_blocks, args.alice, width=args.width)
    bob = _parsing(read_key_blocks, args.bob, width=args.width)
    if alice.shape[0] != bob.shape[0]:
        raise ValueError(
            f"block count mismatch: alice has {alice.shape[0]}, bob {bob.shape[0]}"
        )
    config = DecoderConfig(
        crossover_prior=args.p, max_iterations=args.max_iterations
    )
    # the file's blocks are one batch: frames are independent, so each
    # block's result is that of a single-block decode, on one thread per
    # CPU this process may run on (``taskset`` limits them)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    syndromes = encode_syndrome_batch(prefix, alice)
    corrected, ok, iters, unsat = _decode_batch(
        prefix, bob, syndromes, config, threads=cpus
    )
    flips = np.count_nonzero(corrected != bob, axis=1)
    sys.stdout.write("".join(
        f"block {k}: OK ({nf} flips, {it} iterations)\n" if good
        else f"block {k}: FAIL ({nu} unsatisfied checks)\n"
        for k, (good, nf, it, nu) in enumerate(
            zip(ok.tolist(), flips.tolist(), iters.tolist(), unsat.tolist())
        )
    ))
    failed = int(np.count_nonzero(~ok))
    # blocks reported OK that converged to a key other than Alice's: the
    # one-way protocol has no hash to catch them
    undetected = int(np.count_nonzero(ok & np.any(corrected != alice, axis=1)))
    write_key_blocks(args.out, corrected)
    _write_manifest("reconcile", args.out, {
        "matrix_file_sha256": _file_sha256(args.matrix),
        "alice_sha256": _file_sha256(args.alice),
        "bob_sha256": _file_sha256(args.bob),
        "width": args.width,
        "p": args.p,
        "max_iterations": args.max_iterations,
        "blocks": int(alice.shape[0]),
        "failed_blocks": failed,
        "undetected_blocks": undetected,
        "iterations_mean": float(iters.mean()),
        "iterations_max": int(iters.max()),
        "disclosed_bits": int(alice.shape[0]) * matrix.num_checks,
        "efficiency": reconciliation_efficiency(
            effective_rate(matrix.num_checks, args.width).rate, args.p
        ),
    })
    return 0 if failed == 0 else 1


def _cmd_simulate_link(args) -> int:
    manifest_checked = _check_table_manifest(args.table)
    table = _parsing(load_table_csv, args.table)
    if args.params:
        with open(args.params, "r", encoding="ascii") as fh:
            params = _parsing(lambda f: LinkParams(**json.load(f)), fh)
    else:
        params = LinkParams()
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(LinkParams)
        if getattr(args, f.name) is not None
    }
    if overrides:
        params = dataclasses.replace(params, **overrides)
    distances = _parse_range(args.distances, "distances")
    report = simulate_link(params, table, distances)
    save_report_csv(report, args.out)
    _write_manifest("simulate-link", args.out, {
        "table_file": args.table,
        "table_sha256": _file_sha256(args.table),
        "table_manifest_checked": manifest_checked,
        "params": dataclasses.asdict(params),
        "distances": args.distances,
    })
    print(f"wrote {args.out}: {len(report.rows)} distances")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="raldpc",
        description="Rate-adaptive LDPC reconciliation toolkit",
    )
    ap.add_argument("--version", action="version", version=f"raldpc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-matrix", help="build a PEG mother matrix (alist)")
    g.add_argument("--checks", type=int, default=1024)
    g.add_argument("--vars", type=int, default=5120)
    g.add_argument("--profile", default="interleaved45")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_matrix)

    g = sub.add_parser("girth-profile", help="girth of prefix widths")
    g.add_argument("--matrix", required=True)
    g.add_argument("--widths", required=True, help="comma-separated widths")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_girth_profile)

    g = sub.add_parser("characterize", help="Monte-Carlo distillation table")
    g.add_argument("--matrix", required=True)
    g.add_argument("--widths", default="5120,4096,3072,2048")
    g.add_argument("--errors", default="0.010:0.030:0.001", help="from:to:step")
    g.add_argument("--frames", type=int, default=1000)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--max-iterations", type=int, default=60)
    g.add_argument("--threads", type=int, default=1,
                   help="worker processes, one cell at a time each")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_characterize)

    g = sub.add_parser("reconcile", help="one-way syndrome reconciliation")
    g.add_argument("--matrix", required=True)
    g.add_argument("--width", type=int, required=True)
    g.add_argument("--alice", required=True, help="reference key file")
    g.add_argument("--bob", required=True, help="noisy key file")
    g.add_argument("--p", type=float, required=True, help="crossover prior")
    g.add_argument("--max-iterations", type=int, default=60)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_reconcile)

    g = sub.add_parser("simulate-link", help="sweep the QKD link model")
    g.add_argument("--table", required=True)
    g.add_argument("--params", help="JSON file of link parameters")
    for f in dataclasses.fields(LinkParams):
        g.add_argument("--" + f.name.replace("_", "-"), type=float, dest=f.name)
    g.add_argument("--distances", default="0:110:5", help="from:to:step in km")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_simulate_link)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, _ParseFailure) as exc:
        print(f"raldpc: {exc}", file=sys.stderr)
        return IO_ERROR
    except (ValueError, KeyError) as exc:
        print(f"raldpc: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
