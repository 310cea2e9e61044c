"""Span recorder and per-layer metrics for the traced benchmark run.

The traced run swaps, for its duration, the names each raldpc module binds
from the layer below (``raldpc.cli.decode``, ``raldpc.charact._decode_batch``,
...) for wrappers that record one span per call: name, start, end, parent
span and the unit of work it belongs to, plus a few counts taken at the same
boundary.  Nothing under ``src/`` changes.  A boundary whose name no longer
exists is listed as missing and its metrics read 0; the run goes on.

Spans stay in memory until the run ends.  Every per-layer metric is derived
from them by ``layer_metrics``.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# cell kinds of a characterization grid, by the cell's measured FER
KINDS = ("working", "waterfall", "hopeless")
_HOPELESS_FER = 0.99  # the table marks such cells absent


def _peg_counts(args, kwargs, matrix):
    return {"edges": int(matrix.num_edges)}


def _decode_counts(args, kwargs, res):
    return {"iterations": int(res.iterations_used), "success": bool(res.success)}


def _encode_batch_counts(args, kwargs, out):
    return {"frames": int(out.shape[0])}


def _decode_batch_counts(args, kwargs, out):
    prefix, config = args[0], args[3]
    _, ok, iters, _ = out
    return {
        "frames": int(ok.shape[0]),
        "width": int(prefix.width),
        "p": float(config.crossover_prior),
        "edges": int(prefix.edges.num_edges),
        "iterations": int(iters.sum()),
    }


def _table_counts(args, kwargs, table):
    undetected = getattr(table, "undetected", None)
    return {
        "frames_per_point": int(kwargs.get("frames_per_point", 0)),
        "undetected": 0 if undetected is None else int(np.sum(undetected)),
        "cells": [
            [int(w), float(e), float(table.fer[i, j])]
            for i, e in enumerate(table.error_rates)
            for j, w in enumerate(table.widths)
        ],
    }


# (module, bound name, span name, counts taken from (args, kwargs, result))
BOUNDARIES = (
    ("raldpc.cli", "peg_construct", "tanner.peg_construct", _peg_counts),
    ("raldpc.cli", "girth_profile", "tanner.girth_profile", None),
    ("raldpc.cli", "save_alist", "tanner.save_alist", None),
    ("raldpc.cli", "load_alist", "tanner.load_alist", None),
    ("raldpc.cli", "matrix_digest", "charact.matrix_digest", None),
    ("raldpc.cli", "build_table", "charact.build_table", _table_counts),
    ("raldpc.cli", "encode_syndrome", "codec.encode_syndrome", None),
    ("raldpc.cli", "decode", "codec.decode", _decode_counts),
    ("raldpc.cli", "read_key_blocks", "codec.read_key_blocks", None),
    ("raldpc.cli", "write_key_blocks", "codec.write_key_blocks", None),
    ("raldpc.cli", "save_table_csv", "adapt.save_table_csv", None),
    ("raldpc.cli", "load_table_csv", "adapt.load_table_csv", None),
    ("raldpc.cli", "simulate_link", "qkdsim.simulate_link", None),
    ("raldpc.cli", "save_report_csv", "qkdsim.save_report_csv", None),
    ("raldpc.charact", "encode_syndrome_batch", "codec.encode_syndrome_batch", _encode_batch_counts),
    ("raldpc.charact", "_decode_batch", "codec.decode_batch", _decode_batch_counts),
    ("raldpc.qkdsim", "select_width", "adapt.select_width", None),
    # edge arrays a prefix builds on first use, inside whichever call needs them
    ("raldpc.tanner", "PrefixEdges", "tanner.prefix_edges", None),
)


class Tracer:
    """Records spans in memory; ``installed()`` wraps every boundary."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.unit = 0
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, counts=None):
        kwargs = kwargs or {}
        span = {
            "name": name,
            "unit": self.unit,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
        if counts is not None:
            try:
                span["counts"] = counts(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                span["counts_error"] = f"{type(exc).__name__}: {exc}"
        return result

    def _wrapper(self, fn, name, counts):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return traced

    @contextmanager
    def installed(self):
        saved = []
        for modname, attr, name, counts in BOUNDARIES:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{modname}.{attr}" not in self.missing:
                    self.missing.append(f"{modname}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name, counts))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


# name -> unit of every per-layer metric, in the order they are reported
PER_LAYER = {
    "tanner.peg_construct.s": "s",
    "tanner.peg_construct.edges_per_s": "edges/s",
    "tanner.girth_profile.s": "s",
    "tanner.save_alist.s": "s",
    "tanner.load_alist.s": "s",
    "tanner.prefix_edges.ms": "ms",
    "codec.encode_syndrome.us": "us",
    "codec.decode.ms_p50": "ms",
    "codec.decode.ms_p99": "ms",
    "codec.decode.samples": "count",
    "codec.decode.iterations_mean": "iterations",
    "codec.decode.ms_per_iteration": "ms",
    "codec.decode.success_ratio": "ratio",
    "codec.read_key_blocks.s": "s",
    "codec.write_key_blocks.s": "s",
    "codec.encode_syndrome_batch.us_per_frame": "us",
    **{f"codec.decode_batch.frames_per_s.{k}": "frames/s" for k in KINDS},
    **{f"codec.decode_batch.iterations_mean.{k}": "iterations" for k in KINDS},
    **{f"codec.decode_batch.edge_updates_per_s.{k}": "computed_edge/s" for k in KINDS},
    "charact.build_table.s": "s",
    "charact.self_s": "s",
    "charact.frames_run": "count",
    "charact.cells_aborted": "count",
    "charact.undetected": "count",
    **{f"charact.cells.{k}": "count" for k in KINDS},
    "adapt.save_table_csv.ms": "ms",
    "adapt.load_table_csv.ms": "ms",
    "adapt.select_width.us": "us",
    "qkdsim.simulate_link.ms": "ms",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _dur(span):
    return span["end"] - span["start"]


def _self_times(spans):
    """Span duration minus the time its child spans cover, per span index."""
    own = [_dur(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _dur(s)
    return own


def _kind(fer):
    if fer == 0.0:
        return "working"
    return "hopeless" if fer >= _HOPELESS_FER else "waterfall"


def layer_metrics(spans, units, overhead_ratio):
    """Per-layer metrics from the spans of ``units`` traced units of work.

    Totals are per unit; per-call figures are medians over all calls.
    A layer the workload never calls reads 0.
    """
    own = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def durs(name):
        return [_dur(spans[i]) for i in by_name.get(name, [])]

    def per_unit(name):
        return sum(durs(name)) / units

    def per_call(name):
        d = durs(name)
        return statistics.median(d) if d else 0.0

    def own_per_call(name):
        d = [own[i] for i in by_name.get(name, [])]
        return statistics.median(d) if d else 0.0

    def counts(name):
        return [spans[i].get("counts", {}) for i in by_name.get(name, [])]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    peg = durs("tanner.peg_construct")
    m["tanner.peg_construct.s"] = sum(peg) / units
    m["tanner.peg_construct.edges_per_s"] = ratio(
        sum(c.get("edges", 0) for c in counts("tanner.peg_construct")), sum(peg)
    )
    m["tanner.girth_profile.s"] = per_unit("tanner.girth_profile")
    m["tanner.save_alist.s"] = per_unit("tanner.save_alist")
    m["tanner.load_alist.s"] = per_call("tanner.load_alist")
    m["tanner.prefix_edges.ms"] = per_call("tanner.prefix_edges") * 1e3
    # self times leave out the prefix's edge arrays built on a first call
    m["codec.encode_syndrome.us"] = own_per_call("codec.encode_syndrome") * 1e6

    dec = np.asarray([own[i] for i in by_name.get("codec.decode", [])]) * 1e3
    dec_counts = counts("codec.decode")
    iters = sum(c.get("iterations", 0) for c in dec_counts)
    m["codec.decode.ms_p50"] = float(np.percentile(dec, 50)) if dec.size else 0.0
    m["codec.decode.ms_p99"] = float(np.percentile(dec, 99)) if dec.size else 0.0
    m["codec.decode.samples"] = int(dec.size)
    m["codec.decode.iterations_mean"] = ratio(iters, len(dec_counts))
    m["codec.decode.ms_per_iteration"] = ratio(float(dec.sum()), iters)
    m["codec.decode.success_ratio"] = ratio(
        sum(c.get("success", False) for c in dec_counts), len(dec_counts)
    )
    m["codec.read_key_blocks.s"] = per_call("codec.read_key_blocks")
    m["codec.write_key_blocks.s"] = per_call("codec.write_key_blocks")
    m["codec.encode_syndrome_batch.us_per_frame"] = 1e6 * ratio(
        sum(own[i] for i in by_name.get("codec.encode_syndrome_batch", [])),
        sum(c.get("frames", 0) for c in counts("codec.encode_syndrome_batch")),
    )

    # every decode_batch call belongs to the cell (width, p) it decodes for;
    # the cell's kind comes from the FER the table reports for it
    kind_of, fpp, undetected = {}, 0, 0
    for c in counts("charact.build_table"):
        fpp = c.get("frames_per_point", 0)
        undetected += c.get("undetected", 0)
        kind_of.update({(w, p): _kind(fer) for w, p, fer in c.get("cells", [])})
    acc = {k: [0.0, 0, 0, 0] for k in KINDS}  # seconds, frames, iterations, edge updates
    cell_frames: dict = {}
    for i in by_name.get("codec.decode_batch", []):
        c = spans[i].get("counts")
        if not c:
            continue
        cell = (spans[i]["unit"], c["width"], c["p"])
        cell_frames[cell] = cell_frames.get(cell, 0) + c["frames"]
        kind = kind_of.get((c["width"], c["p"]))
        if kind is not None:
            a = acc[kind]
            a[0] += own[i]
            a[1] += c["frames"]
            a[2] += c["iterations"]
            a[3] += c["iterations"] * c["edges"]
    for k in KINDS:
        sec, frames, it, upd = acc[k]
        m[f"codec.decode_batch.frames_per_s.{k}"] = ratio(frames, sec)
        m[f"codec.decode_batch.iterations_mean.{k}"] = ratio(it, frames)
        m[f"codec.decode_batch.edge_updates_per_s.{k}"] = ratio(upd, sec)

    m["charact.build_table.s"] = per_unit("charact.build_table")
    m["charact.self_s"] = sum(own[i] for i in by_name.get("charact.build_table", [])) / units
    m["charact.frames_run"] = sum(cell_frames.values()) / units
    m["charact.cells_aborted"] = sum(f < fpp for f in cell_frames.values()) / units
    m["charact.undetected"] = undetected / units
    cell_fers = [fer for c in counts("charact.build_table") for _, _, fer in c.get("cells", [])]
    for k in KINDS:
        m[f"charact.cells.{k}"] = sum(_kind(fer) == k for fer in cell_fers) / units

    m["adapt.save_table_csv.ms"] = per_unit("adapt.save_table_csv") * 1e3
    m["adapt.load_table_csv.ms"] = per_unit("adapt.load_table_csv") * 1e3
    m["adapt.select_width.us"] = per_call("adapt.select_width") * 1e6
    m["qkdsim.simulate_link.ms"] = per_unit("qkdsim.simulate_link") * 1e3
    m["cli.self_s"] = sum(own[i] for i in by_name.get("cli.main", [])) / units
    m["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER.items()}
