"""Spans around the library's public functions, recorded from outside.

The tracer replaces each traced function at every ``rlemorph`` module
attribute that refers to it, so calls the library makes to itself (for
example ``dilate`` calling ``morphology.complement_within``) are seen
too.  No library code is edited; ``uninstall`` puts the originals back.

A span is ``(op, span_id, parent_id, name, start, end)``.  Spans of one
benchmark operation share ``op``; spans are recorded only while ``op`` is
set.  Counters derived from arguments and return values are kept per op
while ``counting`` is on.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = {
    "morphology": ("erode", "dilate", "generate_skeleton", "build_tables"),
    "rle": (
        "complement_within", "translate", "reflect", "bounding_rect",
        "from_raster", "normalize",
    ),
    "imgio": ("read_pbm", "write_pbm", "read_rle_text", "write_rle_text"),
    "generate": ("square_se", "diamond_se", "random_image", "blob_image"),
}


def _count_build_tables(c, args, tables):
    runs_in = len(args[0].runs)
    x_cut_runs = len(tables.x_cut.runs)
    c["morphology.build_tables.bytes"] += tables.left.nbytes + tables.right.nbytes
    c["morphology.build_tables.runs_in"] += runs_in
    c["morphology.build_tables.runs_dropped"] += runs_in - x_cut_runs
    c["morphology.build_tables.x_cut_runs"] += x_cut_runs
    c["morphology.build_tables.x_cut_pixels"] += tables.x_cut.pixel_count()


def _count_skeleton(c, _, skel):
    c["morphology.generate_skeleton.entries"] += len(skel.entries)


def _count_complement(c, args, out):
    c["rle.complement_within.rows"] += args[1].height
    c["rle.complement_within.runs_out"] += len(out.runs)


def _count_bytes_in(c, args, _):
    c["imgio.bytes_in"] += len(args[0])


def _count_bytes_out(c, _, out):
    c["imgio.bytes_out"] += len(out)


COUNTERS = {
    "morphology.build_tables": _count_build_tables,
    "morphology.generate_skeleton": _count_skeleton,
    "rle.complement_within": _count_complement,
    "imgio.read_pbm": _count_bytes_in,
    "imgio.read_rle_text": _count_bytes_in,
    "imgio.write_pbm": _count_bytes_out,
    "imgio.write_rle_text": _count_bytes_out,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = None
        self.counting = False
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        # op -> [(x, se, result)] of the erode calls made while counting.
        self.erode_calls: dict = defaultdict(list)
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        import rlemorph

        wrappers = {}
        for home, names in TRACED.items():
            module = getattr(rlemorph, home)
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = self._wrap(f"{home}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "rlemorph" and not modname.startswith("rlemorph."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        keep_erode = name == "morphology.erode"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            sid = self._next_id
            self._next_id += 1
            self._stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((op, sid, parent, name, start, end))
            if self.counting:
                if counter is not None:
                    counter(self.counts[op], args, out)
                if keep_erode and len(args) == 2 and not kwargs:
                    self.erode_calls[op].append((args[0], args[1], out))
            return out

        traced.__wrapped__ = fn
        return traced


def span_times(spans) -> dict:
    """Per op: {name: [inclusive_s, self_s, calls]}.  Self time is a span's
    duration minus the durations of its direct children; spans nest
    exactly because the benchmark runs one caller on one thread."""
    child_time: dict = defaultdict(float)
    for op, _, parent, _, start, end in spans:
        if parent is not None:
            child_time[(op, parent)] += end - start
    out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    for op, sid, _, name, start, end in spans:
        entry = out[op][name]
        entry[0] += end - start
        entry[1] += end - start - child_time[(op, sid)]
        entry[2] += 1
    return out
