"""The benchmark's four workloads.

Each workload function makes its inputs from the seed through the library's public
constructors and codecs and returns the cases of one cycle.  A case's
``op`` is the timed call; its ``reference`` produces the expected output
with the dense oracle and is never timed.  ``scale`` shrinks every image
(1.0 is the benchmark; the tests use a tiny scale).

The oracle's cost grows with the element's area, which makes a direct
reference for a size-101 element take seconds.  Each element therefore
carries Minkowski factors whose sum is the element (a square is a row plus
a column; a diamond is a sum of smaller diamonds whose radii add up), and
the reference applies the oracle once per factor: erosion by A + B is
erosion by A, then by B, and likewise for dilation.  The benchmark's tests
check that the factors of every element add up to the element.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

from rlemorph import generate, imgio, morphology, oracle, rle

# Blob images differ a lot in erosion cost from one seed to the next; a
# cycle over several images keeps the per-seed spread small.  Over ten
# seeds, ops_per_s spread by 0.12 to 0.31 of its median with four images
# per size and by 0.05 with eight.
BLOB_IMAGES = 8
# The median of the pooled latencies sits between two cases when the cases
# split evenly around it; if their latencies differ a lot it then swings
# with single samples.  Each workload therefore has an odd number of cases
# or of element sizes, so that the median falls inside one case or inside
# one cluster of cases of the same size.
P4_IMAGES = 3


@dataclass
class Case:
    name: str
    op: Callable[[], object]
    reference: Callable[[], object]


@dataclass
class Workload:
    cases: list[Case]
    # input name -> image, for the environment record
    inputs: dict = field(default_factory=dict)


@dataclass
class Element:
    name: str
    se: rle.RleImage
    factors: list[rle.RleImage]


def element(shape: str, size: int) -> Element:
    r = (size - 1) // 2
    if shape == "square":
        se = generate.square_se(size)
        factors = [rle.normalize([(-r, r, 0)]), rle.normalize([(0, 0, y) for y in range(-r, r + 1)])]
    else:
        se = generate.diamond_se(size)
        radii = [5] * (r // 5) + ([r % 5] if r % 5 else [])
        factors = [generate.diamond_se(2 * k + 1) for k in radii] or [se]
    return Element(f"{shape}{size}", se, factors)


def elements(shapes, sizes) -> list[Element]:
    return [element(shape, k) for shape in shapes for k in sizes]


def erode_ref(x, el: Element):
    return reduce(oracle.erode_naive, el.factors, x)


def dilate_ref(x, el: Element):
    return reduce(oracle.dilate_naive, el.factors, x)


def _dim(size: int, scale: float) -> int:
    return max(4, round(size * scale))


def _blobs(size: int, scale: float, seed: int) -> rle.RleImage:
    n = _dim(size, scale)
    return generate.blob_image(n, n, seed=seed)


def blobs_erode(seed: int, scale: float = 1.0) -> Workload:
    """Erosion of long-run blob images: scan and tables do the work."""
    els = elements(("square", "diamond"), (3, 11, 31, 51, 101))
    w = Workload([])
    for j, size in enumerate((1024, 2048)):
        for i in range(BLOB_IMAGES):
            x = _blobs(size, scale, seed * 100 + j * BLOB_IMAGES + i)
            w.inputs[f"blobs{size}#{i}"] = x
            w.cases += [
                Case(f"blobs{size}#{i}/{el.name}",
                     lambda x=x, el=el: morphology.erode(x, el.se),
                     lambda x=x, el=el: erode_ref(x, el))
                for el in els
            ]
    return w


def blobs_dilate(seed: int, scale: float = 1.0) -> Workload:
    """Dilation by duality: complement_within and erosion of the complement."""
    els = elements(("square", "diamond"), (3, 7, 11, 21, 31))
    w = Workload([])
    for i in range(2):
        x = _blobs(1024, scale, seed * 100 + i)
        w.inputs[f"blobs1024#{i}"] = x
        w.cases += [
            Case(f"blobs1024#{i}/{el.name}",
                 lambda x=x, el=el: morphology.dilate(x, el.se),
                 lambda x=x, el=el: dilate_ref(x, el))
            for el in els
        ]
    return w


def dense_open(seed: int, scale: float = 1.0) -> Workload:
    """Opening of a dense random image: per-run container work."""
    n = _dim(256, scale)
    x = generate.random_image(n, n, 0.6, seed=seed)
    cases = [
        Case(f"random256/{el.name}",
             lambda el=el: morphology.dilate(morphology.erode(x, el.se), el.se),
             lambda el=el: dilate_ref(erode_ref(x, el), el))
        for el in elements(("square",), (3, 5, 7, 11)) + elements(("diamond",), (3, 5, 11))
    ]
    return Workload(cases, {"random256": x})


def sparse_wide(s: int) -> rle.RleImage:
    """Two 10x3 blocks at (0, 0) and (s, s): few runs, a huge bounding box."""
    block = [(0, 9, y) for y in range(3)]
    return rle.normalize(block + [(lx + s, rx + s, y + s) for lx, rx, y in block])


def files_wide(seed: int, scale: float = 1.0) -> Workload:
    """Decode bytes, erode or dilate, encode bytes, as the CLI does."""
    w = Workload([])
    sq11, sq3 = element("square", 11), element("square", 3)

    n = _dim(1024, scale)
    meta = imgio.ImageFileMeta(n, n)
    for i in range(P4_IMAGES):
        blobs = _blobs(1024, scale, seed * 100 + i)
        p4 = imgio.write_pbm(blobs, meta, "P4")

        def blobs_p4(p4=p4):
            img, m = imgio.read_pbm(p4)
            return imgio.write_pbm(morphology.erode(img, sq11.se), m, "P4")

        w.inputs[f"blobs1024#{i}.pbm4"] = blobs
        w.cases.append(Case(
            f"blobs1024#{i}.pbm4/erode-square11.pbm4",
            blobs_p4,
            lambda blobs=blobs: imgio.write_pbm(erode_ref(blobs, sq11), meta, "P4"),
        ))

    m = _dim(256, scale)
    dense = generate.random_image(m, m, 0.6, seed=seed)
    p1 = imgio.write_pbm(dense, imgio.ImageFileMeta(m, m), "P1")

    def dense_p1():
        img, _ = imgio.read_pbm(p1)
        return imgio.write_rle_text(morphology.erode(img, sq3.se)).encode()

    w.inputs["random256.pbm1"] = dense
    w.cases.append(Case(
        "random256.pbm1/erode-square3.rle",
        dense_p1,
        lambda: imgio.write_rle_text(erode_ref(dense, sq3)).encode(),
    ))

    for s in (1000, 4000, 8000):
        wide = sparse_wide(_dim(s, scale))
        text = imgio.write_rle_text(wide).encode()

        def wide_rle(text=text):
            img = imgio.read_rle_text(text.decode())
            return imgio.write_rle_text(morphology.dilate(img, sq3.se)).encode()

        w.inputs[f"sparse{s}.rle"] = wide
        w.cases.append(Case(
            f"sparse{s}.rle/dilate-square3.rle",
            wide_rle,
            lambda wide=wide: imgio.write_rle_text(dilate_ref(wide, sq3)).encode(),
        ))
    return w


WORKLOADS = {
    "blobs-erode": blobs_erode,
    "blobs-dilate": blobs_dilate,
    "dense-open": dense_open,
    "files-wide": files_wide,
}
