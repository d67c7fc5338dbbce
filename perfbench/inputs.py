"""Seeded inputs for the 17 suite programs.

:func:`make_args` returns ``(entry, args)`` with the shape of the suite's
own workloads (``repro.apps.workloads``) but with array contents drawn
from a seed the benchmark owns, so the program only ever sees generated
inputs. Floats are rounded to binary32 before they are handed over, so the
bytecode, GPU and FPGA placements, the journal's wire round trip and the
plain-Python oracle all start from the same bits.
"""

from __future__ import annotations

import hashlib
import random
import struct

from repro.values import KIND_BIT, KIND_FLOAT, KIND_INT, Bit, ValueArray

#: Size parameters of each app: ``default`` matches the suite's default
#: workloads, ``small`` matches ``repro.apps.workloads.SMALL``.
SIZES = {
    "default": {
        "bitflip": (256,),
        "saxpy": (4096,),
        "vector_sum": (4096,),
        "black_scholes": (2048,),
        "mandelbrot": (48, 32, 48),
        "nbody": (192,),
        "matmul": (24,),
        "convolution": (2048, 17),
        "dct8x8": (32, 16),
        "kmeans": (1024, 12),
        "gray_pipeline": (256,),
        "crc8": (256,),
        "parity": (256,),
        "hybrid": (512, 128),
        "running_sum": (128,),
        "sobel": (48, 32),
        "photo_pipeline": (256,),
    },
    "small": {
        "bitflip": (64,),
        "saxpy": (128,),
        "vector_sum": (128,),
        "black_scholes": (96,),
        "mandelbrot": (16, 8, 16),
        "nbody": (32,),
        "matmul": (8,),
        "convolution": (128, 5),
        "dct8x8": (8, 8),
        "kmeans": (96, 4),
        "gray_pipeline": (96,),
        "crc8": (96,),
        "parity": (96,),
        "hybrid": (96, 48),
        "running_sum": (48,),
        "sobel": (12, 8),
        "photo_pipeline": (128,),
    },
}


def f32(value: float) -> float:
    return struct.unpack("<f", struct.pack("<f", value))[0]


class _Gen:
    """Draws for one (seed, app, variant) stream."""

    def __init__(self, seed: int, app: str, variant: int):
        material = f"{seed}:{app}:{variant}".encode("utf-8")
        self.rng = random.Random(hashlib.sha256(material).digest())

    def floats(self, n, lo, hi):
        return ValueArray(
            KIND_FLOAT, [f32(self.rng.uniform(lo, hi)) for _ in range(n)]
        )

    def ints(self, n, lo, hi):
        return ValueArray(
            KIND_INT, [self.rng.randrange(lo, hi) for _ in range(n)]
        )

    def bits(self, n):
        return ValueArray(
            KIND_BIT, [Bit(self.rng.getrandbits(1)) for _ in range(n)]
        )

    def scalar(self, lo, hi):
        return f32(self.rng.uniform(lo, hi))


def _index(n):
    return ValueArray(KIND_INT, list(range(n)))


def make_args(app: str, size: str, seed: int, variant: int = 0):
    """``(entry, args)`` for one app at ``size`` ('default'|'small')."""
    g = _Gen(seed, app, variant)
    p = SIZES[size][app]
    if app == "bitflip":
        return "Bitflip.taskFlip", [g.bits(p[0])]
    if app == "saxpy":
        n = p[0]
        return "Saxpy.run", [
            g.scalar(0.5, 4.0), g.floats(n, -1.0, 1.0), g.floats(n, -1.0, 1.0)
        ]
    if app == "vector_sum":
        return "VectorOps.sum", [g.floats(p[0], 0.0, 1.0)]
    if app == "black_scholes":
        n = p[0]
        return "BlackScholes.price", [
            g.floats(n, 10.0, 100.0),
            g.floats(n, 10.0, 100.0),
            g.floats(n, 0.2, 2.0),
            g.scalar(0.01, 0.05),
            g.scalar(0.2, 0.4),
        ]
    if app == "mandelbrot":
        width, height, max_iter = p
        return "Mandelbrot.render", [
            _index(width * height), width, height, max_iter
        ]
    if app == "nbody":
        n = p[0]
        return "NBody.potentials", [
            _index(n),
            g.floats(n, -1.0, 1.0),
            g.floats(n, -1.0, 1.0),
            g.floats(n, -1.0, 1.0),
            g.floats(n, 0.5, 2.0),
        ]
    if app == "matmul":
        n = p[0]
        return "MatMul.multiply", [
            _index(n * n), g.floats(n * n, -1.0, 1.0),
            g.floats(n * n, -1.0, 1.0), n,
        ]
    if app == "convolution":
        n, taps = p
        return "Convolution.fir", [
            _index(n), g.floats(n, -1.0, 1.0), g.floats(taps, -0.5, 0.5)
        ]
    if app == "dct8x8":
        width, height = p
        n = width * height
        return "Dct.transform", [_index(n), g.floats(n, 0.0, 255.0), width]
    if app == "kmeans":
        points, clusters = p
        return "KMeans.assign", [
            _index(points),
            g.floats(points, 0.0, 10.0),
            g.floats(points, 0.0, 10.0),
            g.floats(clusters, 0.0, 10.0),
            g.floats(clusters, 0.0, 10.0),
        ]
    if app == "gray_pipeline":
        return "GrayCoder.pipeline", [g.ints(p[0], 0, 1 << 16)]
    if app == "crc8":
        return "Crc8.checksums", [g.ints(p[0], 0, 256)]
    if app == "parity":
        return "Parity.compute", [g.ints(p[0], 0, 1 << 30)]
    if app == "hybrid":
        n_map, n_stream = p
        return "Hybrid.run", [
            g.floats(n_map, -1.0, 1.0), g.ints(n_stream, 0, 1 << 16)
        ]
    if app == "running_sum":
        return "RunningSum.compute", [g.ints(p[0], -50, 50)]
    if app == "sobel":
        width, height = p
        n = width * height
        return "Sobel.edges", [
            _index(n), g.ints(n, 0, 256), width, height
        ]
    if app == "photo_pipeline":
        return "Photo.develop", [g.ints(p[0], 0, 200)]
    raise KeyError(f"no inputs for app {app!r}")
