"""Plain-Python reference results for the 17 suite programs.

Written from the Lime sources in ``repro.apps.programs`` with nothing
imported from the toolchain or the runtime, so a fault anywhere in the
compiler, the interpreter or a device simulator cannot also hide in the
reference. Lime ``int`` wraps at 32 bits and every ``float`` operation
rounds through binary32; the references do the same, operation by
operation, so results compare exactly. Float literals keep their decimal
(double) value, as the bytecode's ``CONST`` does.
"""

from __future__ import annotations

import math
import struct


def f32(value: float) -> float:
    return struct.unpack("<f", struct.pack("<f", value))[0]


def i32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= 1 << 31 else value


def plain(value):
    """A program result as plain Python data (bits become 0/1)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    try:
        items = list(value)
    except TypeError:
        return int(value)
    return [plain(item) for item in items]


def _bitflip(bits):
    return [1 - b for b in bits]


def _saxpy(a, xs, ys):
    return [f32(f32(a * x) + y) for x, y in zip(xs, ys)]


def _vector_sum(xs):
    acc = xs[0]
    for x in xs[1:]:
        acc = f32(acc + x)
    return acc


_A = (0.31938153, -0.356563782, 1.781477937, -1.821255978, 1.330274429)


def _cnd(x):
    l = abs(x)
    k = f32(1.0 / f32(1.0 + f32(0.2316419 * l)))
    k2 = f32(k * k)
    k3 = f32(k2 * k)
    k4 = f32(k3 * k)
    k5 = f32(k4 * k)
    poly = f32(_A[0] * k)
    for coeff, power in zip(_A[1:], (k2, k3, k4, k5)):
        poly = f32(poly + f32(coeff * power))
    e = f32(math.exp(f32(f32(-0.5 * l) * l)))
    w = f32(1.0 - f32(f32(0.39894228 * e) * poly))
    return f32(1.0 - w) if x < 0.0 else w


def _black_scholes(spots, strikes, times, r, v):
    out = []
    for s, k, t in zip(spots, strikes, times):
        sqrt_t = f32(math.sqrt(t))
        num = f32(
            f32(math.log(f32(s / k)))
            + f32(f32(r + f32(f32(0.5 * v) * v)) * t)
        )
        d1 = f32(num / f32(v * sqrt_t))
        d2 = f32(d1 - f32(v * sqrt_t))
        discount = f32(math.exp(f32(-r * t)))
        out.append(f32(
            f32(s * _cnd(d1)) - f32(f32(k * discount) * _cnd(d2))
        ))
    return out


def _mandelbrot(indices, width, height, max_iter):
    out = []
    for idx in indices:
        cx = f32(-2.5 + f32(f32(3.5 * float(idx % width)) / float(width)))
        cy = f32(-1.25 + f32(f32(2.5 * float(idx // width)) / float(height)))
        zx = zy = 0.0
        result = max_iter
        for i in range(max_iter):
            zx2 = f32(zx * zx)
            zy2 = f32(zy * zy)
            if f32(zx2 + zy2) > 4.0:
                result = i
                break
            nzx = f32(f32(zx2 - zy2) + cx)
            zy = f32(f32(f32(2.0 * zx) * zy) + cy)
            zx = nzx
        out.append(result)
    return out


def _nbody(indices, xs, ys, zs, ms):
    out = []
    for i in indices:
        px, py, pz = xs[i], ys[i], zs[i]
        acc = 0.0
        for j in range(len(xs)):
            if j != i:
                dx = f32(xs[j] - px)
                dy = f32(ys[j] - py)
                dz = f32(zs[j] - pz)
                sq = f32(f32(f32(dx * dx) + f32(dy * dy)) + f32(dz * dz))
                dist = f32(math.sqrt(f32(sq + 0.0001)))
                acc = f32(acc + f32(ms[j] / dist))
        out.append(acc)
    return out


def _matmul(indices, a, b, n):
    out = []
    for idx in indices:
        row, col = idx // n, idx % n
        acc = 0.0
        for k in range(n):
            acc = f32(acc + f32(a[row * n + k] * b[k * n + col]))
        out.append(acc)
    return out


def _convolution(indices, signal, taps):
    half = len(taps) // 2
    out = []
    for i in indices:
        acc = 0.0
        for k, tap in enumerate(taps):
            j = i + k - half
            if 0 <= j < len(signal):
                acc = f32(acc + f32(signal[j] * tap))
        out.append(acc)
    return out


def _dct8x8(indices, pixels, width):
    blocks_per_row = width // 8
    out = []
    for idx in indices:
        block, within = idx // 64, idx % 64
        u, v = within % 8, within // 8
        bx = (block % blocks_per_row) * 8
        by = (block // blocks_per_row) * 8
        total = 0.0
        for y in range(8):
            for x in range(8):
                pixel = pixels[(by + y) * width + bx + x]
                cosx = f32(math.cos(
                    (2.0 * x + 1.0) * u * 3.141592653589793 / 16.0))
                cosy = f32(math.cos(
                    (2.0 * y + 1.0) * v * 3.141592653589793 / 16.0))
                total = f32(total + f32(f32(pixel * cosx) * cosy))
        cu = 0.35355338 if u == 0 else 0.5
        cv = 0.35355338 if v == 0 else 0.5
        out.append(f32(f32(cu * cv) * total))
    return out


def _kmeans(indices, px, py, cx, cy):
    out = []
    for i in indices:
        best_d = 3.4e38
        best = 0
        for c in range(len(cx)):
            dx = f32(px[i] - cx[c])
            dy = f32(py[i] - cy[c])
            d = f32(f32(dx * dx) + f32(dy * dy))
            if d < best_d:
                best_d, best = d, c
        out.append(best)
    return out


def _gray_pipeline(xs):
    return [i32((x ^ (x >> 1)) * 3 + 1) for x in xs]


def _crc8_step(b):
    crc = b & 255
    for _ in range(8):
        fb = crc & 1
        crc >>= 1
        if fb == 1:
            crc ^= 140
    return crc


def _crc8(data):
    return [_crc8_step(b) for b in data]


def _parity(words):
    return [bin(w & 0xFFFFFFFF).count("1") & 1 for w in words]


def _hybrid(xs, codes):
    total = 0.0
    for x in xs:
        acc = 0.0
        for i in range(16):
            acc = f32(acc + f32(math.exp(math.sin(f32(x + i)))))
        total = f32(total + acc)
    for code in codes:
        total = f32(total + ((code * 7 + 3) & 255))
    return total


def _running_sum(xs):
    out, acc = [], 0
    for x in xs:
        acc = i32(acc + x)
        out.append(acc)
    return out


def _sobel(indices, image, width, height):
    out = []
    for idx in indices:
        x, y = idx % width, idx // width
        if x == 0 or y == 0 or x == width - 1 or y == height - 1:
            out.append(0)
            continue

        def at(dx, dy):
            return image[(y + dy) * width + x + dx]

        gx = (at(1, -1) + 2 * at(1, 0) + at(1, 1)) - (
            at(-1, -1) + 2 * at(-1, 0) + at(-1, 1))
        gy = (at(-1, 1) + 2 * at(0, 1) + at(1, 1)) - (
            at(-1, -1) + 2 * at(0, -1) + at(1, -1))
        out.append(min(abs(gx) + abs(gy), 255))
    return out


def _photo_pipeline(pixels):
    return [min(max(p * 2 + 16, 0), 255) for p in pixels]


REFERENCES = {
    "bitflip": _bitflip,
    "saxpy": _saxpy,
    "vector_sum": _vector_sum,
    "black_scholes": _black_scholes,
    "mandelbrot": _mandelbrot,
    "nbody": _nbody,
    "matmul": _matmul,
    "convolution": _convolution,
    "dct8x8": _dct8x8,
    "kmeans": _kmeans,
    "gray_pipeline": _gray_pipeline,
    "crc8": _crc8,
    "parity": _parity,
    "hybrid": _hybrid,
    "running_sum": _running_sum,
    "sobel": _sobel,
    "photo_pipeline": _photo_pipeline,
}


def reference(app: str, args: list):
    """The expected result of ``app`` on ``args``, as plain data."""
    return REFERENCES[app](*[plain(a) for a in args])
