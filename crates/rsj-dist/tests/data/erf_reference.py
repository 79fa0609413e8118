#!/usr/bin/env python3
"""Correctly rounded erf and erfc on a grid over [-6, 27].

Writes `erf_reference.txt` next to this file: the reference that
`tests/erf_accuracy.rs` measures `erf` and `erfc` against, in ulps.
Standard library only.

Each double x of the grid is exact as a decimal. The series

    erf(x) = (2/sqrt(pi)) e^(-x^2) sum_{n>=0} 2^n x^(2n+1) / (1*3*...*(2n+1)),

whose terms are all positive, gives erf(|x|) with `decimal` at
40 + x^2/ln(10) significant digits, so that erfc(|x|) = 1 - erf(|x|) keeps
40 digits even where it is far below 1 (erfc(27) is about 5e-319, a
subnormal). Negative x follow from erf(-x) = -erf(x) and
erfc(-x) = 1 + erf(x). Each value is rounded to the nearest double; when it
lies within the computation's error of a midpoint between two doubles, it
is computed again at twice the digits, and the script fails if that does
not settle it.

The grid: the multiples of 1/32 in [-6, 27], which include the edges of the
approximation's intervals (0.84375, 1.25, 6); the points a third of a step
above them, which are not dyadic; and points at and around each interval
edge and near 0.

    python3 erf_reference.py            # rewrite the table
    python3 erf_reference.py --check    # regenerate, fail on any difference
"""

import math
import struct
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

TABLE = Path(__file__).with_name("erf_reference.txt")


def bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def from_bits(b):
    return struct.unpack("<d", struct.pack("<Q", b))[0]


def grid():
    xs = [k / 32 for k in range(-6 * 32, 27 * 32 + 1)]
    xs += [(k + 1 / 3) / 32 for k in range(-6 * 32, 27 * 32)]
    edges = [0.84375, 1.25, 6.0]
    # The two high words at which s_erf.c switches between its two tail
    # approximations (near 1/0.35), and the high word of 2^-28.
    edges += [from_bits(w << 32) for w in (0x4006DB6D, 0x4006DB6E, 0x3E300000)]
    tiny = [5e-324, 2.0**-1022, 1e-300, 2.0**-60, 2.0**-56, 2.0**-30, 1e-8, 1e-4, 0.25]
    for e in edges:
        b = bits(e)
        xs += [from_bits(b - 1), e, from_bits(b + 1)]
    xs += tiny
    xs = sorted({x for x in xs if -6.0 <= x <= 27.0} | {-x for x in tiny})
    return xs


def pi(digits):
    """pi to `digits` significant digits (the `decimal` module's recipe)."""
    with localcontext() as ctx:
        ctx.prec = digits + 2
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return s


# Enough digits for the second attempt at x = 27.
PI = pi(800)


def erf_abs(ax, digits):
    """erf(ax) for an exact decimal ax > 0, to a relative error below
    10^-(digits + 5): the sum runs at `digits` + 10 digits and stops once a
    term falls below 10^-(digits + 10) of it, past the terms' peak."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        x2 = ax * ax
        term = ax
        total = ax
        eps = Decimal(10) ** -(digits + 10)
        n = 0
        while term > total * eps:
            n += 1
            term = term * 2 * x2 / (2 * n + 1)
            total += term
        return 2 / (+PI).sqrt() * (-x2).exp() * total


def nearest_double(v, slack):
    """The double nearest the positive decimal v, or None when a midpoint
    between two doubles lies within `slack` of v."""
    f = float(v)  # correctly rounded, subnormals included
    exact = Fraction(v)
    b = bits(f)
    for nb in (b - 1, b + 1):
        mid = (Fraction(f) + Fraction(from_bits(nb))) / 2
        if nb >= 0 and abs(exact - mid) <= slack:
            return None
    return f


def values(x):
    """(erf(x), erfc(x)), each correctly rounded."""
    if x == 0:
        return x, 1.0
    ax = Decimal(abs(x))
    # erfc(|x|) >= 10^-(x^2/ln 10 + 2) on the grid, so 1 - erf(|x|) keeps
    # about 40 digits.
    digits = 40 + int(x * x / math.log(10))
    for attempt in (digits, 2 * digits):
        e = erf_abs(ax, attempt)
        with localcontext() as ctx:
            ctx.prec = attempt + 10
            c = 1 + e if x < 0 else 1 - e
        # erf(|x|) is good to 10^-(attempt + 5) relative, so erf and erfc
        # to that absolute (both are at most 2) and erf to that relative.
        slack = Fraction(1, 10 ** (attempt + 4))
        erf = nearest_double(e, slack * Fraction(e))
        erfc = nearest_double(c, slack)
        if erf is not None and erfc is not None:
            return math.copysign(erf, x), erfc
    raise AssertionError(f"erf/erfc({x!r}) lies on a rounding boundary")


def render():
    lines = [
        "# Correctly rounded erf and erfc on a grid over [-6, 27],",
        "# written by erf_reference.py (do not edit by hand).",
        "# Each line is `x erf(x) erfc(x)` as f64 bit patterns in hex.",
    ]
    for x in grid():
        erf, erfc = values(x)
        lines.append(f"{bits(x):016x} {bits(erf):016x} {bits(erfc):016x}")
    return "\n".join(lines) + "\n"


def main():
    if sys.argv[1:] not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    text = render()
    if sys.argv[1:] == ["--check"]:
        if TABLE.read_text() != text:
            print(f"{TABLE} differs from its generator's output", file=sys.stderr)
            return 1
        print(f"{TABLE} regenerates byte-identical")
        return 0
    TABLE.write_text(text)
    print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
