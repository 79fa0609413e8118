#!/usr/bin/env python3
"""Correctly rounded quantiles of integer-shape Beta and Gamma laws.

Writes `inverse_reference.txt` next to this file: the reference that
`tests/inverse_accuracy.rs` measures `inverse_beta_inc` and
`inverse_gamma_p` against, in ulps. Standard library only.

At integer shapes both CDFs have finite forms:

* Beta:  I_x(a, b) = sum_{j=a}^{a+b-1} C(a+b-1, j) x^j (1-x)^(a+b-1-j),
  evaluated exactly in integers at each double x (a double is m / 2^k);
* Gamma: P(a, x) = 1 - e^(-x) sum_{k<a} x^k / k!, evaluated with `decimal`
  at 100 significant digits (200 when the sign is within 1e-90 of a tie).

The root of F(x) = p is found by bisection over the ordered bit patterns of
the positive doubles: the last double below the root and the first at or
above it. The reference is whichever neighbour is nearer the exact root,
decided by the sign of F(midpoint) - p at their exact midpoint (a tie goes
to the even significand).

    python3 inverse_reference.py            # rewrite the table
    python3 inverse_reference.py --check    # regenerate, fail on any difference
"""

import struct
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb
from pathlib import Path

TABLE = Path(__file__).with_name("inverse_reference.txt")

BETA_SHAPES = [(2, 2), (2, 3), (3, 5), (5, 2), (1, 4), (6, 6)]
GAMMA_SHAPES = [1, 2, 3, 5, 8]

# The grid i/200, the lower tail and the top of an n = 1000 equal-probability
# grid. Beyond p = 0.999 the double CDF, 1 - Q, resolves p only to about
# 1e-16 absolute, so any inverse built on it is off by eps / f(x), thousands
# of ulps, whatever its stopping rule: such points would measure that, not
# the inverse.
PROBABILITIES = [i / 200 for i in range(1, 200)] + [1e-7, 1e-5, 1e-3, 0.999]


def bits(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def from_bits(b):
    return struct.unpack("<d", struct.pack("<Q", b))[0]


def sign(v):
    return (v > 0) - (v < 0)


def beta_sign(a, b, x, p):
    """sign(I_x(a, b) - p) for exact rationals x in (0, 1) and p."""
    n = a + b - 1
    xn, xd = x.numerator, x.denominator
    total = sum(comb(n, j) * xn**j * (xd - xn) ** (n - j) for j in range(a, n + 1))
    # I_x = total / xd^n; compare total * p.den with p.num * xd^n.
    return sign(total * p.denominator - p.numerator * xd**n)


def gamma_sign(a, x, p):
    """sign(P(a, x) - p) for an exact rational x > 0 and p."""
    for digits in (100, 200):
        with localcontext() as ctx:
            ctx.prec = digits
            xd = Decimal(x.numerator) / Decimal(x.denominator)
            term = Decimal(1)
            partial = Decimal(1)
            for k in range(1, a):
                term = term * xd / k
                partial += term
            diff = 1 - (-xd).exp() * partial - Decimal(p.numerator) / Decimal(p.denominator)
            if abs(diff) > Decimal(10) ** (-90) or digits == 200:
                return sign(diff)
    raise AssertionError("unreachable")


def correctly_rounded_root(cdf_sign, p, hi_bits):
    """The double nearest the root of F(x) = p in (0, from_bits(hi_bits)]."""
    p = Fraction(p)
    lo, hi = 0, hi_bits  # F(lo) < p <= F(hi)
    assert cdf_sign(Fraction(from_bits(hi)), p) >= 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cdf_sign(Fraction(from_bits(mid)), p) >= 0:
            hi = mid
        else:
            lo = mid
    midpoint = (Fraction(from_bits(lo)) + Fraction(from_bits(hi))) / 2
    s = cdf_sign(midpoint, p)
    if s > 0:
        return lo  # the root lies below the midpoint
    if s < 0:
        return hi
    return lo if lo % 2 == 0 else hi


def rows():
    for a, b in BETA_SHAPES:
        yield f"beta {a} {b}", lambda x, p, a=a, b=b: beta_sign(a, b, x, p), bits(1.0)
    for a in GAMMA_SHAPES:
        yield f"gamma {a}", lambda x, p, a=a: gamma_sign(a, x, p), bits(1024.0)


def render():
    lines = [
        "# Correctly rounded quantiles of integer-shape Beta and Gamma laws,",
        "# written by inverse_reference.py (do not edit by hand).",
        "# `beta a b` and `gamma a` open a law; each following line is",
        "# `p x` as f64 bit patterns in hex, with F(x) = p to the nearest double.",
    ]
    for header, cdf_sign, hi_bits in rows():
        lines.append(header)
        for p in PROBABILITIES:
            x = correctly_rounded_root(cdf_sign, p, hi_bits)
            lines.append(f"{bits(p):016x} {x:016x}")
    return "\n".join(lines) + "\n"


def main():
    text = render()
    if sys.argv[1:] == ["--check"]:
        if TABLE.read_text() != text:
            print(f"{TABLE} differs from its generator's output", file=sys.stderr)
            return 1
        print(f"{TABLE} regenerates byte-identical")
        return 0
    if sys.argv[1:]:
        print(__doc__, file=sys.stderr)
        return 2
    TABLE.write_text(text)
    print(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
