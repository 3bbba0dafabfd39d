"""Reference series evaluation for the tests: compensated Horner.

`evaluate` sums w_k x^k by Horner's scheme with an error-free-transformation
correction term (TwoSum, and TwoProd through a Dekker split), giving a result
as if accumulated in about twice float64 precision (Graillat, Langlois and
Louvet, 2005). It is one point at a time, in Python, and is kept only to pin
`SeriesSample.evaluate_many`, the package's one evaluator.
"""

import math

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitter for float64


def _two_sum(a: float, b: float):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a: float, b: float):
    p = a * b
    a1 = a * _SPLIT
    ah = a1 - (a1 - a)
    al = a - ah
    b1 = b * _SPLIT
    bh = b1 - (b1 - b)
    bl = b - bh
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def comp_horner(w, x: float) -> float:
    """Horner evaluation of sum w_k x^k with a running error compensation."""
    s = float(w[-1])
    comp = 0.0
    for k in range(len(w) - 2, -1, -1):
        p, perr = _two_prod(s, x)
        s, serr = _two_sum(p, float(w[k]))
        comp = comp * x + (perr + serr)
    return s + comp


def evaluate(sample, x: float) -> float:
    """f(x) of a `SeriesSample` by compensated Horner."""
    return comp_horner(sample.weights, float(x))


def evaluate_normalized(sample, x: float) -> float:
    """f(x) / sqrt(v(x)); the normalized value has unit variance."""
    return evaluate(sample, x) / math.sqrt(sample.seq.variance_v(float(x)))
