"""Reference root counter for the tests: a Sturm chain over `Fraction`s.

`sturm_count` has the contract of `taylorzeros.roots.exact_count_small`
(distinct real roots in a closed interval; a multiple root counts once) but
reaches it by another route: square-free reduction by rational gcd, then
Sturm sign variations at the two endpoints. It is slow (about 45 ms at
degree 20) and kept only to cross-check the integer Descartes counter.
"""

from fractions import Fraction


def _strip(p: list) -> list:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _diff(p: list) -> list:
    return [k * p[k] for k in range(1, len(p))]


def _divmod(p: list, q: list) -> tuple[list, list]:
    # q nonzero, both stripped ascending-coefficient lists
    r = list(p)
    lq = q[-1]
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(r) >= len(q) and _strip(r):
        r = _strip(r)
        if len(r) < len(q):
            break
        shift = len(r) - len(q)
        f = r[-1] / lq
        quot[shift] = f
        for i in range(len(q)):
            r[shift + i] -= f * q[i]
        r = r[:-1]
    return quot, _strip(r)


def _monic(p: list) -> list:
    lead = p[-1]
    return [c / lead for c in p] if lead != 1 else p


def _gcd(p: list, q: list) -> list:
    a, b = _strip(p), _strip(q)
    while b:
        a, b = b, _divmod(a, b)[1]
        if b:
            b = _monic(b)  # positive rescale, gcd is up to units anyway
    return _monic(a)


def _eval(p: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _divide_root_out(p: list, r: Fraction) -> list:
    # exact synthetic division by (x - r); valid only when p(r) == 0
    out = [Fraction(0)] * (len(p) - 1)
    carry = Fraction(0)
    for k in range(len(p) - 1, 0, -1):
        carry = p[k] + carry * r
        out[k - 1] = carry
    return _strip(out)


def _variations(signs: list) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for s1, s2 in zip(nz, nz[1:]) if s1 * s2 < 0)


def sturm_count(coeffs, interval) -> int:
    """Distinct real roots of sum coeffs[k] x^k in the closed interval."""
    a, b = interval
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    p = _strip([Fraction(c) for c in coeffs])
    if not p:
        raise ValueError("zero polynomial has no well-defined root count")
    if len(p) == 1:
        return 0
    fa, fb = Fraction(a), Fraction(b)
    sf = _divmod(p, _gcd(p, _strip(_diff(p))))[0]
    extra = 0
    for end in (fa, fb):
        if _eval(sf, end) == 0:
            sf = _divide_root_out(sf, end)
            extra += 1
            if len(sf) == 1:
                return extra
    chain = [sf, _strip(_diff(sf))]
    while chain[-1]:
        rem = _divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        lead = abs(rem[-1])  # positive rescale keeps the Sturm signs
        chain.append([-c / lead for c in rem])

    def sgn(v):
        return (v > 0) - (v < 0)

    va = _variations([sgn(_eval(f, fa)) for f in chain])
    vb = _variations([sgn(_eval(f, fb)) for f in chain])
    return va - vb + extra
