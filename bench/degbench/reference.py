"""Independent reference for the virtual Chern numbers of generated scenarios.

The generator records every bundle as a K-theory class: a map from the
degree vector of a line bundle to a signed multiplicity, so that ``ker``
subtracts, ``dual`` negates degrees and ``twist`` shifts them.  From such a
class this module computes Chern classes through Chern roots: the power sums
``p_j = sum_i m_i * l_i^j`` of the roots, then the Chern classes by Newton's
identities ``k c_k = sum_j (-1)^(j-1) c_(k-j) p_j``.

Nothing here touches ``degloci``: the ring is a dense integer vector indexed
by the monomials of ``Z[H_1..H_k]/(H_i^(n_i+1))`` with a precomputed
multiplication table, there is no series inversion and no binomial twist
formula.  Chern classes of K-classes of line bundles are integral, so every
Newton division must be exact; an inexact one raises.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


class TruncatedRing:
    """Dense integer arithmetic in the Chow ring of P^n1 x ... x P^nk."""

    def __init__(self, dims):
        self.dims = tuple(dims)
        self.monomials = list(product(*(range(n + 1) for n in self.dims)))
        self.index = {e: i for i, e in enumerate(self.monomials)}
        self.size = len(self.monomials)
        self.table = []
        for e in self.monomials:
            row = []
            for f in self.monomials:
                g = tuple(a + b for a, b in zip(e, f))
                row.append(self.index.get(g, -1))
            self.table.append(row)
        self.top = self.index[self.dims]

    def zero(self):
        return [0] * self.size

    def one(self):
        x = self.zero()
        x[0] = 1
        return x

    def linear(self, degrees):
        """The class sum_i degrees[i] * H_i."""
        x = self.zero()
        for i, a in enumerate(degrees):
            e = [0] * len(self.dims)
            e[i] = 1
            x[self.index[tuple(e)]] += a
        return x

    def mul(self, x, y):
        out = self.zero()
        table = self.table
        for i, a in enumerate(x):
            if a:
                row = table[i]
                for j, b in enumerate(y):
                    if b:
                        k = row[j]
                        if k >= 0:
                            out[k] += a * b
        return out

    def add(self, *xs):
        return [sum(c) for c in zip(*xs)]

    def scale(self, c, x):
        return [c * a for a in x]

    def integrate(self, x):
        return x[self.top]

    def text(self, x):
        """The canonical text form: terms by descending exponent vector."""
        parts = []
        for e, c in sorted(
            ((e, x[i]) for i, e in enumerate(self.monomials) if x[i]), reverse=True
        ):
            factors = [str(c)]
            for i, k in enumerate(e):
                if k:
                    factors.append(f"H{i + 1}" if k == 1 else f"H{i + 1}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"


def chern_classes(ring: TruncatedRing, kclass, top: int = 4):
    """[c_0, ..., c_top] of a K-class given as {degree vector: multiplicity}."""
    power_sums = [None] + [ring.zero() for _ in range(top)]
    for degrees, mult in kclass.items():
        root = ring.linear(degrees)
        power = ring.one()
        for j in range(1, top + 1):
            power = ring.mul(power, root)
            power_sums[j] = ring.add(power_sums[j], ring.scale(mult, power))
    classes = [ring.one()]
    for k in range(1, top + 1):
        acc = ring.zero()
        for j in range(1, k + 1):
            term = ring.mul(classes[k - j], power_sums[j])
            acc = ring.add(acc, term if j % 2 else ring.scale(-1, term))
        ck = []
        for a in acc:
            q, r = divmod(a, k)
            if r:
                raise ArithmeticError(f"Newton identity gave a non-integral c_{k}")
            ck.append(q)
        classes.append(ck)
    return classes


def truncated_product(dims, x: dict, y: dict) -> dict:
    """Product of two sparse {exponents: coefficient} maps, by plain convolution."""
    out = {}
    for e, a in x.items():
        for f, b in y.items():
            g = tuple(i + j for i, j in zip(e, f))
            if all(k <= n for k, n in zip(g, dims)):
                out[g] = out.get(g, 0) + a * b
    return {g: c for g, c in out.items() if c}


def tangent_kclass(dims):
    """T of a product of projective spaces: sum_i (n_i+1) O(H_i) - k O."""
    k = len(dims)
    kclass = {(0,) * k: -k}
    for i, n in enumerate(dims):
        e = [0] * k
        e[i] = 1
        kclass[tuple(e)] = n + 1
    return kclass


def difference(b, a):
    """The K-class b - a."""
    out = dict(b)
    for degrees, mult in a.items():
        out[degrees] = out.get(degrees, 0) - mult
    return {d: m for d, m in out.items() if m}


def expected_report(dims, a_class, b_class, fiber_genus, base_genus):
    """Reference values, keyed like the report entries they must match."""
    ring = TruncatedRing(dims)
    _, c1m, c2m, _, _ = chern_classes(ring, tangent_kclass(dims))
    ca = chern_classes(ring, a_class)
    cb = chern_classes(ring, b_class)
    _, c1, c2, c3, c4 = chern_classes(ring, difference(b_class, a_class))
    mul, add, scale = ring.mul, ring.add, ring.scale

    d = add(c1m, scale(-1, c1))
    c1_sq = ring.integrate(
        add(mul(mul(d, d), c2), scale(-2, mul(d, c3)), c4)
    )
    bracket = add(
        c2m,
        scale(-1, mul(c1m, c1)),
        ca[2],
        scale(-1, cb[2]),
        mul(cb[1], cb[1]),
        scale(-1, mul(ca[1], cb[1])),
    )
    c2_z = ring.integrate(
        add(mul(bracket, c2), mul(add(scale(-1, c1m), scale(2, c1)), c3), c4)
    )

    g, q = fiber_genus, base_genus
    kappa = Fraction(c1_sq - 2 * (2 * g - 2) * (2 * q - 2))
    delta = Fraction(c2_z - (2 - 2 * g) * (2 - 2 * q))
    lambda_ = (kappa + delta) / 12
    slope = delta / lambda_ if lambda_ else None
    return {
        "c1(M)": ring.text(c1m),
        "c2(M)": ring.text(c2m),
        "rank(A)": str(sum(a_class.values())),
        "rank(B)": str(sum(b_class.values())),
        "c1(B-A)": ring.text(c1),
        "c2(B-A)": ring.text(c2),
        "c3(B-A)": ring.text(c3),
        "c4(B-A)": ring.text(c4),
        "c1(Z)^2": str(c1_sq),
        "c2(Z)": str(c2_z),
        "kappa": str(kappa),
        "delta": str(delta),
        "lambda": str(lambda_),
        "slope": "undefined" if slope is None else str(slope),
    }
