"""Small finite fields GF(p^e) and the projective line P^1(F_q).

Field elements are coefficient tuples of length ``e`` in ascending powers,
modulo an irreducible modulus found by exhaustive search, which is adequate
for the small degrees used by the representation factory. ``GaloisField``
numbers the q elements and does all its arithmetic by lookups in index
tables built once per field (Lidl and Niederreiter, "Finite Fields", on
log tables), so ``projective_action`` maps all q + 1 points of the
line in one vectorised pass and ``sl2_involutions`` spends O(q) per first
entry.

The Steinberg construction picks and certifies its involution by
``generates_psl2``, a trace rule (Macbeath 1969) that decides in a few
table lookups whether it generates PSL2(F_q) with the fixed order-3
element. ``permutation_closure_size`` gives the exact order of a
permutation group by deterministic Schreier-Sims, without listing its
elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NoIrreduciblePolynomialError

__all__ = [
    "FiniteFieldSpec",
    "GaloisField",
    "prime_factors",
    "is_prime",
    "factor_prime_power",
    "find_irreducible",
    "projective_line",
    "projective_action",
    "sl2_involutions",
    "generates_psl2",
    "permutation_closure_size",
]


def prime_factors(n: int) -> list[tuple[int, int]]:
    """The pairs (p, e) with n the product of the p**e, p prime, in increasing
    p; empty for n < 2."""
    pairs = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        p += 1
    if n > 1:
        pairs.append((n, 1))
    return pairs


def is_prime(n: int) -> bool:
    return prime_factors(n) == [(n, 1)]


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e, or raise ValueError."""
    pairs = prime_factors(q)
    if len(pairs) != 1:
        raise ValueError(f"{q} is not a prime power")
    return pairs[0]


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_divmod(a: tuple[int, ...], b: tuple[int, ...], p: int):
    """Division with remainder of coefficient tuples over F_p; b monic-ish."""
    a = list(_poly_trim(a))
    b = _poly_trim(b)
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        coef = (a[-1] * inv_lead) % p
        q[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bc) % p
        a = list(_poly_trim(tuple(a)))
    return tuple(q), tuple(a)


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Exhaustive check: no monic factor of degree 1..deg/2."""
    deg = len(_poly_trim(modulus)) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            candidate = tuple(tail) + (1,)
            _, rem = _poly_divmod(modulus, candidate, p)
            if not rem:
                return False
    return True


def find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Smallest (lexicographic) monic irreducible polynomial of degree e over F_p."""
    if e == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=e):
        candidate = tuple(tail) + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise NoIrreduciblePolynomialError(
        f"no irreducible polynomial of degree {e} over F_{p} found"
    )


@dataclass(frozen=True)
class FiniteFieldSpec:
    """A finite field F_{p^e} presented by an irreducible modulus.

    ``modulus`` lists the e+1 coefficients of a monic degree-e polynomial
    over F_p in ascending powers. For e = 1 the canonical modulus is (0, 1).
    """

    p: int
    e: int
    modulus: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.e < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.e}")
        modulus = tuple(c % self.p for c in self.modulus)
        if not modulus:
            modulus = find_irreducible(self.p, self.e)
        object.__setattr__(self, "modulus", modulus)
        if len(self.modulus) != self.e + 1 or self.modulus[-1] != 1:
            raise ValueError(
                f"modulus must be monic of degree {self.e}, got {self.modulus}"
            )
        if self.e > 1 and not _is_irreducible(self.modulus, self.p):
            raise NoIrreduciblePolynomialError(
                f"modulus {self.modulus} is reducible over F_{self.p}"
            )

    @property
    def q(self) -> int:
        return self.p**self.e


class GaloisField:
    """Arithmetic in GF(p^e); elements are coefficient tuples of length e.

    The q elements are numbered 0 .. q - 1 in :meth:`elements` order (zero
    is 0), and all arithmetic is lookups in index tables built once per
    field: ``_add`` (q x q, digitwise mod p), ``_neg``, ``_mul`` (q x q, from
    the powers of a primitive element, with a zero row and column) and
    ``_inv`` (0 at zero, which has no inverse). The tuple methods translate
    through one tuple -> index dict and one index -> tuple list.
    """

    def __init__(self, spec: FiniteFieldSpec):
        self.spec = spec
        self.p = p = spec.p
        self.e = e = spec.e
        self.q = q = spec.q
        self._elements = list(itertools.product(range(p), repeat=e))
        self._index = {x: i for i, x in enumerate(self._elements)}
        self.zero = self._elements[0]
        self.one = (1,) + (0,) * (e - 1)
        digits = np.array(self._elements, dtype=np.intp)
        # The first digit is the most significant: index = digits @ weights.
        weights = p ** np.arange(e - 1, -1, -1)
        self._add = np.zeros((q, q), dtype=np.intp)
        for j in range(e):
            self._add += (digits[:, j, None] + digits[None, :, j]) % p * weights[j]
        self._neg = -digits % p @ weights
        exp = self._powers(digits, weights)
        log = np.zeros(q, dtype=np.intp)
        log[exp] = np.arange(q - 1)
        self._mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
        self._mul[0, :] = self._mul[:, 0] = 0
        self._inv = exp[-log % (q - 1)]
        self._inv[0] = 0

    def _powers(self, digits: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Indices of g^0 .. g^(q-2) for the first primitive element g.

        Multiplication by g is F_p-linear on digit vectors; its matrix has
        rows g t^j, each the last times t: shifted up, less its top digit
        times the modulus. Any primitive element gives the same products."""
        low = np.array(self.spec.modulus[:-1])
        one = self.p ** (self.e - 1)
        for g in range(1, self.q):
            rows = [digits[g]]
            for _ in range(self.e - 1):
                last = rows[-1]
                rows.append((np.concatenate(([0], last[:-1])) - last[-1] * low) % self.p)
            times_g = (digits @ np.array(rows) % self.p @ weights).tolist()
            powers, x = [one], times_g[one]
            while x != one:
                powers.append(x)
                x = times_g[x]
            if len(powers) == self.q - 1:
                return np.array(powers, dtype=np.intp)
        raise AssertionError("the multiplicative group of a finite field is cyclic")

    def elements(self):
        return list(self._elements)

    def from_int(self, n: int):
        return ((n % self.p),) + (0,) * (self.e - 1)

    def add(self, a, b):
        return self._elements[self._add[self._index[a], self._index[b]]]

    def neg(self, a):
        return self._elements[self._neg[self._index[a]]]

    def mul(self, a, b):
        return self._elements[self._mul[self._index[a], self._index[b]]]

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self._elements[self._inv[self._index[a]]]


def projective_line(gf: GaloisField) -> list[tuple[tuple, tuple]]:
    """The q+1 points of P^1(F_q), normalized as (x, 1) for x in F_q plus (1, 0)."""
    points = [(x, gf.one) for x in gf.elements()]
    points.append((gf.one, gf.zero))
    return points


def projective_action(gf: GaloisField, mat) -> list[int]:
    """Permutation induced on P^1(F_q) by an invertible 2x2 matrix.

    ``mat`` is ((a, b), (c, d)) with integer or field-element entries,
    mapping [x : y] -> [a x + b y : c x + d y]. Returns perm with perm[i] the
    position in :func:`projective_line` of the image of its i-th point. That
    list puts [x : 1] at the index of x and [1 : 0] at q, so one pass of
    table lookups maps every point, and an image [x : y] is at the index of
    x / y, or at q when y = 0.
    """
    add, mul, inv = gf._add, gf._mul, gf._inv
    a, b, c, d = (gf._index[gf.from_int(x) if isinstance(x, int) else x] for row in mat for x in row)
    one = gf._index[gf.one]
    xs = np.append(np.arange(gf.q), one)
    ys = np.append(np.full(gf.q, one), 0)
    x, y = add[mul[a, xs], mul[b, ys]], add[mul[c, xs], mul[d, ys]]
    return np.where(y == 0, gf.q, mul[x, inv[y]]).tolist()


def sl2_involutions(gf: GaloisField):
    """Projective involutions of PSL2(F_q) in a deterministic order.

    These are exactly the determinant-1 matrices of trace zero other than
    +/- identity, yielded lazily as ((a, b), (c, d)) field-element matrices
    in the order of (a, b, c) in :meth:`GaloisField.elements`. With d = -a,
    det = 1 reads b c = r, r = -a^2 - 1: b = 0 takes every c when r = 0
    (but c = 0 when a^2 = 1, the identity), and each b != 0 the one
    c = r / b, so each a costs O(q).
    """
    elems, one = gf._elements, gf._index[gf.one]
    add, neg, mul = gf._add, gf._neg, gf._mul
    zero = elems[0]
    for a in range(gf.q):
        square = mul[a, a]
        r = neg[add[square, one]]
        row, d = elems[a], elems[neg[a]]
        if r == 0:
            for c in range(1 if square == one else 0, gf.q):
                yield ((row, zero), (elems[c], d))
        for b, c in enumerate(mul[r, gf._inv[1:]].tolist(), 1):
            yield ((row, elems[b]), (elems[c], d))


def generates_psl2(gf: GaloisField, v) -> bool:
    """Whether U = [[0, -1], [1, -1]] and an involution v of
    :func:`sl2_involutions` generate PSL2(F_q), for q >= 4 and q != 9.

    U has trace -1 and v = ((a, b), (c, -a)) trace 0, so by Macbeath's
    classification of the pairs of SL2(F_q) by their traces (Macbeath 1969,
    "Generators of the linear fractional groups") and Dickson's list of the
    subgroups of PSL2(F_q), the group <U, v> is fixed up to conjugacy by
    gamma = tr Uv = a + b - c. It is a proper subgroup exactly when
      - gamma^2 = 3: tr [U, v] = gamma^2 - 1 = 2, a singular pair with a
        common fixed point on P^1;
      - gamma = 0, gamma^2 = 1 or gamma^2 = 2: Uv has order 2, 3 or 4, and
        the group is S3, A4 or S4;
      - gamma^2 = +/- gamma + 1: Uv has order 5 and the group is A5, which
        is all of PSL2(F_q) only at q = 4 and q = 5;
      - gamma^2 lies in a proper subfield F_(p^f), tested by
        (gamma^2)^(p^f) = gamma^2 for each maximal proper divisor f of e:
        the group is PSL2 or PGL2 of that subfield.
    """
    (a, b), (c, _) = v
    gamma = gf.add(gf.add(a, b), gf.neg(c))
    square = gf.mul(gamma, gamma)
    if square in [gf.from_int(n) for n in range(4)]:
        return False
    if gf.q not in (4, 5) and square in (gf.add(gamma, gf.one), gf.add(gf.neg(gamma), gf.one)):
        return False
    for r, _ in prime_factors(gf.e):
        power = square
        for _ in range(gf.p ** (gf.e // r) - 1):
            power = gf.mul(power, square)
        if power == square:
            return False
    return True


def permutation_closure_size(generators, limit: int) -> int:
    """Order of the permutation group generated, capped at ``limit`` + 1.

    ``generators`` are permutations of one range(n), each a sequence whose
    i-th entry is the image of i; an empty list, unequal lengths or a
    sequence that is not a permutation raise ValueError. The order is exact:
    a deterministic Schreier-Sims computation (Sims 1970, "Computational
    methods in the study of permutation groups"; Seress, "Permutation Group
    Algorithms", 2003, ch. 4) builds a base and a strong generating set, and
    the order is the product of the basic orbit sizes. Every Schreier
    generator of a level is sifted through the deeper levels once; a
    non-identity residue becomes a strong generator of the levels whose base
    points it fixes (and adds a base point if it fixes them all), and those
    levels are checked again from the deepest up. Nothing is drawn at random
    and the group is never enumerated.
    """
    gens = _permutations(generators)
    identity = tuple(range(len(gens[0])))
    chain: list[_Level] = []

    def add(g, top: int) -> int:
        """Make g a strong generator of the levels from ``top`` to the first
        whose base point it moves; return that level."""
        deepest = 0
        while deepest < len(chain) and g[chain[deepest].point] == chain[deepest].point:
            deepest += 1
        if deepest == len(chain):
            chain.append(_Level(next(x for x in identity if g[x] != x), identity))
        for level in chain[top : deepest + 1]:
            level.add(g)
        return deepest

    def residue(depth: int):
        """Residue of the first unchecked Schreier generator of a level that
        does not sift to the identity through the deeper levels, or None."""
        level = chain[depth]
        for beta, (u, _) in level.reps.items():
            for index, s in enumerate(level.gens):
                if (beta, index) in level.checked:
                    continue
                moved = tuple(map(s.__getitem__, u))
                target, back = level.reps[s[beta]]
                h = identity if moved == target else tuple(map(back.__getitem__, moved))
                for deeper in chain[depth + 1 :]:
                    if h == identity:
                        break
                    rep = deeper.reps.get(h[deeper.point])
                    if rep is None:
                        break
                    h = tuple(map(rep[1].__getitem__, h))
                if h != identity:
                    return h
                level.checked.add((beta, index))
        return None

    for g in gens:
        if g != identity:
            add(g, 0)
    depth = len(chain) - 1
    while depth >= 0:
        h = residue(depth)
        depth = depth - 1 if h is None else add(h, depth + 1)
    order = 1
    for level in chain:
        order *= len(level.reps)
    return min(order, limit + 1)


def _permutations(generators) -> list[tuple[int, ...]]:
    """The generators as tuples, checked to permute one common range(n)."""
    gens = [tuple(g) for g in generators]
    if not gens:
        raise ValueError("no generators given, so the degree is unknown")
    n = len(gens[0])
    for g in gens:
        if len(g) != n:
            raise ValueError(f"generators of unequal length: {n} and {len(g)}")
        if sorted(g) != list(range(n)):
            raise ValueError(f"generator {list(g)} is not a permutation of range({n})")
    return gens


class _Level:
    """One level of a stabilizer chain: a base point, the strong generators
    that fix the base points above it, the orbit of the point under them
    with a coset representative u (u[point] = orbit point) and its inverse,
    and the (orbit point, generator index) pairs whose Schreier generator
    has sifted to the identity. Representatives never change once set, so
    a checked pair stays checked."""

    def __init__(self, point: int, identity: tuple[int, ...]):
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        self.reps = {point: (identity, identity)}
        self.checked: set[tuple[int, int]] = set()

    def add(self, g: tuple[int, ...]) -> None:
        """Append a generator and extend the orbit: the old points under g
        alone, the new points under every generator."""
        self.gens.append(g)
        orbit = list(self.reps)
        old = len(orbit)
        for i, beta in enumerate(orbit):
            u = self.reps[beta][0]
            for s in self.gens if i >= old else (g,):
                gamma = s[beta]
                if gamma not in self.reps:
                    v = tuple(map(s.__getitem__, u))
                    inverse = [0] * len(v)
                    for x, image in enumerate(v):
                        inverse[image] = x
                    self.reps[gamma] = (v, tuple(inverse))
                    orbit.append(gamma)
