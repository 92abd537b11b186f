"""Small finite fields GF(p^e) and the projective line P^1(F_q).

Prime fields use integer arithmetic mod p; extension fields use polynomial
arithmetic modulo an irreducible modulus found by exhaustive search, which
is adequate for the small degrees (e <= 4) used by the representation
factory. Field elements are coefficient tuples of length ``e`` in ascending
powers.

The Steinberg construction certifies that its permutations of P^1(F_q)
generate PSL2(F_q) and act irreducibly on the complement of the constants
by one exact count, ``pair_orbit_size``: an ordered pair of points has an
orbit of size q(q + 1) exactly when the group acts 2-transitively.
``permutation_closure_size`` gives the exact order of a permutation group
by deterministic Schreier-Sims, without listing its elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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
    "psl2_order",
    "sl2_involutions",
    "pair_orbit_size",
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

    Multiplication and inversion look up log/antilog tables over a
    primitive element, built once per field with q - 1 polynomial products
    per candidate element.
    """

    def __init__(self, spec: FiniteFieldSpec):
        self.spec = spec
        self.p = spec.p
        self.e = spec.e
        self.q = spec.q
        self.zero = (0,) * self.e
        self.one = (1,) + (0,) * (self.e - 1)
        self._exp, self._log = self._power_tables()

    def _power_tables(self) -> tuple[list, dict]:
        """Powers of the first primitive element and their exponents."""
        for g in self.elements()[1:]:
            powers = [self.one]
            x = g
            while x != self.one:
                powers.append(x)
                x = self._poly_mul(x, g)
            if len(powers) == self.q - 1:
                return powers, {x: i for i, x in enumerate(powers)}
        raise AssertionError("the multiplicative group of a finite field is cyclic")

    def _poly_mul(self, a, b):
        """Product as polynomials reduced by the modulus (builds the tables)."""
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        _, rem = _poly_divmod(tuple(prod), self.spec.modulus, self.p)
        return tuple(rem) + (0,) * (self.e - len(rem))

    def elements(self):
        return [tuple(t) for t in itertools.product(range(self.p), repeat=self.e)]

    def from_int(self, n: int):
        return ((n % self.p),) + (0,) * (self.e - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if a == self.zero or b == self.zero:
            return self.zero
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self._exp[-self._log[a] % (self.q - 1)]


def projective_line(gf: GaloisField) -> list[tuple[tuple, tuple]]:
    """The q+1 points of P^1(F_q), normalized as (x, 1) for x in F_q plus (1, 0)."""
    points = [(x, gf.one) for x in gf.elements()]
    points.append((gf.one, gf.zero))
    return points


def projective_action(gf: GaloisField, mat, points) -> list[int]:
    """Permutation induced on P^1(F_q) by a 2x2 matrix.

    ``mat`` is ((a, b), (c, d)) with integer or field-element entries,
    mapping [x : y] -> [a x + b y : c x + d y]. Returns perm with
    perm[i] = index of the image of points[i].
    """
    def coerce(entry):
        return gf.from_int(entry) if isinstance(entry, int) else entry

    (a, b), (c, d) = mat
    fa, fb, fc, fd = coerce(a), coerce(b), coerce(c), coerce(d)
    index = {pt: i for i, pt in enumerate(points)}

    def normalize(x, y):
        if y != gf.zero:
            return (gf.mul(x, gf.inv(y)), gf.one)
        return (gf.one, gf.zero)

    perm = []
    for x, y in points:
        nx = gf.add(gf.mul(fa, x), gf.mul(fb, y))
        ny = gf.add(gf.mul(fc, x), gf.mul(fd, y))
        perm.append(index[normalize(nx, ny)])
    return perm


def psl2_order(q: int) -> int:
    """Order of PSL2(F_q)."""
    return q * (q * q - 1) // (1 if q % 2 == 0 else 2)


def sl2_involutions(gf: GaloisField):
    """Projective involutions of PSL2(F_q) in a deterministic order.

    These are exactly the determinant-1 matrices of trace zero other than
    +/- identity, yielded as ((a, b), (c, d)) field-element matrices.
    """
    elems = gf.elements()
    for a in elems:
        d = gf.neg(a)
        for b in elems:
            for c in elems:
                det = gf.add(gf.mul(a, d), gf.neg(gf.mul(b, c)))
                if det != gf.one:
                    continue
                if b == gf.zero and c == gf.zero and gf.mul(a, a) == gf.one:
                    continue
                yield ((a, b), (c, d))


def pair_orbit_size(generators) -> int:
    """Size of the orbit of the ordered pair (0, 1) under the group the
    permutations generate: n(n - 1) exactly when it acts 2-transitively.

    ``generators`` permute one range(n), n >= 2, as in
    :func:`permutation_closure_size`. One flag per ordered pair, and a stack
    of the pairs found but not yet moved: a finite group's orbit is closed
    under its generators alone."""
    gens = _permutations(generators)
    n = len(gens[0])
    if n < 2:
        raise ValueError(f"the pair (0, 1) needs at least 2 points, got {n}")
    seen = bytearray(n * n)
    seen[1] = 1
    stack = [(0, 1)]
    while stack:
        a, b = stack.pop()
        for g in gens:
            x, y = g[a], g[b]
            if not seen[x * n + y]:
                seen[x * n + y] = 1
                stack.append((x, y))
    return seen.count(1)


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
