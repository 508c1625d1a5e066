"""Sparse graded polynomials over exact rationals, with symmetric reduction.

A GradedPolynomial is a sparse map from exponent vectors to Fractions over a
weighted Alphabet, carrying a hard truncation bound: terms of weighted degree
above the bound are identically discarded, and all arithmetic agrees with
untruncated arithmetic in degrees <= the bound.  Mixing two polynomials
truncates to the minimum of their bounds, never extends.

Canonical text serialization (bit-exact, used for golden files): one term per
line, ``<num>/<den> <var>^<exp> ...`` with variables in alphabet order and
exponents always written; terms sorted ascending by (weighted degree, exponent
vector).  The zero polynomial serializes to the empty string.

substitute_terms is the one loop over the monomials of a universal
polynomial, for every ring the package evaluates in: GradedPolynomial.substitute
(formal root rings) and the tower evaluations of grrcheck.grr (Chow rings)
both call it.

The symmetric-function reduction implements the classical fundamental-theorem
algorithm (lexicographic leading-term elimination).  Internally symmetric
polynomials are stored per orbit, i.e. in the monomial-symmetric basis indexed
by partitions; that is a representation choice only, the elimination order and
certificates are the classical ones.

Polynomials are immutable after construction; the expansion memo tables are
insert-only maps of immutable values (safe to share across threads in
CPython, or keep per task).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .arith import InputError

Monomial = tuple[int, ...]
Partition = tuple[int, ...]  # weakly decreasing positive integers

Scalar = int | Fraction


class SymmetryError(ValueError):
    """Input is not symmetric; carries one violating transposition."""

    def __init__(self, name_a: str, name_b: str):
        self.transposition = (name_a, name_b)
        super().__init__(f"not symmetric under swapping {name_a} <-> {name_b}")


class Alphabet:
    """Ordered list of uniquely named variables with non-negative integer weights."""

    __slots__ = ("variables", "weights", "_index")

    def __init__(self, variables: Iterable[tuple[str, int]]):
        self.variables: tuple[tuple[str, int], ...] = tuple((str(n), int(w)) for n, w in variables)
        names = [n for n, _ in self.variables]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate variable names in alphabet: {names}")
        if any(w < 0 for _, w in self.variables):
            raise InputError("variable weights must be >= 0")
        self.weights: tuple[int, ...] = tuple(w for _, w in self.variables)
        self._index: dict[str, int] = {n: i for i, (n, _) in enumerate(self.variables)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown variable {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def __len__(self) -> int:
        return len(self.variables)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return "Alphabet(" + ", ".join(f"{n}:{w}" for n, w in self.variables) + ")"


def weighted_alphabet(prefix: str, count: int, *, start_weight: int = 1) -> Alphabet:
    """Variables prefix1..prefixN with weights start_weight, start_weight+1, ..."""
    return Alphabet([(f"{prefix}{i}", start_weight + i - 1) for i in range(1, count + 1)])


def root_alphabet(prefix: str, count: int) -> Alphabet:
    """count weight-1 root variables prefix1..prefixN."""
    return Alphabet([(f"{prefix}{i}", 1) for i in range(1, count + 1)])


def join_alphabets(*parts: Alphabet) -> Alphabet:
    vars_: list[tuple[str, int]] = []
    for a in parts:
        vars_.extend(a.variables)
    return Alphabet(vars_)


class GradedPolynomial:
    __slots__ = ("alphabet", "truncation", "terms")

    def __init__(
        self,
        alphabet: Alphabet,
        truncation: int,
        terms: Mapping[Monomial, Scalar] | None = None,
    ):
        if truncation < 0:
            raise InputError("truncation bound must be >= 0")
        self.alphabet = alphabet
        self.truncation = truncation
        clean: dict[Monomial, Fraction] = {}
        if terms:
            weights = alphabet.weights
            nvars = len(weights)
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise InputError(f"monomial {mono} has wrong arity for {alphabet!r}")
                c = Fraction(coeff)
                if c == 0:
                    continue
                if sum(e * w for e, w in zip(mono, weights)) > truncation:
                    continue
                clean[mono] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, truncation: int) -> "GradedPolynomial":
        return cls(alphabet, truncation)

    @classmethod
    def constant(cls, alphabet: Alphabet, truncation: int, value: Scalar) -> "GradedPolynomial":
        return cls(alphabet, truncation, {(0,) * len(alphabet): Fraction(value)})

    @classmethod
    def variable(cls, alphabet: Alphabet, truncation: int, name: str) -> "GradedPolynomial":
        mono = [0] * len(alphabet)
        mono[alphabet.index(name)] = 1
        return cls(alphabet, truncation, {tuple(mono): Fraction(1)})

    # -- basic queries -------------------------------------------------

    def degree_of(self, mono: Monomial) -> int:
        return sum(e * w for e, w in zip(mono, self.alphabet.weights))

    def is_zero(self) -> bool:
        return not self.terms

    def max_degree(self) -> int:
        return max((self.degree_of(m) for m in self.terms), default=0)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def coefficient(self, **exps: int) -> Fraction:
        """Coefficient of the monomial given by keyword exponents (others 0)."""
        mono = [0] * len(self.alphabet)
        for name, e in exps.items():
            mono[self.alphabet.index(name)] = e
        return self.terms.get(tuple(mono), Fraction(0))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (self.degree_of(kv[0]), kv[0]))

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        """Equality of alphabet and terms (truncation bound not compared)."""
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __hash__(self):
        raise TypeError("GradedPolynomial is not hashable")

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "GradedPolynomial") -> int:
        if self.alphabet != other.alphabet:
            raise InputError("alphabet mismatch")
        return min(self.truncation, other.truncation)

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        bound = self._check_compatible(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return GradedPolynomial(self.alphabet, bound, out)

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        bound = self._check_compatible(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) - c
        return GradedPolynomial(self.alphabet, bound, out)

    def __neg__(self) -> "GradedPolynomial":
        return self.scale(-1)

    def scale(self, r: Scalar) -> "GradedPolynomial":
        r = Fraction(r)
        return GradedPolynomial(
            self.alphabet, self.truncation, {m: c * r for m, c in self.terms.items()}
        )

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        bound = self._check_compatible(other)
        weights = self.alphabet.weights
        deg_a = {m: sum(e * w for e, w in zip(m, weights)) for m in self.terms}
        deg_b = {m: sum(e * w for e, w in zip(m, weights)) for m in other.terms}
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            da = deg_a[ma]
            for mb, cb in other.terms.items():
                if da + deg_b[mb] > bound:
                    continue
                mono = tuple(x + y for x, y in zip(ma, mb))
                out[mono] = out.get(mono, Fraction(0)) + ca * cb
        return GradedPolynomial(self.alphabet, bound, out)

    def power(self, k: int) -> "GradedPolynomial":
        if k < 0:
            raise InputError("negative power")
        result = GradedPolynomial.constant(self.alphabet, self.truncation, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def graded_part(self, m: int) -> "GradedPolynomial":
        return GradedPolynomial(
            self.alphabet,
            self.truncation,
            {mono: c for mono, c in self.terms.items() if self.degree_of(mono) == m},
        )

    def truncate(self, bound: int) -> "GradedPolynomial":
        return GradedPolynomial(self.alphabet, min(bound, self.truncation), self.terms)

    def with_bound(self, bound: int) -> "GradedPolynomial":
        """Rebuild with an explicit truncation bound.

        Unlike arithmetic (which only ever lowers bounds), this is a fresh
        construction: raising the bound is a claim by the caller that the
        polynomial is exact, not a truncated series.
        """
        return GradedPolynomial(self.alphabet, bound, self.terms)

    # -- structure maps -------------------------------------------------

    def substitute(
        self,
        images: Mapping[str, "GradedPolynomial | Scalar"],
        target: Alphabet | None = None,
        truncation: int | None = None,
    ) -> "GradedPolynomial":
        """Substitute variables by polynomials (or scalars) over a target alphabet.

        Unmapped variables must exist by name in the target alphabet and map to
        themselves.  The bound is the given truncation, or else the minimum
        over self and the images; it never exceeds a polynomial image's own
        bound, and the result carries exactly this bound.
        """
        polys = [img for img in images.values() if isinstance(img, GradedPolynomial)]
        bound = min(
            [self.truncation if truncation is None else truncation]
            + [p.truncation for p in polys]
        )
        if target is None:
            if not polys:
                raise InputError("cannot infer target alphabet from scalar-only substitution")
            target = polys[0].alphabet
        if any(p.alphabet != target for p in polys):
            raise InputError("substitution images live in different alphabets")
        full: dict[str, GradedPolynomial | Scalar] = {}
        for name in self.alphabet.names():
            if name in images:
                img = images[name]
            else:
                img = GradedPolynomial.variable(target, bound, name)
            full[name] = img.truncate(bound) if isinstance(img, GradedPolynomial) else img
        one = GradedPolynomial.constant(target, bound, 1)
        grouped = substitute_terms(self.terms, self.alphabet.names(), full, one)
        return grouped.get((), GradedPolynomial.zero(target, bound))

    def embed(self, target: Alphabet) -> "GradedPolynomial":
        """Reinterpret over a larger alphabet containing all current names (same weights)."""
        positions = []
        for name, w in self.alphabet.variables:
            j = target.index(name)
            if target.weights[j] != w:
                raise InputError(f"weight mismatch embedding {name}")
            positions.append(j)
        n = len(target)
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            new = [0] * n
            for pos, e in zip(positions, mono):
                new[pos] = e
            out[tuple(new)] = c
        return GradedPolynomial(target, self.truncation, out)

    def rename(self, mapping: Mapping[str, str]) -> "GradedPolynomial":
        """Rename variables in place (same order and weights)."""
        target = Alphabet([(mapping.get(n, n), w) for n, w in self.alphabet.variables])
        out = GradedPolynomial(target, self.truncation, self.terms)
        return out

    # -- text forms ------------------------------------------------------

    def serialize(self) -> str:
        names = self.alphabet.names()
        lines = []
        for mono, coeff in self.sorted_terms():
            parts = [f"{coeff.numerator}/{coeff.denominator}"]
            parts.extend(f"{names[i]}^{e}" for i, e in enumerate(mono) if e > 0)
            lines.append(" ".join(parts))
        return "\n".join(lines)

    def pretty(self) -> str:
        """Human-oriented single-line rendering, e.g. ``c1^2 + c2``."""
        if not self.terms:
            return "0"
        names = self.alphabet.names()
        chunks: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not chunks:
                chunks.append(piece if coeff > 0 else f"-{piece}")
            else:
                chunks.append(("+ " if coeff > 0 else "- ") + piece)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"GradedPolynomial({self.pretty()})"


# ---------------------------------------------------------------------------
# the one substitution loop for universal polynomials
# ---------------------------------------------------------------------------


def substitute_terms(
    terms: Mapping[Monomial, Any],
    names: Sequence[str],
    images: Mapping[str, Any],
    one: Any,
    keep: Sequence[str] = (),
) -> dict[Monomial, Any]:
    """Substitute ring elements and scalars for the variables of a term map.

    This is the only loop over the monomials of a universal polynomial; it
    serves GradedPolynomial.substitute and the tower evaluations of
    grrcheck.grr alike.  A coefficient or an image is a scalar (int or
    Fraction) or a ring element with *, +, .scale and .is_zero(); one is the
    ring's unit.  Variables named in keep stay symbolic: the result maps
    their exponent tuple (in keep order) to the ring element collected from
    every monomial with those exponents, so with nothing kept the only key
    is ().  Powers of each image are computed once per call.
    """
    kept = [names.index(name) for name in keep]
    powers: dict[tuple[int, int], Any] = {}

    def power(pos: int, e: int):
        if e == 1:
            return images[names[pos]]
        if (pos, e) not in powers:
            powers[pos, e] = power(pos, e - 1) * images[names[pos]]
        return powers[pos, e]

    grouped: dict[Monomial, Any] = {}
    for mono, coeff in terms.items():
        acc, scalar = (None, coeff) if isinstance(coeff, (int, Fraction)) else (coeff, 1)
        for pos, e in enumerate(mono):
            if not e or pos in kept:
                continue
            image = images[names[pos]]
            if isinstance(image, (int, Fraction)):
                scalar *= Fraction(image) ** e
                if not scalar:
                    break
            else:
                acc = power(pos, e) if acc is None else acc * power(pos, e)
                if acc.is_zero():
                    break
        else:
            value = one if acc is None else acc
            if scalar != 1:
                value = value.scale(scalar)
            key = tuple(mono[pos] for pos in kept)
            grouped[key] = grouped[key] + value if key in grouped else value
    return grouped


# ---------------------------------------------------------------------------
# partitions and the monomial-symmetric (orbit) machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None, max_len: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n with bounded part size and length, lex-descending."""
    if n < 0:
        return ()
    if max_part is None:
        max_part = n
    if max_len is None:
        max_len = n
    if n == 0:
        return ((),)
    if max_len == 0 or max_part == 0:
        return ()
    out: list[Partition] = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first, max_len - 1):
            out.append((first, *rest))
    return tuple(out)


def conjugate_partition(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def _blocks(padded: Sequence[int]) -> list[tuple[int, int]]:
    """Run-length encode a weakly decreasing vector as (value, count) blocks."""
    blocks: list[tuple[int, int]] = []
    for v in padded:
        if blocks and blocks[-1][0] == v:
            blocks[-1] = (v, blocks[-1][1] + 1)
        else:
            blocks.append((v, 1))
    return blocks


def orbit_from_product(
    coeffs: Sequence[Fraction], n_roots: int, max_degree: int
) -> dict[Partition, Fraction]:
    """Orbit-basis expansion of prod_{j=1..n_roots} f(x_j), f = sum coeffs[k] x^k.

    Each variable occurs in exactly one factor, so the coefficient of the
    monomial-symmetric function m_lambda is prod_i coeffs[lambda_i] times
    coeffs[0]^(n_roots - len(lambda)).
    """
    out: dict[Partition, Fraction] = {}
    top = len(coeffs) - 1
    c0 = Fraction(coeffs[0]) if coeffs else Fraction(0)
    for d in range(max_degree + 1):
        for lam in partitions(d, max_part=top, max_len=n_roots):
            c = c0 ** (n_roots - len(lam))
            for part in lam:
                c *= coeffs[part]
                if not c:
                    break
            if c:
                out[lam] = c
    return out


def multiply_by_elementary(
    f: dict[Partition, Fraction], a: int, n_roots: int
) -> dict[Partition, Fraction]:
    """Orbit-basis product f * e_a in n_roots variables.

    Uses the backward rule: the coefficient of the sorted monomial gamma in
    f*e_a is the sum over ways of decrementing a entries of gamma (grouped by
    equal-value blocks, with binomial multiplicity) of f's coefficient at the
    resulting partition.
    """
    if a == 0:
        return dict(f)
    if a > n_roots:
        return {}
    degrees: dict[int, int] = {}
    for lam in f:
        d = sum(lam)
        degrees[d] = max(degrees.get(d, 0), lam[0] if lam else 0)
    out: dict[Partition, Fraction] = {}
    for d, max_part in degrees.items():
        for gamma in partitions(d + a, max_part=max_part + 1, max_len=n_roots):
            padded = gamma + (0,) * (n_roots - len(gamma))
            blocks = _blocks(padded)
            total = Fraction(0)
            # choose how many entries of each block to decrement (zero block excluded)
            def walk(bi: int, remaining: int, sigma_parts: list[int], mult: int):
                nonlocal total
                if remaining == 0:
                    rest = [v for v, cnt in blocks[bi:] for _ in range(cnt)]
                    sigma = tuple(sorted(sigma_parts + rest, reverse=True))
                    sigma = sigma[: len(sigma) - sigma.count(0)] if 0 in sigma else sigma
                    c = f.get(sigma)
                    if c is not None:
                        total += c * mult
                    return
                if bi == len(blocks):
                    return
                v, cnt = blocks[bi]
                top = min(cnt, remaining) if v >= 1 else 0
                for k in range(top + 1):
                    walk(
                        bi + 1,
                        remaining - k,
                        sigma_parts + [v] * (cnt - k) + [v - 1] * k,
                        mult * comb(cnt, k),
                    )

            walk(0, a, [], 1)
            if total:
                out[gamma] = total
    return out


_ELEM_EXPANSION: dict[tuple[int, tuple[int, ...]], dict[Partition, Fraction]] = {}


def elementary_product_orbit(eta: tuple[int, ...], n_roots: int) -> dict[Partition, Fraction]:
    """Orbit-basis expansion of the product e_{eta_1} * e_{eta_2} * ... (eta desc)."""
    if not eta:
        return {(): Fraction(1)}
    key = (n_roots, eta)
    cached = _ELEM_EXPANSION.get(key)
    if cached is None:
        prev = elementary_product_orbit(eta[:-1], n_roots)
        cached = multiply_by_elementary(prev, eta[-1], n_roots)
        _ELEM_EXPANSION[key] = cached
    return cached


def reduce_orbit_to_elementary(
    f: Mapping[Partition, Fraction], n_roots: int
) -> dict[tuple[int, ...], Fraction]:
    """Classical lex leading-term elimination on an orbit-basis symmetric polynomial.

    Returns a map from e-index multisets (desc tuples, index i meaning one
    factor e_i) to coefficients.
    """
    work = {lam: c for lam, c in f.items() if c}
    out: dict[tuple[int, ...], Fraction] = {}
    while work:
        lam = max(work)
        if len(lam) > n_roots:
            raise InputError(f"orbit {lam} impossible with {n_roots} roots")
        coeff = work.pop(lam)
        eta = conjugate_partition(lam)
        out[eta] = out.get(eta, Fraction(0)) + coeff
        for mu, c in elementary_product_orbit(eta, n_roots).items():
            if mu == lam:
                if c != 1:
                    raise AssertionError("leading coefficient of e-product is not 1")
                continue
            if mu > lam:
                raise AssertionError("elimination produced a lex-larger orbit")
            newc = work.get(mu, Fraction(0)) - coeff * c
            if newc:
                work[mu] = newc
            else:
                work.pop(mu, None)
    return {eta: c for eta, c in out.items() if c}


# ---------------------------------------------------------------------------
# GradedPolynomial <-> orbit conversion and the public reduction entry point
# ---------------------------------------------------------------------------


def _swap_positions(mono: Monomial, i: int, j: int) -> Monomial:
    lst = list(mono)
    lst[i], lst[j] = lst[j], lst[i]
    return tuple(lst)


def check_symmetry(p: GradedPolynomial, root_names: Sequence[str]) -> None:
    """Raise SymmetryError naming a violating adjacent transposition, if any."""
    idx = [p.alphabet.index(n) for n in root_names]
    for a, b in zip(idx, idx[1:]):
        for mono, coeff in p.terms.items():
            if p.terms.get(_swap_positions(mono, a, b), Fraction(0)) != coeff:
                name_a = p.alphabet.variables[a][0]
                name_b = p.alphabet.variables[b][0]
                raise SymmetryError(name_a, name_b)


def elementary_reduce(
    p: GradedPolynomial,
    root_names: Sequence[str],
    out_prefix: str = "e",
) -> GradedPolynomial:
    """Rewrite a polynomial symmetric in the given weight-1 roots in terms of
    the elementary symmetric functions e_1..e_k (named out_prefix1..).

    Non-root variables pass through unchanged.  Substituting the elementary
    symmetric polynomials back for the e-variables reproduces the input
    exactly (up to the truncation bound); this round trip is property-tested.
    """
    k = len(root_names)
    root_idx = [p.alphabet.index(n) for n in root_names]
    for i in root_idx:
        if p.alphabet.weights[i] != 1:
            raise InputError("root variables must have weight 1")
    check_symmetry(p, root_names)

    other = [(n, w) for n, w in p.alphabet.variables if n not in set(root_names)]
    other_idx = [p.alphabet.index(n) for n, _ in other]
    out_alphabet = Alphabet([(f"{out_prefix}{i}", i) for i in range(1, k + 1)] + other)

    groups: dict[Monomial, dict[Partition, Fraction]] = {}
    for mono, coeff in p.terms.items():
        roots = tuple(mono[i] for i in root_idx)
        canon = tuple(sorted(roots, reverse=True))
        if roots != canon:
            continue  # orbit already counted at its sorted representative
        lam = canon[: len(canon) - canon.count(0)] if 0 in canon else canon
        rest = tuple(mono[i] for i in other_idx)
        groups.setdefault(rest, {})[lam] = coeff

    out_terms: dict[Monomial, Fraction] = {}
    for rest, orbit in groups.items():
        for eta, coeff in reduce_orbit_to_elementary(orbit, k).items():
            evec = [0] * k
            for i in eta:
                evec[i - 1] += 1
            out_terms[tuple(evec) + rest] = coeff
    return GradedPolynomial(out_alphabet, p.truncation, out_terms)


def elementary_symmetric(
    alphabet: Alphabet, root_names: Sequence[str], i: int, truncation: int
) -> GradedPolynomial:
    """The i-th elementary symmetric polynomial of the named roots."""
    from itertools import combinations

    if i == 0:
        return GradedPolynomial.constant(alphabet, truncation, 1)
    idx = [alphabet.index(n) for n in root_names]
    if i > len(idx):
        return GradedPolynomial.zero(alphabet, truncation)
    terms: dict[Monomial, Fraction] = {}
    n = len(alphabet)
    for subset in combinations(idx, i):
        mono = [0] * n
        for j in subset:
            mono[j] = 1
        terms[tuple(mono)] = Fraction(1)
    return GradedPolynomial(alphabet, truncation, terms)


@lru_cache(maxsize=None)
def newton_power_sum(k: int) -> "GradedPolynomial":
    """The k-th power sum written in elementary symmetric variables e1..ek.

    Independent of the elimination algorithm; used as its cross-check oracle.
    """
    alph = weighted_alphabet("e", k)
    if k == 0:
        raise InputError("power sums start at k = 1")
    prev = [newton_power_sum(j).embed(alph).with_bound(k) for j in range(1, k)]
    total = GradedPolynomial.zero(alph, k)
    for i in range(1, k):
        ei = GradedPolynomial.variable(alph, k, f"e{i}")
        total = total + (ei * prev[k - i - 1]).scale((-1) ** (i - 1))
    ek = GradedPolynomial.variable(alph, k, f"e{k}")
    return total + ek.scale(Fraction((-1) ** (k - 1) * k))


# ---------------------------------------------------------------------------
# univariate exact series helpers (lists of Fractions, index = degree)
# ---------------------------------------------------------------------------


def series_mul(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_invert(a: Sequence[Fraction], n: int) -> list[Fraction]:
    if a[0] == 0:
        raise InputError("series is not invertible (zero constant term)")
    inv0 = 1 / a[0]
    out = [inv0] + [Fraction(0)] * n
    for k in range(1, n + 1):
        s = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            s += a[j] * out[k - j]
        out[k] = -inv0 * s
    return out


def series_log(a: Sequence[Fraction], n: int) -> list[Fraction]:
    """log of a series with constant term 1, via  (log a)' = a'/a."""
    if a[0] != 1:
        raise InputError("series_log needs constant term 1")
    da = [Fraction(k) * a[k] for k in range(1, min(len(a), n + 1))]
    da += [Fraction(0)] * (n - len(da))
    quot = series_mul(da, series_invert(list(a), n), n - 1) if n >= 1 else []
    out = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        out[k] = quot[k - 1] / k
    return out
