"""Sparse graded polynomials with exact coefficients, with symmetric reduction.

A GradedPolynomial is a sparse map from exponent vectors to exact scalars over
a weighted Alphabet, carrying a hard truncation bound: terms of weighted degree
above the bound are identically discarded, and all arithmetic agrees with
untruncated arithmetic in degrees <= the bound.  Mixing two polynomials
truncates to the minimum of their bounds, never extends.

A stored coefficient is never zero and never a float: it is an int when it is
integral and a Fraction otherwise, so the integral numerators the theory
predicts are computed in int arithmetic.  accumulate (out += c * terms, each
key optionally shifted by a monomial) is the one kernel that adds exact term
maps under that rule, whatever their keys.  The sums of polynomials and the
symmetric elimination here go through it, and so do the Chow and K classes
of grrcheck.geometry (sums, scalings, products, rewrites, twists and the
K-pushforward).  Only the product and times_one_minus keep their own
accumulation and normalise once at the end.

Alphabet(...) returns one interned instance per variable list, and each
Alphabet packs every exponent tuple it meets into an int once, in a memo
that maps both ways: the weighted degree in the top field, then 16 bits per
exponent in alphabet order (after Monagan and Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Int
order is (degree, exponent tuple) order, the degree is key >> shift, and the
key of a product of monomials is the sum of their keys.  Packed keys are the
stored form of a GradedPolynomial: its terms are {packed key: coefficient},
and every ring operation (sums, scalings, products, truncations, graded
parts, equality, the canonical text) reads and writes keys without packing
or unpacking.  The map keyed by exponent tuples, .terms, is derived through
the memo on its first read and kept, for the callers that walk exponents
(substitution, and the compiles of grrcheck.grr among others).  embed moves
whole blocks of exponent fields.  Every exponent stays below half its
16-bit field: the constructor checks each tuple it packs, and a key made by
adding keys is tested against the alphabet's mask of those top bits, so no
sum of two stored keys ever carries.  The product groups the right factor's
terms by degree, ascending, and meets each left term only with the groups
that fit under the bound.  times_one_minus multiplies by factors
(1 - s)^{+-1}, s a sum of weight-1 variables, on slices of one degree each:
a variable's key moves a slice up one degree, so each factor is one in-place
pass of key additions.  Results of the ring operations are built by
GradedPolynomial._normal from packed terms already clean; the public
constructor checks and normalises arbitrary input keyed by tuples.

Canonical text serialization (bit-exact, used for golden files): one term per
line, ``<num>/<den> <var>^<exp> ...`` with variables in alphabet order and
exponents always written; terms sorted ascending by (weighted degree, exponent
vector), which is packed-key order.  The zero polynomial serializes to the
empty string.  A polynomial writes it from its packed terms, and
serialize_terms writes it for the tuple-keyed Chow and K classes of
grrcheck.geometry, both from monomial texts each Alphabet keeps.

substitute_terms is the one loop over the monomials of a universal
polynomial, for every ring the package evaluates in: GradedPolynomial.substitute
(formal root rings) and the tower evaluations of grrcheck.grr (Chow rings)
both call it.  horner_scheme nests a grouped result by variable so that
horner_eval evaluates it many times over with one product per exponent step;
grrcheck.grr.evaluate_universal compiles every universal class on a tower
that way.

The symmetric-function reduction implements the classical fundamental-theorem
algorithm (lexicographic leading-term elimination).  Internally symmetric
polynomials are stored per orbit, i.e. in the monomial-symmetric basis indexed
by partitions; that is a representation choice only, the elimination order and
certificates are the classical ones.  The coefficient of m_lambda in a product
e_eta of elementary functions counts the 0-1 matrices with row sums eta and
column sums lambda (Macdonald, Symmetric Functions, I.6), and every lambda has
at most |eta| parts; so all root counts n >= |eta| share one expansion, and a
smaller n keeps only the lambda of length <= n.  Each expansion multiplies in
its last factor e_a by the lowerings of every target orbit gamma, and those
depend on (gamma, a) alone, so _LOWERINGS builds them once as a tuple.  The
change of basis between the e-products and the orbits is integral and
unitriangular, so an orbit with integer coefficients (grrcheck.series scales
each expansion by its cleared denominator first) eliminates entirely in int
arithmetic, and one that is not integral leaves a Fraction in the result.

Polynomials are immutable after construction (the tuple view is written
once, on its first read) and may share their term dicts;
the expansion and lowering memo tables, the key memos, the monomial texts and
the alphabet table are insert-only maps of immutable values (safe to share
across threads in CPython, or keep per task).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import add, mul, or_
from struct import Struct
from typing import Any, Iterable, Mapping, Sequence

from .arith import InputError

Monomial = tuple[int, ...]
Partition = tuple[int, ...]  # weakly decreasing positive integers

Scalar = int | Fraction


def _exact(c: Scalar) -> Scalar:
    """An integral Fraction as an int; any other scalar unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _scalar(c) -> Scalar:
    """Any exact number as a stored coefficient: int when integral, else Fraction."""
    return c if type(c) is int else _exact(Fraction(c))


def accumulate(
    out: dict[Monomial, Scalar],
    terms: Mapping[Monomial, Scalar],
    c: Scalar = 1,
    shift: Monomial | None = None,
) -> dict[Monomial, Scalar]:
    """out += c * terms in place, each key of terms moved by + shift when one
    is given; returns out.  A sum that cancels is dropped and an integral
    value is stored as an int.  This is the one accumulation of exact term
    maps: GradedPolynomial sums, the symmetric elimination, and the sums,
    products, rewrites and pushforwards of the Chow and K classes of
    grrcheck.geometry."""
    items = terms.items()
    if shift is not None:
        items = [(tuple(map(add, m, shift)), t) for m, t in items]
    get, unit = out.get, c == 1
    for m, t in items:
        v = get(m, 0) + (t if unit else c * t)
        if v:
            out[m] = v if type(v) is int else _exact(v)
        else:
            out.pop(m, None)
    return out


# An exponent takes 16 bits of a packed key and stays below half of that, so
# the sum of two keys never carries into the next exponent.
_HALF = 1 << 15


def _check_packable(mono: Monomial) -> None:
    if mono and not 0 <= min(mono) <= max(mono) < _HALF:
        raise AssertionError(f"exponent of {mono} outside the packed range [0, {_HALF})")


class _Keys(dict):
    """Exponent tuple -> packed key for one weight vector, each packed once:
    the degree, then exponent 0, 1, ... 16 bits each, so keys compare as
    (degree, exponent tuple) and the degree is key >> shift.  .monomials is
    the reverse map, filled at the same time.  .overflow has bit 15 of every
    exponent field set: a key made by adding keys has an exponent out of the
    packed range exactly when it meets that mask."""

    __slots__ = ("weights", "shift", "fields", "monomials", "overflow")

    def __init__(self, weights: tuple[int, ...]):
        super().__init__()
        self.weights, self.shift = weights, 16 * len(weights)
        self.fields = Struct(f">{len(weights)}H")
        self.monomials = _Monomials(self)
        self.overflow = sum(_HALF << 16 * i for i in range(len(weights)))

    def __missing__(self, mono: Monomial) -> int:
        _check_packable(mono)
        degree = sum(map(mul, mono, self.weights))
        key = self[mono] = degree << self.shift | int.from_bytes(self.fields.pack(*mono), "big")
        self.monomials[key] = mono
        return key

    def check(self, keys: Iterable[int]) -> None:
        """The guard on keys made by adding keys: every exponent stays below
        half its field, so the next sum cannot carry either."""
        if reduce(or_, keys, 0) & self.overflow:
            raise AssertionError(f"an exponent of a product outside the packed range [0, {_HALF})")


class _Monomials(dict):
    """Packed key -> exponent tuple.  A key no tuple was packed into (a sum of
    two keys) is unpacked once."""

    __slots__ = ("keys", "size", "mask")

    def __init__(self, keys: _Keys):
        super().__init__()
        self.keys, self.size, self.mask = keys, keys.shift // 8, (1 << keys.shift) - 1

    def __missing__(self, key: int) -> Monomial:
        mono = self.keys.fields.unpack((key & self.mask).to_bytes(self.size, "big"))
        self[key], self.keys[mono] = mono, key
        return mono


# variable list -> its one Alphabet
_ALPHABETS: dict[tuple[tuple[str, int], ...], "Alphabet"] = {}


class Alphabet:
    """Ordered list of uniquely named variables with non-negative integer
    weights.  There is one instance per list: Alphabet(...) returns it, so its
    key memos and monomial texts stay warm for every polynomial over the list,
    and alphabets are equal exactly when they are the same object."""

    __slots__ = ("variables", "weights", "shift", "keys", "monomials", "texts", "_index", "_names")

    def __new__(cls, variables: Iterable[tuple[str, int]]) -> "Alphabet":
        variables = tuple((str(n), int(w)) for n, w in variables)
        got = _ALPHABETS.get(variables)
        if got is not None:
            return got
        names = tuple(n for n, _ in variables)
        if len(set(names)) != len(names):
            raise InputError(f"duplicate variable names in alphabet: {list(names)}")
        if any(w < 0 for _, w in variables):
            raise InputError("variable weights must be >= 0")
        self = object.__new__(cls)
        self.variables, self._names = variables, names
        self.weights = tuple(w for _, w in variables)
        self._index = {n: i for i, n in enumerate(names)}
        self.keys = _Keys(self.weights)
        self.shift, self.monomials = self.keys.shift, self.keys.monomials
        self.texts: dict[int, str] = {}  # packed key -> factor text, see serialize_terms
        return _ALPHABETS.setdefault(variables, self)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown variable {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self.variables)

    def __repr__(self) -> str:
        return "Alphabet(" + ", ".join(f"{n}:{w}" for n, w in self.variables) + ")"


def weighted_alphabet(prefix: str, count: int) -> Alphabet:
    """Variables prefix1..prefixN with weights 1, 2, ..., N."""
    return Alphabet([(f"{prefix}{i}", i) for i in range(1, count + 1)])


def root_alphabet(prefix: str, count: int) -> Alphabet:
    """count weight-1 root variables prefix1..prefixN."""
    return Alphabet([(f"{prefix}{i}", 1) for i in range(1, count + 1)])


def join_alphabets(*parts: Alphabet) -> Alphabet:
    vars_: list[tuple[str, int]] = []
    for a in parts:
        vars_.extend(a.variables)
    return Alphabet(vars_)


class GradedPolynomial:
    """Terms are stored as {packed key: coefficient} over the alphabet's key
    memo; .terms, the map keyed by exponent tuples, is derived on its first
    read and kept."""

    __slots__ = ("alphabet", "truncation", "packed", "_terms")

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
        self._terms = None
        clean: dict[int, Scalar] = {}
        if terms:
            keys, limit = alphabet.keys, (truncation + 1) << alphabet.shift
            nvars = len(alphabet.weights)
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise InputError(f"monomial {mono} has wrong arity for {alphabet!r}")
                c = _scalar(coeff)
                if c and keys[mono] < limit:
                    clean[keys[mono]] = c
        self.packed = clean

    @classmethod
    def _normal(
        cls, alphabet: Alphabet, truncation: int, packed: dict[int, Scalar]
    ) -> "GradedPolynomial":
        """The polynomial with the given packed terms, already clean: in the
        bound, non-zero and normalised.  The dict is taken over, not copied."""
        p = object.__new__(cls)
        p.alphabet = alphabet
        p.truncation = truncation
        p.packed = packed
        p._terms = None
        return p

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        """{exponent tuple: coefficient}, for the callers that walk exponents."""
        if self._terms is None:
            monomials = self.alphabet.monomials
            self._terms = {monomials[k]: c for k, c in self.packed.items()}
        return self._terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, truncation: int) -> "GradedPolynomial":
        return cls(alphabet, truncation)

    @classmethod
    def constant(cls, alphabet: Alphabet, truncation: int, value: Scalar) -> "GradedPolynomial":
        return cls(alphabet, truncation, {(0,) * len(alphabet): value})

    @classmethod
    def variable(cls, alphabet: Alphabet, truncation: int, name: str) -> "GradedPolynomial":
        mono = [0] * len(alphabet)
        mono[alphabet.index(name)] = 1
        return cls(alphabet, truncation, {tuple(mono): 1})

    # -- basic queries -------------------------------------------------

    def degree_of(self, mono: Monomial) -> int:
        return self.alphabet.keys[mono] >> self.alphabet.shift

    def is_zero(self) -> bool:
        return not self.packed

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.packed.values())

    def coefficient(self, **exps: int) -> Scalar:
        """Coefficient of the monomial given by keyword exponents (others 0)."""
        mono = [0] * len(self.alphabet)
        for name, e in exps.items():
            mono[self.alphabet.index(name)] = e
        return self.packed.get(self.alphabet.keys[tuple(mono)], 0)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        monomials = self.alphabet.monomials
        return [(monomials[k], c) for k, c in sorted(self.packed.items())]

    def __eq__(self, other: object) -> bool:
        """Equality of alphabet and terms (truncation bound not compared)."""
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return self.alphabet is other.alphabet and self.packed == other.packed

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "GradedPolynomial") -> int:
        if self.alphabet is not other.alphabet:
            raise InputError("alphabet mismatch")
        return min(self.truncation, other.truncation)

    def _linear(self, other: "GradedPolynomial", sign: int) -> "GradedPolynomial":
        """self + sign * other."""
        bound = self._check_compatible(other)
        out = accumulate(dict(self.packed), other.packed, sign)
        if bound < max(self.truncation, other.truncation):
            limit = (bound + 1) << self.alphabet.shift
            out = {k: c for k, c in out.items() if k < limit}
        return GradedPolynomial._normal(self.alphabet, bound, out)

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self._linear(other, 1)

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self._linear(other, -1)

    def __neg__(self) -> "GradedPolynomial":
        return self.scale(-1)

    def scale(self, r: Scalar) -> "GradedPolynomial":
        r = _scalar(r)
        packed = {k: _exact(c * r) for k, c in self.packed.items()} if r else {}
        return GradedPolynomial._normal(self.alphabet, self.truncation, packed)

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        """Product truncated to the smaller bound: the key of a product of
        monomials is the sum of their keys.  other's terms are grouped by
        degree, ascending, so each term of self meets only the groups that
        fit under the bound."""
        bound = self._check_compatible(other)
        alphabet = self.alphabet
        shift = alphabet.shift
        groups: dict[int, list[tuple[int, Scalar]]] = {}
        for kb, cb in other.packed.items():
            groups.setdefault(kb >> shift, []).append((kb, cb))
        buckets = sorted(groups.items())
        out: dict[int, Scalar] = {}
        get = out.get
        for ka, ca in self.packed.items():
            room = bound - (ka >> shift)
            for db, group in buckets:
                if db > room:
                    break
                for kb, cb in group:
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
        alphabet.keys.check(out)
        packed = {k: c if type(c) is int else _exact(c) for k, c in out.items() if c}
        return GradedPolynomial._normal(alphabet, bound, packed)

    def times_one_minus(self, factors: Iterable[tuple[Sequence[str], int]]) -> "GradedPolynomial":
        """self * prod (1 - sum_{v in S} v)^e over the (S, e) factors, each S a
        set of weight-1 variables and e = 1 or -1, on per-degree slices of
        packed keys: y_d -= sum_S v*y_{d-1} top down for e = 1, and y_d +=
        sum_S v*y_{d-1} bottom up for e = -1 (the quotient y is self + s*y).
        An exponent of a weight-1 variable is at most the bound, so only a
        bound past the packed range needs the guard, on each slice it fills."""
        alphabet, bound, n = self.alphabet, self.truncation, len(self.alphabet)
        keys, shift = alphabet.keys, alphabet.shift
        parts: list[dict[int, Scalar]] = [{} for _ in range(bound + 1)]
        for k, c in self.packed.items():
            parts[k >> shift][k] = c
        for names, e in factors:
            steps = [keys[tuple(int(j == i) for j in range(n))] for i in map(alphabet.index, names)]
            if e not in (1, -1) or any(step >> shift != 1 for step in steps):  # degree = weight
                raise InputError(f"factor {names}, {e}: not weight-1 variables with e = +-1")
            for d in range(bound, 0, -1) if e == 1 else range(1, bound + 1):
                part, below = parts[d], parts[d - 1].items()
                for step in steps:
                    for k, c in below:
                        k += step
                        v = part.get(k, 0) - e * c
                        if v:
                            part[k] = v
                        else:
                            del part[k]
                if bound >= _HALF:
                    keys.check(part)
        packed = {k: _exact(c) for part in parts for k, c in part.items()}
        return GradedPolynomial._normal(alphabet, bound, packed)

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
        shift = self.alphabet.shift
        low, high = m << shift, (m + 1) << shift
        packed = {k: c for k, c in self.packed.items() if low <= k < high}
        return GradedPolynomial._normal(self.alphabet, self.truncation, packed)

    def truncate(self, bound: int) -> "GradedPolynomial":
        return self.with_bound(min(bound, self.truncation))

    def with_bound(self, bound: int) -> "GradedPolynomial":
        """Rebuild with an explicit truncation bound.

        Unlike arithmetic (which only ever lowers bounds), this is a fresh
        construction: raising the bound is a claim by the caller that the
        polynomial is exact, not a truncated series.
        """
        if bound < 0:
            raise InputError("truncation bound must be >= 0")
        packed = self.packed
        if bound < self.truncation:
            limit = (bound + 1) << self.alphabet.shift
            packed = {k: c for k, c in packed.items() if k < limit}
        return GradedPolynomial._normal(self.alphabet, bound, packed)

    # -- structure maps -------------------------------------------------

    def substitute(
        self,
        images: Mapping[str, "GradedPolynomial | Scalar"],
        target: Alphabet,
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
        if any(p.alphabet is not target for p in polys):
            raise InputError("substitution images live in different alphabets")
        names = self.alphabet.names()
        full: dict[str, GradedPolynomial | Scalar] = {}
        for name in names:
            if name in images:
                img = images[name]
            else:
                img = GradedPolynomial.variable(target, bound, name)
            full[name] = img.truncate(bound) if isinstance(img, GradedPolynomial) else img
        one = GradedPolynomial.constant(target, bound, 1)
        grouped = substitute_terms(self.terms, names, full, one)
        return grouped.get((), GradedPolynomial.zero(target, bound))

    def embed(self, target: Alphabet) -> "GradedPolynomial":
        """Reinterpret over a larger alphabet containing all current names
        (same weights).  The degree stays, so each run of variables that
        stays adjacent moves its exponent fields as one block of bits."""
        if target is self.alphabet:
            return self
        n, runs = len(self.alphabet), []  # [source offset, fields, target offset]
        for i, (name, w) in enumerate(self.alphabet.variables):
            j = target.index(name)
            if target.weights[j] != w:
                raise InputError(f"weight mismatch embedding {name}")
            low, high = 16 * (n - 1 - i), 16 * (len(target) - 1 - j)
            if runs and runs[-1][2] == high + 16:
                runs[-1] = [low, runs[-1][1] + 1, high]
            else:
                runs.append([low, 1, high])
        moves = [(low, (1 << 16 * fields) - 1, high) for low, fields, high in runs]
        shift, out = self.alphabet.shift, {}
        for k, c in self.packed.items():
            new = k >> shift << target.shift
            for low, mask, high in moves:
                new |= (k >> low & mask) << high
            out[new] = c
        return GradedPolynomial._normal(target, self.truncation, out)

    def rename(self, mapping: Mapping[str, str]) -> "GradedPolynomial":
        """Rename variables in place (same order and weights, so the same keys)."""
        target = Alphabet([(mapping.get(n, n), w) for n, w in self.alphabet.variables])
        return GradedPolynomial._normal(target, self.truncation, self.packed)

    # -- text forms ------------------------------------------------------

    def serialize(self) -> str:
        return _serialize_keyed(self.alphabet, self.packed.items())

    def pretty(self) -> str:
        """Human-oriented single-line rendering, e.g. ``c1^2 + c2``."""
        if not self.packed:
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


def serialize_terms(alphabet: Alphabet, terms: Mapping[Monomial, Scalar]) -> str:
    """The canonical text of a term map keyed by exponent tuples, without zero
    coefficients (see _serialize_keyed)."""
    keys = alphabet.keys
    return _serialize_keyed(alphabet, [(keys[m], c) for m, c in terms.items()])


def _serialize_keyed(alphabet: Alphabet, items: Iterable[tuple[int, Scalar]]) -> str:
    """The canonical text of (packed key, coefficient) pairs with distinct
    keys, in packed-key order: per term "<num>/<den>" and the monomial's
    factor text, one " <var>^<exp>" per nonzero exponent, built once per
    alphabet.  A coefficient past Python's int-digit limit is an InputError."""
    texts, lines = alphabet.texts, []
    try:
        for key, c in sorted(items):  # keys are distinct
            if key not in texts:
                exponents = zip(alphabet.names(), alphabet.monomials[key])
                texts[key] = "".join([f" {n}^{e}" for n, e in exponents if e])
            lines.append(f"{c.numerator}/{c.denominator}{texts[key]}")
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InputError(f"class text exceeds the {limit}-digit limit of decimal text") from None
    return "\n".join(lines)


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
                scalar *= image**e
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


def horner_scheme(grouped: Mapping[Monomial, Any]) -> Any:
    """Nest a nonempty map {exponent tuple: coefficient} as a Horner scheme:
    the coefficient itself for the empty tuple, otherwise the pairs
    (step, scheme of the rest) for the exponents e of the first variable,
    descending, where step is e minus the next lower exponent (or 0) (Pena
    and Sauer, "On the multivariate Horner scheme", 2000)."""
    if () in grouped:
        return grouped[()]
    rest: dict[int, dict[Monomial, Any]] = {}
    for mono, coeff in grouped.items():
        rest.setdefault(mono[0], {})[mono[1:]] = coeff
    exps = sorted(rest, reverse=True)
    return tuple((e - low, horner_scheme(rest[e])) for e, low in zip(exps, exps[1:] + [0]))


def horner_eval(scheme: Any, values: Sequence[Any]) -> Any:
    """A horner_scheme at one ring element per variable: each pair adds its
    inner value and multiplies by the variable step times, so one product
    per exponent step of each variable, and no powers, monomials or lists."""
    if not values:
        return scheme
    x, values = values[0], values[1:]
    acc = None
    for step, inner in scheme:
        value = horner_eval(inner, values) if values else inner
        acc = value if acc is None else acc + value
        for _ in range(step):
            acc = acc * x
    return acc


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


def _lowerings(gamma: Partition, a: int) -> tuple[tuple[Partition, int], ...]:
    """Every partition reached by lowering a distinct entries of gamma by one,
    with the number of position sets that reach it.  multiply_by_elementary
    memoises the result per (gamma, a) in _LOWERINGS.

    Entries are chosen per block of equal values, k of a block of cnt in
    comb(cnt, k) ways; a block of value v leaves cnt - k entries v and k
    entries v - 1, so concatenating the blocks in order keeps the result
    sorted.  A lowered 1 becomes a 0 and leaves the partition.
    """
    states: list[tuple[Partition, int, int]] = [((), 1, a)]
    left = len(gamma)
    for v, cnt in _blocks(gamma):
        left -= cnt
        lowered = (v - 1,) if v > 1 else ()
        nxt = []
        for head, mult, rem in states:
            # at least rem - left from this block, or the later ones cannot take the rest
            for k in range(max(0, rem - left), min(cnt, rem) + 1):
                tail = (v,) * (cnt - k) + lowered * k
                nxt.append((head + tail, mult * comb(cnt, k), rem - k))
        states = nxt
    return tuple((sigma, mult) for sigma, mult, _ in states)


def _blocks(parts: Sequence[int]) -> list[tuple[int, int]]:
    """Run-length encode a weakly decreasing vector as (value, count) blocks."""
    blocks: list[tuple[int, int]] = []
    for v in parts:
        if blocks and blocks[-1][0] == v:
            blocks[-1] = (v, blocks[-1][1] + 1)
        else:
            blocks.append((v, 1))
    return blocks


def orbit_from_product(
    coeffs: Sequence[Fraction], n_roots: int, degree: int, scale: Scalar
) -> dict[Partition, Scalar]:
    """scale times the degree-`degree` part of the orbit-basis expansion of
    prod_{j=1..n_roots} f(x_j), f = sum coeffs[k] x^k: the orbit whose
    elimination is the class numerator.

    Each variable occurs in exactly one factor, so the coefficient of the
    monomial-symmetric function m_lambda is prod_i coeffs[lambda_i] times
    coeffs[0]^(n_roots - len(lambda)).
    """
    out: dict[Partition, Scalar] = {}
    top = len(coeffs) - 1
    c0 = Fraction(coeffs[0]) if coeffs else Fraction(0)
    for lam in partitions(degree, max_part=top, max_len=n_roots):
        c = scale * c0 ** (n_roots - len(lam))
        for part in lam:
            c *= coeffs[part]
            if not c:
                break
        if c:
            out[lam] = c
    return out


# (gamma, a) -> _lowerings(gamma, a): the expansions meet the same pair many
# times (13,336 lookups of 864 pairs in suite_integrality(13) followed by
# suite_series_identities(8))
_LOWERINGS: dict[tuple[Partition, int], tuple[tuple[Partition, int], ...]] = {}


def multiply_by_elementary(
    f: dict[Partition, Scalar], a: int, n_roots: int
) -> dict[Partition, Scalar]:
    """Orbit-basis product f * e_a in n_roots variables.

    Uses the backward rule: the coefficient of the sorted monomial gamma in
    f*e_a is the sum over ways of decrementing a entries of gamma (grouped by
    equal-value blocks, with binomial multiplicity) of f's coefficient at the
    resulting partition.  The lowerings of each (gamma, a) are built once.
    """
    if a == 0:
        return dict(f)
    if a > n_roots:
        return {}
    degrees: dict[int, int] = {}
    for lam in f:
        d = sum(lam)
        degrees[d] = max(degrees.get(d, 0), lam[0] if lam else 0)
    out: dict[Partition, Scalar] = {}
    for d, max_part in degrees.items():
        for gamma in partitions(d + a, max_part=max_part + 1, max_len=n_roots):
            lowerings = _LOWERINGS.get((gamma, a))
            if lowerings is None:
                lowerings = _LOWERINGS[gamma, a] = _lowerings(gamma, a)
            total = 0
            for sigma, mult in lowerings:
                c = f.get(sigma)
                if c is not None:
                    total += c * mult
            if total:
                out[gamma] = total
    return out


_ELEM_EXPANSION: dict[tuple[int, tuple[int, ...]], dict[Partition, int]] = {}


def elementary_product_orbit(eta: tuple[int, ...], n_roots: int) -> dict[Partition, int]:
    """Orbit-basis expansion of the product e_{eta_1} * e_{eta_2} * ... (eta desc);
    its coefficients are non-negative integers.  Every root count >= |eta|
    gives the same expansion, so it is built and memoised once, at |eta|."""
    if not eta:
        return {(): 1}
    n = min(n_roots, sum(eta))
    cached = _ELEM_EXPANSION.get((n, eta))
    if cached is None:
        prev = elementary_product_orbit(eta[:-1], n)
        cached = multiply_by_elementary(prev, eta[-1], n)
        _ELEM_EXPANSION[n, eta] = cached
    return cached


def reduce_orbit_to_elementary(
    f: Mapping[Partition, Scalar], n_roots: int
) -> dict[tuple[int, ...], Scalar]:
    """Classical lex leading-term elimination on an orbit-basis symmetric polynomial.

    Returns a map from e-index multisets (desc tuples, index i meaning one
    factor e_i) to coefficients.
    """
    work = accumulate({}, f)
    out: dict[tuple[int, ...], Scalar] = {}
    last = None
    while work:
        lam = max(work)
        if len(lam) > n_roots:
            raise InputError(f"orbit {lam} impossible with {n_roots} roots")
        if last is not None and lam >= last:
            # e_eta has leading orbit lam with coefficient 1, so lam must go
            raise AssertionError("elimination did not lower the leading orbit")
        last, coeff = lam, work[lam]
        eta = conjugate_partition(lam)
        out[eta] = coeff  # lam -> eta is one to one, so each eta comes once
        accumulate(work, elementary_product_orbit(eta, n_roots), -coeff)
    return out


# ---------------------------------------------------------------------------
# elementary symmetric polynomials and power sums as GradedPolynomials
# ---------------------------------------------------------------------------


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
    terms: dict[Monomial, Scalar] = {}
    n = len(alphabet)
    for subset in combinations(idx, i):
        mono = [0] * n
        for j in subset:
            mono[j] = 1
        terms[tuple(mono)] = 1
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
    return total + ek.scale((-1) ** (k - 1) * k)


# ---------------------------------------------------------------------------
# univariate exact series helpers (lists of ints and Fractions, index = degree)
# ---------------------------------------------------------------------------


def series_mul(a: Sequence[Scalar], b: Sequence[Scalar], n: int) -> list[Scalar]:
    out: list[Scalar] = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_invert(a: Sequence[Scalar], n: int) -> list[Scalar]:
    if a[0] == 0:
        raise InputError("series is not invertible (zero constant term)")
    inv0 = Fraction(1, a[0])
    out = [inv0] + [Fraction(0)] * n
    for k in range(1, n + 1):
        s = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            s += a[j] * out[k - j]
        out[k] = -inv0 * s
    return out


def series_log(a: Sequence[Scalar], n: int) -> list[Scalar]:
    """log of a series with constant term 1, via  (log a)' = a'/a."""
    if a[0] != 1:
        raise InputError("series_log needs constant term 1")
    da = [k * a[k] for k in range(1, min(len(a), n + 1))]
    da += [0] * (n - len(da))
    quot = series_mul(da, series_invert(list(a), n), n - 1) if n >= 1 else []
    out: list[Scalar] = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        out[k] = Fraction(quot[k - 1], k)
    return out
