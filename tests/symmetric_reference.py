"""The root-alphabet route, kept as a test reference.

grrcheck reduces the bundle series in the Chern alphabet from the universal
Todd classes (identities.howe_reduce).  The route here works over explicit
roots instead: it expands the per-root series as full monomials, rewrites a
symmetric polynomial in the roots through the elementary symmetric functions
(elementary_reduce, which first checks the symmetry), and reduces the bundle
series modulo prod_i (T - x_i) over the roots.  It shares with the package
the per-root Todd series and the orbit elimination
poly.reduce_orbit_to_elementary, but neither the universal Todd classes nor
the Chern-alphabet substitution, so the tests compare the package against it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from grrcheck.arith import InputError
from grrcheck.poly import (
    Alphabet,
    GradedPolynomial,
    Monomial,
    Partition,
    Scalar,
    join_alphabets,
    reduce_orbit_to_elementary,
    root_alphabet,
)
from grrcheck.series import apply_series, exp_series, todd_root_series


class SymmetryError(ValueError):
    """Input is not symmetric; carries one violating transposition."""

    def __init__(self, name_a: str, name_b: str):
        self.transposition = (name_a, name_b)
        super().__init__(f"not symmetric under swapping {name_a} <-> {name_b}")


def _swap_positions(mono: Monomial, i: int, j: int) -> Monomial:
    lst = list(mono)
    lst[i], lst[j] = lst[j], lst[i]
    return tuple(lst)


def check_symmetry(p: GradedPolynomial, root_names: Sequence[str]) -> None:
    """Raise SymmetryError naming a violating adjacent transposition, if any."""
    idx = [p.alphabet.index(n) for n in root_names]
    for a, b in zip(idx, idx[1:]):
        for mono, coeff in p.terms.items():
            if p.terms.get(_swap_positions(mono, a, b), 0) != coeff:
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

    groups: dict[Monomial, dict[Partition, Scalar]] = {}
    for mono, coeff in p.terms.items():
        roots = tuple(mono[i] for i in root_idx)
        canon = tuple(sorted(roots, reverse=True))
        if roots != canon:
            continue  # orbit already counted at its sorted representative
        lam = canon[: len(canon) - canon.count(0)] if 0 in canon else canon
        rest = tuple(mono[i] for i in other_idx)
        groups.setdefault(rest, {})[lam] = coeff

    out_terms: dict[Monomial, Scalar] = {}
    for rest, orbit in groups.items():
        for eta, coeff in reduce_orbit_to_elementary(orbit, k).items():
            evec = [0] * k
            for i in eta:
                evec[i - 1] += 1
            out_terms[tuple(evec) + rest] = coeff
    return GradedPolynomial(out_alphabet, p.truncation, out_terms)


def howe_reduce_by_roots(r: int, a: int, degree_bound: int) -> list[GradedPolynomial]:
    """Expand e^{aT} * prod_{i<=r+1} (T-x_i)/(1-e^{-(T-x_i)}) over the roots
    x_i and reduce by the relation prod_i (T - x_i) = 0, i.e. rewrite T^{r+1}
    through lower powers; then rewrite each coefficient of T^j through the
    elementary symmetric functions c1..c_{r+1} of the roots.

    Returns [f_0, ..., f_r] in the form identities.howe_reduce returns them.
    """
    n = r + 1
    al = join_alphabets(Alphabet([("T", 1)]), root_alphabet("x", n))
    bound = degree_bound
    t = GradedPolynomial.variable(al, bound, "T")
    td = todd_root_series(bound)
    total = apply_series(exp_series(bound, a), t)
    for i in range(1, n + 1):
        xi = GradedPolynomial.variable(al, bound, f"x{i}")
        total = total * apply_series(td, t - xi)

    # relation: T^{r+1} = T^{r+1} - prod(T - x_i), a polynomial of T-degree <= r
    rel = t_n = GradedPolynomial.constant(al, bound, 1)
    for i in range(1, n + 1):
        rel = rel * (t - GradedPolynomial.variable(al, bound, f"x{i}"))
        t_n = t_n * t
    remainder = t_n - rel

    while True:
        keep: dict[Monomial, Fraction] = {}
        excess: dict[Monomial, Fraction] = {}
        for mono, c in total.terms.items():
            (excess if mono[0] > r else keep)[mono] = c
        if not excess:
            break
        shifted = {(mono[0] - n,) + mono[1:]: c for mono, c in excess.items()}
        total = GradedPolynomial(al, bound, keep) + GradedPolynomial(
            al, bound, shifted
        ) * remainder

    out: list[GradedPolynomial] = []
    root_names = [f"x{i}" for i in range(1, n + 1)]
    for j in range(r + 1):
        part = GradedPolynomial(
            al,
            bound,
            {(0,) + mono[1:]: c for mono, c in total.terms.items() if mono[0] == j},
        )
        out.append(elementary_reduce(part, root_names, out_prefix="c"))
    return out


def brute_force_todd(m: int, n_roots: int) -> GradedPolynomial:
    """Independent oracle for the degree-m Todd class: full-monomial expansion
    of the root product over n_roots roots, reduced by elementary_reduce."""
    al = root_alphabet("x", n_roots)
    coeffs = todd_root_series(m)
    total = GradedPolynomial.constant(al, m, 1)
    for name in al.names():
        x = GradedPolynomial.variable(al, m, name)
        total = total * apply_series(coeffs, x)
    return elementary_reduce(total.graded_part(m), list(al.names()), out_prefix="c")
