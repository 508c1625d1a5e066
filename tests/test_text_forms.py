"""The two text forms every verdict rests on, against their long-way
references in text_reference: the canonical text of polynomials and of Chow
and K classes (poly.serialize_keyed), and a report's JSON line
(VerificationReport.to_json)."""

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from grrcheck.geometry import KClass
from grrcheck.poly import Alphabet, GradedPolynomial, root_alphabet, serialize_keyed
from grrcheck.report import VerificationReport
from grrcheck.suites import MODEL_TOWERS, model_tower

from chow_reference import chow_class, chow_terms
from text_reference import report_json_reference, serialize_reference

ALPHABETS = [
    Alphabet([("a", 1), ("b", 1), ("c", 2)]),
    Alphabet([("c1", 1), ("c2", 2), ("c3", 3), ("c4", 4)]),
    Alphabet([("ξ1", 1), ("t", 0), ("x", 3)]),
    root_alphabet("x", 3),
]

COEFFICIENTS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**12),
    st.integers(-5, 5),
)


class TestSerializeTerms:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ALPHABETS), st.integers(0, 12), st.data())
    def test_polynomials_match_the_reference(self, alphabet, bound, data):
        mono = st.tuples(*[st.integers(0, 4) for _ in alphabet.names()])
        terms = data.draw(st.dictionaries(mono, COEFFICIENTS, max_size=12))
        p = GradedPolynomial(alphabet, bound, terms)
        expected = serialize_reference(alphabet, p.terms)
        assert serialize_keyed(alphabet, p.packed.items()) == expected
        assert p.serialize() == expected

    def test_zero_polynomial_is_empty(self):
        for alphabet in ALPHABETS:
            assert serialize_keyed(alphabet, []) == ""
            assert GradedPolynomial.zero(alphabet, 4).serialize() == ""

    def test_unit_and_fraction_lines(self):
        al = ALPHABETS[0]
        p = GradedPolynomial(al, 4, {(0, 0, 0): 1, (2, 0, 1): Fraction(-3, 4), (0, 1, 0): 6})
        assert p.serialize() == "1/1\n6/1 b^1\n-3/4 a^2 c^1"

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([name for name, _, _ in MODEL_TOWERS]), st.data())
    def test_chow_and_k_classes_of_the_model_towers(self, name, data):
        tower = model_tower(name)
        n = tower.n_levels
        mono = st.tuples(*[st.integers(0, 3) for _ in range(n)])
        raw = data.draw(st.dictionaries(mono, st.integers(-50, 50), max_size=8))
        alpha = chow_class(tower, raw)
        if data.draw(st.booleans()):
            alpha = alpha.scale(data.draw(st.fractions(min_value=-5, max_value=5)))
        expected = serialize_reference(tower.alphabet, chow_terms(alpha))
        assert alpha.serialize() == expected
        assert repr(alpha) == f"ChowClass({expected!r})"

        vec = st.tuples(*[st.integers(-3, 3) for _ in range(n)])
        # the constructor takes nonzero multiplicities only
        mult = st.integers(-4, 4).filter(bool)
        F = KClass(tower, data.draw(st.dictionaries(vec, mult, max_size=5)))
        assert F.serialize() == serialize_reference(root_alphabet("l", n), F.normal_form())
        chern = F.total_chern()
        assert chern.serialize() == serialize_reference(tower.alphabet, chow_terms(chern))


# arbitrary Unicode, with the characters JSON must escape drawn often:
# quotes, backslashes, control characters and lone surrogates
TEXT = st.lists(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "ξ", "/"]),
        st.integers(0xD800, 0xDFFF).map(chr),
    ),
    max_size=24,
).map("".join)


class TestReportJson:
    @settings(max_examples=300, deadline=None)
    @given(
        TEXT, TEXT, TEXT, TEXT,
        st.sampled_from(["pass", "fail"]),
        st.none() | TEXT,
        st.none() | st.integers(-(10**6), 10**9),
        st.none() | TEXT,
        st.booleans(),
    )
    def test_line_is_the_json_dumps_payload(
        self, identity, instance, lhs, rhs, verdict, discrepancy, millis, notes, timing
    ):
        rep = VerificationReport(identity, instance, lhs, rhs, verdict, discrepancy, millis, notes)
        line = rep.to_json(timing)
        assert line == report_json_reference(rep, timing)
        assert line.isascii()

    def test_key_order_with_timing_and_notes(self):
        rep = VerificationReport("id", "inst", "1/1", "2/1", "fail", "line 1", 7, "ξ")
        keys = list(json.loads(rep.to_json(timing=True)))
        assert keys == [
            "schema", "identity", "instance", "lhs", "rhs",
            "verdict", "discrepancy", "millis", "notes",
        ]
        assert json.loads(rep.to_json(timing=True))["millis"] == 7
        assert json.loads(rep.to_json())["millis"] is None
