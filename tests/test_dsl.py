import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylq import DslError, Syllogism, SyllogismDoc, parse
from sylq.dsl import conclusion_text, print_doc
from sylq.inference import MAX_LEVELS
from sylq.quantifiers import QuantifierSpec
from sylq.statements import Conclusion, Statement
from sylq.terms import UNIVERSE, And, Not, Or, Prop, Universe
from conftest import (
    COUNT,
    LOGICAL,
    RATIO,
    load_fixture,
    random_count_interval,
    random_crisp_syllogism,
    random_fuzzy_syllogism,
    random_ratio_interval,
)

F = Fraction

FIXTURES = [
    "pets_at_home.syl",
    "course_passrates_crisp.syl",
    "course_passrates_fuzzy.syl",
    "course_passrates_nonnormalized.syl",
    "wine_exports_rim.syl",
    "warehouse_sales_mix.syl",
    "hats_and_ties.syl",
    "wine_boxes_exception.syl",
]


@pytest.mark.parametrize("name", FIXTURES)
def test_bundled_fixtures_round_trip(name):
    doc = load_fixture(name)
    assert parse(print_doc(doc)) == doc


def doc_from(syl, rng):
    options = {}
    if rng.random() < 0.4:
        options["mode"] = rng.choice(("auto", "crisp", "kersup", "alpha"))
    if rng.random() < 0.3:
        options["levels"] = rng.randint(2, 21)
    return SyllogismDoc(
        properties=syl.properties,
        premises=syl.premises,
        conclusion=syl.conclusion,
        universe_size=syl.universe_size,
        options=options,
    )


def test_random_documents_round_trip():
    rng = random.Random("dsl round trip")
    for i in range(150):
        syl = (
            random_crisp_syllogism(rng)
            if i % 2
            else random_fuzzy_syllogism(rng)
        )
        doc = doc_from(syl, rng)
        text = print_doc(doc)
        assert parse(text) == doc, text
        assert print_doc(parse(text)) == text


# ------------------------------------- one walk per term after the tokenizer


@st.composite
def front_end_docs(draw):
    """A document over S <= 4 properties with premises of every family and
    terms nested with !, &, | and parentheses."""
    names = ("p0", "p1", "p2", "p3")[: draw(st.integers(1, 4))]
    leaves = st.sampled_from([Prop(name) for name in names] + [UNIVERSE])
    terms = st.recursive(
        leaves,
        lambda sub: st.one_of(sub.map(Not), st.builds(And, sub, sub), st.builds(Or, sub, sub)),
        max_leaves=6,
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    premises = []
    for family in draw(st.lists(st.sampled_from(LOGICAL + COUNT + RATIO), min_size=1, max_size=3)):
        if family in LOGICAL:
            spec = QuantifierSpec(family)
        elif family in COUNT:
            spec = QuantifierSpec(family, random_count_interval(rng, family))
        else:
            spec = QuantifierSpec(family, random_ratio_interval(rng, family))
        premises.append(Statement(spec, draw(terms), draw(terms)))
    conclusion = Conclusion(draw(st.sampled_from(COUNT + RATIO)), draw(terms), draw(terms))
    universe = draw(st.sampled_from((None, F(6))))
    return SyllogismDoc(names, tuple(premises), conclusion, universe, {})


def truth_mask(expr, names):
    """The atoms inside a term, one atom at a time: bit b of atom k tells
    whether it lies inside the b-th property."""
    def holds(node, atom):
        if isinstance(node, Prop):
            return bool(atom >> names.index(node.name) & 1)
        if isinstance(node, Universe):
            return True
        if isinstance(node, Not):
            return not holds(node.arg, atom)
        if isinstance(node, And):
            return holds(node.left, atom) and holds(node.right, atom)
        return holds(node.left, atom) or holds(node.right, atom)

    return sum(1 << atom for atom in range(1 << len(names)) if holds(expr, atom))


def with_leaf(expr, index, leaf):
    """expr with its index-th leaf (left to right) replaced; also the count
    of leaves seen."""
    if isinstance(expr, (Prop, Universe)):
        return (leaf if index == 0 else expr), 1
    if isinstance(expr, Not):
        arg, seen = with_leaf(expr.arg, index, leaf)
        return Not(arg), seen
    left, seen = with_leaf(expr.left, index, leaf)
    right, more = with_leaf(expr.right, index - seen, leaf)
    return type(expr)(left, right), seen + more


@settings(derandomize=True, deadline=None, max_examples=200)
@given(front_end_docs(), st.data())
def test_one_walk_gives_term_sets_and_refuses_undeclared_names(doc, data):
    names = doc.properties
    syl = parse(print_doc(doc)).to_syllogism()
    statements = (*doc.premises, doc.conclusion)
    assert syl.term_sets == tuple(
        (truth_mask(st.restriction, names), truth_mask(st.scope, names)) for st in statements
    )

    # one leaf of one restriction or scope becomes an undeclared name
    at = data.draw(st.integers(0, len(statements) - 1))
    side = data.draw(st.sampled_from(("restriction", "scope")))
    term = getattr(statements[at], side)
    index = data.draw(st.integers(0, with_leaf(term, -1, None)[1] - 1))
    bad = with_leaf(term, index, Prop("zz"))[0]
    parts = [statements[at].restriction, statements[at].scope]
    parts[side == "scope"] = bad
    if at < len(doc.premises):
        premises = list(doc.premises)
        premises[at] = Statement(statements[at].quantifier, *parts)
        premises, conclusion, where = tuple(premises), doc.conclusion, "premise %d" % (at + 1)
    else:
        premises, where = doc.premises, "conclusion"
        conclusion = Conclusion(doc.conclusion.family, *parts)
    line = 2 + (doc.universe_size is not None) + at
    with pytest.raises(DslError) as err:
        parse(print_doc(SyllogismDoc(names, premises, conclusion, doc.universe_size, {})))
    assert (err.value.line, err.value.column) == (line, None)
    assert str(err.value) == "line %d: undeclared property 'zz' (declared: %s)" % (
        line,
        ", ".join(names),
    )
    with pytest.raises(ValueError) as err:
        Syllogism(names, premises, conclusion, doc.universe_size)
    assert str(err.value) == "%s %s references undeclared property 'zz'" % (where, side)


def test_numbers_parse_exactly():
    doc = parse(
        "terms: p, q\npremise: prop[0.7, 1] p -> q\nconclude: prop? p -> q\n"
    )
    assert doc.premises[0].quantifier.shape.lo == F(7, 10)
    doc = parse(
        "terms: p, q\npremise: prop[1/3, 2/3] p -> q\nconclude: prop? p -> q\n"
    )
    shape = doc.premises[0].quantifier.shape
    assert (shape.lo, shape.hi) == (F(1, 3), F(2, 3))


def universe_doc(size):
    return "terms: p, q\nuniverse: %s\npremise: all p -> q\nconclude: abs? p -> q\n" % size


@pytest.mark.parametrize("size", ["1e5", "1_000", "1e999999999", "\u0663"])
def test_universe_takes_only_document_numbers(size):
    # an exponent must be refused before any power of ten is built
    with pytest.raises(DslError, match=r"line 2: malformed number '%s'" % size):
        parse(universe_doc(size))


def test_bounds_take_only_ascii_digits():
    # \d also matches other scripts' digits, and Fraction reads them
    with pytest.raises(DslError, match="line 2, column 14: quantifier prop needs a shape"):
        parse("terms: p, q\npremise: prop[\u0660.5, 1] p -> q\nconclude: prop? p -> q\n")


# (number, where it stands) -> (message, line, column) of the error it raises
NUMBER_ERRORS = {
    ("1e3", "universe"): ("line 2: malformed number '1e3'", 2, None),
    ("1_0", "universe"): ("line 2: malformed number '1_0'", 2, None),
    ("\u0663", "universe"): ("line 2: malformed number '\u0663'", 2, None),
    ("3/0", "universe"): ("line 2: malformed number '3/0'", 2, None),
    ("3/0", "bound"): ("line 2: malformed number '3/0'", 2, None),
    ("-3/0", "trapezoid"): ("line 2: malformed number '-3/0'", 2, None),
    ("1e3", "bound"): ("line 2, column 13: quantifier abs needs a shape", 2, 13),
    ("1_0", "trapezoid"): ("line 2, column 13: quantifier abs needs a shape", 2, 13),
    ("\u0663", "bound"): ("line 2, column 13: quantifier abs needs a shape", 2, 13),
}
NUMBER_SITES = {
    "universe": "terms: p, q\nuniverse: %s\npremise: all p -> q\nconclude: abs? p -> q\n",
    "bound": "terms: p, q\npremise: abs[%s, 5] p -> q\nconclude: abs? p -> q\n",
    "trapezoid": "terms: p, q\npremise: abs tz(0, %s, 5, 6) p -> q\nconclude: abs? p -> q\n",
}


@pytest.mark.parametrize("number, site", list(NUMBER_ERRORS))
def test_malformed_numbers_keep_their_errors(number, site):
    message, line, column = NUMBER_ERRORS[number, site]
    with pytest.raises(DslError) as err:
        parse(NUMBER_SITES[site] % number)
    assert str(err.value).startswith(message)
    assert (err.value.line, err.value.column) == (line, column)


def test_numbers_parse_like_fraction():
    rng = random.Random(15)
    texts = ["0", "-0", "007", "-0.05", "10.000", "0/5", "-6/4", "1/3"]
    for _ in range(300):
        digits = str(rng.randint(0, 10**rng.randint(0, 12)))
        sign = rng.choice(("", "-"))
        roll = rng.random()
        if roll < 0.3:
            texts.append(sign + digits)
        elif roll < 0.7:
            decimals = "0" * rng.randint(0, 3) + str(rng.randint(0, 999))
            texts.append("%s%s.%s" % (sign, digits, decimals))
        else:
            texts.append("%s%s/%d" % (sign, digits, rng.randint(1, 10**6)))
    for text in texts:
        got = parse(universe_doc("1") + "premise: cmpabs[%s, inf] p vs q\n" % text).premises[1]
        assert got.quantifier.shape.lo == F(text), text


def test_fractional_universes_parse_exactly():
    assert parse(universe_doc("9/2")).universe_size == F(9, 2)
    assert parse(universe_doc("2.5")).universe_size == F(5, 2)


def test_error_positions_are_reported():
    with pytest.raises(DslError) as err:
        parse("terms: p, q\npremise: all p -> (q\nconclude: abs? p -> q\n")
    assert err.value.line == 2
    assert "line 2" in str(err.value)
    # a missing quantifier is reported at the body's first non-blank
    with pytest.raises(DslError, match="expected a quantifier") as err:
        parse("terms: p, q\npremise:   many p -> q\nconclude: abs? p -> q\n")
    assert (err.value.line, err.value.column) == (2, 12)


def test_connector_must_match_the_family():
    head = "terms: p, q\n"
    tail = "conclude: abs? p -> q\n"
    with pytest.raises(DslError) as err:
        parse(head + "premise: cmpabs[0, 2] p -> q\n" + tail)
    assert "vs" in str(err.value)
    with pytest.raises(DslError) as err:
        parse(head + "premise: prop[0, 1] p vs q\n" + tail)
    assert "->" in str(err.value)


def test_undeclared_and_reserved_names():
    with pytest.raises(DslError) as err:
        parse("terms: p, q\npremise: all p -> z\nconclude: abs? p -> q\n")
    assert "z" in str(err.value) and "p" in str(err.value)
    with pytest.raises(DslError):
        parse("terms: p, vs\npremise: all p -> vs\nconclude: abs? p -> vs\n")
    with pytest.raises(DslError):
        parse("terms: p, p\npremise: all p -> p\nconclude: abs? p -> p\n")


def test_document_shape_rules():
    with pytest.raises(DslError):  # no premises
        parse("terms: p, q\nconclude: abs? p -> q\n")
    with pytest.raises(DslError):  # no conclusion
        parse("terms: p, q\npremise: all p -> q\n")
    with pytest.raises(DslError):  # two conclusions
        parse(
            "terms: p, q\npremise: all p -> q\n"
            "conclude: abs? p -> q\nconclude: abs? q -> p\n"
        )
    with pytest.raises(DslError):  # premise before terms
        parse("premise: all p -> q\nterms: p, q\nconclude: abs? p -> q\n")
    with pytest.raises(DslError):  # duplicate universe
        parse(
            "terms: p, q\nuniverse: 5\nuniverse: 6\n"
            "premise: all p -> q\nconclude: abs? p -> q\n"
        )


def test_shape_spellings():
    head = "terms: p, q\n"
    tail = "conclude: abs? p -> q\n"
    with pytest.raises(DslError):
        parse(head + "premise: prop[0.7] p -> q\n" + tail)
    with pytest.raises(DslError):
        parse(head + "premise: abs tz(1, 2) p -> q\n" + tail)
    with pytest.raises(DslError):
        parse(head + "premise: some[0, 1] p -> q\n" + tail)
    with pytest.raises(DslError):
        parse(head + "premise: abs p -> q\n" + tail)
    doc = parse(head + "premise: abs[2, inf] p -> q\n" + tail)
    assert doc.premises[0].quantifier.shape.hi is None


def test_unit_errors_carry_positions():
    # reported at the quantifier keyword, not at the blank before it
    with pytest.raises(DslError) as err:
        parse(
            "terms: p, q\npremise: prop[0.5, 2] p -> q\nconclude: abs? p -> q\n"
        )
    assert (err.value.line, err.value.column) == (2, 10)


@pytest.mark.parametrize(
    "quantifier", ["prop[0.5, 0.2]", "prop tz(0.5, 0.2, 0.6, 0.7)", "prop rim(0)"]
)
def test_shape_errors_carry_positions(quantifier):
    with pytest.raises(DslError) as err:
        parse("terms: p, q\npremise: %s p -> q\nconclude: prop? p -> q\n" % quantifier)
    assert err.value.line == 2
    assert str(err.value).startswith("line 2, column 10: ")


def test_comments_and_blank_lines_are_ignored():
    doc = parse(
        "# heading\n\nterms: p, q  # trailing\n"
        "premise: all p -> q\n\nconclude: abs? p -> q\n"
    )
    assert doc.properties == ("p", "q")


def test_option_validation():
    base = "terms: p, q\npremise: all p -> q\nconclude: abs? p -> q\n"
    with pytest.raises(DslError):
        parse(base + "options: levels=1\n")
    with pytest.raises(DslError):
        parse(base + "options: colour=red\n")
    # a superscript digit passes str.isdigit but not int()
    with pytest.raises(DslError, match="line 4: levels must be an integer >= 2"):
        parse(base + "options: levels=\u00b2\n")
    # an Arabic-Indic 11 passes str.isdecimal and int(), but is not ASCII
    with pytest.raises(DslError, match="line 4: levels must be an integer >= 2"):
        parse(base + "options: levels=\u0661\u0661\n")
    doc = parse(base + "options: mode=alpha, levels=7\n")
    assert doc.options == {"mode": "alpha", "levels": 7}


def test_levels_option_is_bounded():
    base = "terms: p, q\npremise: all p -> q\nconclude: abs? p -> q\n"
    assert parse(base + "options: levels=%d\n" % MAX_LEVELS).options == {"levels": MAX_LEVELS}
    assert parse(base + "options: levels=00011\n").options == {"levels": 11}
    # 5000 digits is past int()'s conversion limit; the refusal still names the line
    refusal = "line 4: levels must be an integer >= 2 and <= %d" % MAX_LEVELS
    for text in (str(MAX_LEVELS + 1), "9" * 5000):
        with pytest.raises(DslError, match=refusal):
            parse(base + "options: levels=%s\n" % text)


def test_conclusion_text_spelling():
    doc = load_fixture("hats_and_ties.syl")
    assert conclusion_text(doc.conclusion) == "prop? people & redtie -> !whitehat"
