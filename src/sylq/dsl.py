"""Line-oriented syllogism documents.

A document declares its properties, optionally a universe size, premises,
exactly one conclusion template, and optional engine options (``mode`` and
``levels``):

    # pets at home
    terms: dog, cat, parrot
    premise: exc[2, 2] * -> dog
    premise: none dog -> cat | parrot
    conclude: abs? * -> *
    options: mode=crisp

Quantifier spellings: the logical keywords ``all``/``none``/``some``/
``not-all``; ``fam[a, b]`` for crisp bounds (``inf`` allowed as upper);
``fam tz(a, b, c, d)`` for trapezoids; ``fam rim(e)`` for regular increasing
monotone proportions.  Families: abs, prop, exc, cmpabs, cmpprop, sim.
Comparative and similarity statements connect their terms with ``vs`` (they
compare two sets); every other family uses ``->`` (restriction -> scope).

Terms combine declared names with ``!``, ``&``, ``|`` and parentheses; ``&``
binds tighter than ``|``; ``*`` denotes the whole universe.  Numbers may be
integers, decimals, or rationals ``p/q``, and parse exactly (0.7 is 7/10).
``#`` starts a comment.  ``print_doc`` renders a parsed document back to
canonical text; parsing that text yields an equal document.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ._value import value
from .inference import MAX_LEVELS, MODES
from .quantifiers import (
    COMPARED_FAMILIES,
    FAMILY_TABLE,
    LOGICAL,
    LOGICAL_FAMILIES,
    Interval,
    QuantifierSpec,
    RimQuantifier,
    Trapezoid,
    _fmt,
)
from .statements import Conclusion, Statement, Syllogism
from .terms import UNIVERSE, And, Not, Or, Prop, Universe

__all__ = ["DslError", "SyllogismDoc", "conclusion_text", "parse", "print_doc"]


class DslError(ValueError):
    """Parse or validation failure, with document position when known."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = "line %d" % line
            if column is not None:
                where += ", column %d" % column
            where += ": "
        super().__init__(where + message)


_KEYWORD_TO_FAMILY = {row.keyword: family for family, row in FAMILY_TABLE.items()}
# each in FAMILY_TABLE's order
_LOGICAL_KEYWORDS = [row.keyword for row in FAMILY_TABLE.values() if row.unit == LOGICAL]
_NUMERIC_KEYWORDS = [row.keyword for row in FAMILY_TABLE.values() if row.unit != LOGICAL]


def _alternation(keywords: List[str]) -> str:
    """A regex matching any of keywords, the longest first, so that none
    stops at the end of a shorter one it begins with."""
    return "|".join(map(re.escape, sorted(keywords, key=len, reverse=True)))


_RESERVED_NAMES = frozenset({"vs", "inf"})
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a term's tokens are names, operators and parentheses; _TERM_TEXT matches
# a term up to the first other character
_TERM_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[!&|()*]")
_TERM_TEXT = re.compile(r"(?:\s*(?:[A-Za-z_][A-Za-z0-9_]*|[!&|()*]))*\s*")
# the tokens that are not names, with "" for the end of a term
_SYMBOLS = frozenset(["!", "&", "|", "(", ")", "*", ""])
_LINE_HEAD = re.compile(r"\s*(terms|universe|premise|conclude|options)\s*:")
_VS = re.compile(r"\bvs\b")
# [0-9], not \d: \d also matches the decimal digits of other scripts
_NUM = r"-?(?:[0-9]+\.[0-9]+|[0-9]+(?:/[0-9]+)?)"
# _NUM with its parts: digits before any point, after it, and after any /
_NUMBER = re.compile(r"(-?[0-9]+)(?:\.([0-9]+)|/([0-9]+))?")
_QSPEC_HEAD = re.compile(r"\s*(%s)\b" % _alternation(_LOGICAL_KEYWORDS + _NUMERIC_KEYWORDS))
_INTERVAL_SHAPE = re.compile(r"\s*\[\s*(%s)\s*,\s*(%s|inf)\s*\]" % (_NUM, _NUM))
_TZ_SHAPE = re.compile(r"\s*tz\(\s*(%s)\s*,\s*(%s)\s*,\s*(%s)\s*,\s*(%s)\s*\)" % ((_NUM,) * 4))
_RIM_SHAPE = re.compile(r"\s*rim\(\s*(%s)\s*\)" % _NUM)
# an "inf" upper bound reaches Interval as None
_SHAPES = ((_INTERVAL_SHAPE, Interval), (_TZ_SHAPE, Trapezoid), (_RIM_SHAPE, RimQuantifier))
_CONCLUDE_HEAD = re.compile(r"\s*(%s)\?" % _alternation(_NUMERIC_KEYWORDS))
_OPTION_ITEM = re.compile(r"\s*([a-z-]+)\s*=\s*([^\s,]+)\s*$")
# deepest term accepted: each !, &, | and pair of parentheses is one level;
# deeper terms would exhaust Python's recursion limit in the parser and in
# every later walk over the term tree
MAX_TERM_DEPTH = 64


@value
class SyllogismDoc:
    """A parsed syllogism file: the syllogism plus presentation options."""

    properties: Tuple[str, ...]
    premises: Tuple[Statement, ...]
    conclusion: Conclusion
    universe_size: Optional[Fraction] = None
    options: Dict[str, object]  # {} when None is given

    def __init__(self, properties, premises, conclusion, universe_size=None, options=None) -> None:
        self.__dict__.update(
            properties=properties,
            premises=premises,
            conclusion=conclusion,
            universe_size=universe_size,
            options={} if options is None else options,
        )

    def to_syllogism(self) -> Syllogism:
        return Syllogism(self.properties, self.premises, self.conclusion, self.universe_size)


def _parse_number(text: str, line: int) -> Fraction:
    # built from the digits the guard admits: Fraction(text) would also take
    # exponents and underscores, and builds 10**n for "1en" before any check
    # could refuse it
    m = _NUMBER.fullmatch(text)
    if not m:
        raise DslError("malformed number %r" % text, line)
    whole, decimals, den = m.groups()
    try:
        if decimals:
            return Fraction(int(whole + decimals), 10 ** len(decimals))
        if den:
            return Fraction(int(whole), int(den))
        return Fraction(int(whole))
    except (ValueError, ZeroDivisionError):
        raise DslError("malformed number %r" % text, line)


def _parse_term(text: str, line: int, base_col: int):
    """The term written in text, and its tokens: names, operators and
    parentheses as strings, and "" at the end."""
    end = _TERM_TEXT.match(text).end()
    if end < len(text):
        raise DslError("unexpected character %r in term" % text[end], line, base_col + end + 1)
    tokens = _TERM_TOKEN.findall(text)
    tokens.append("")
    if len(tokens) == 2 and (tokens[0] == "*" or tokens[0] not in _SYMBOLS):
        # a lone name or *, as most terms are
        return UNIVERSE if tokens[0] == "*" else Prop(tokens[0]), tokens
    return _TermParser(text, line, base_col, tokens).parse(), tokens


class _TermParser:
    """Recursive-descent parser for term expressions (! over & over |); a
    token's column is found again only to report an error."""

    def __init__(self, text: str, line: int, base_col: int, tokens: List[str]):
        self.text = text
        self.line = line
        self.base_col = base_col
        self.tokens = tokens
        self.at = 0

    def _fail(self, message: str, at: int) -> None:
        """Report an error at the token with index at."""
        starts = [m.start() for m in _TERM_TOKEN.finditer(self.text)] + [len(self.text)]
        raise DslError(message, self.line, self.base_col + starts[at] + 1)

    def _level(self, depth: int, at: int) -> int:
        if depth > MAX_TERM_DEPTH:
            self._fail("term nests deeper than %d levels" % MAX_TERM_DEPTH, at)
        return depth

    # Each method takes the number of open '(' and '!' around it, which
    # bounds the recursion, and returns its node with the node's height,
    # which bounds a left-nested chain such as a & b & c & ...
    def parse(self):
        expr, _ = self._or(0)
        if self.tokens[self.at]:
            self._fail("unexpected %r after term" % self.tokens[self.at], self.at)
        return expr

    def _or(self, depth: int):
        left, height = self._and(depth)
        while self.tokens[self.at] == "|":
            at = self.at
            self.at += 1
            right, right_height = self._and(depth)
            left, height = Or(left, right), self._level(max(height, right_height) + 1, at)
        return left, height

    def _and(self, depth: int):
        left, height = self._unary(depth)
        while self.tokens[self.at] == "&":
            at = self.at
            self.at += 1
            right, right_height = self._unary(depth)
            left, height = And(left, right), self._level(max(height, right_height) + 1, at)
        return left, height

    def _unary(self, depth: int):
        at = self.at
        tok = self.tokens[at]
        self.at += 1
        if tok not in _SYMBOLS:
            return Prop(tok), 0
        if tok == "*":
            return UNIVERSE, 0
        if tok == "!":
            arg, height = self._unary(self._level(depth + 1, at))
            return Not(arg), self._level(height + 1, at)
        if tok == "(":
            expr, height = self._or(self._level(depth + 1, at))
            if self.tokens[self.at] != ")":
                self._fail("expected ')'", self.at)
            self.at += 1
            return expr, self._level(height + 1, at)
        self._fail("expected a term, got %r" % (tok or "end of line"), at)


def _parse_quantifier(rest: str, line: int, col0: int) -> Tuple[QuantifierSpec, str, int]:
    """Parse the quantifier spec at the head of ``rest``; return the tail."""
    m = _QSPEC_HEAD.match(rest)
    if not m:
        raise DslError(
            "expected a quantifier (%s or a family with a shape)" % "/".join(_LOGICAL_KEYWORDS),
            line,
            col0 + len(rest) - len(rest.lstrip()) + 1,
        )
    keyword = m.group(1)
    family = _KEYWORD_TO_FAMILY[keyword]
    pos = m.end()
    if family in LOGICAL_FAMILIES:
        return QuantifierSpec(family), rest[pos:], col0 + pos

    for pattern, make in _SHAPES:
        sm = pattern.match(rest, pos)
        if sm:
            break
    else:
        raise DslError(
            "quantifier %s needs a shape: %s[a, b], %s tz(a, b, c, d) or "
            "%s rim(e)" % (keyword, keyword, keyword, keyword),
            line,
            col0 + pos + 1,
        )
    values = [None if g == "inf" else _parse_number(g, line) for g in sm.groups()]
    try:
        spec = QuantifierSpec(family, make(*values))
    except ValueError as exc:
        raise DslError(str(exc), line, col0 + m.start(1) + 1)
    return spec, rest[sm.end():], col0 + sm.end()


def _split_terms(
    rest: str, family: str, line: int, col0: int, properties: Tuple[str, ...], known: frozenset
):
    """Split 'TERM -> TERM' (or 'TERM vs TERM') and parse both sides, whose
    tokens must be known: declared properties or _SYMBOLS."""
    arrow = rest.find("->")
    vs = _VS.search(rest)
    wants_vs = family in COMPARED_FAMILIES
    keyword = FAMILY_TABLE[family].keyword
    if wants_vs:
        if vs is None:
            raise DslError("%s compares two terms; connect them with 'vs'" % keyword, line)
        if arrow != -1 and arrow < vs.start():
            message = "%s compares two terms; connect them with 'vs', not '->'" % keyword
            raise DslError(message, line, col0 + arrow + 1)
        left, right = rest[: vs.start()], rest[vs.end():]
        right_col = col0 + vs.end()
    else:
        if arrow == -1:
            raise DslError("expected '->' between restriction and scope", line)
        if vs is not None and vs.start() < arrow:
            message = "%s restricts a scope; connect the terms with '->', not 'vs'" % keyword
            raise DslError(message, line, col0 + vs.start() + 1)
        left, right = rest[:arrow], rest[arrow + 2:]
        right_col = col0 + arrow + 2
    restriction, left = _parse_term(left, line, col0)
    scope, right = _parse_term(right, line, right_col)
    if not (known.issuperset(left) and known.issuperset(right)):
        leaf = next(tok for tok in left + right if tok not in known)
        raise DslError(
            "undeclared property %r (declared: %s)" % (leaf, ", ".join(properties)), line
        )
    return restriction, scope


def _parse_options(body: str, line: int) -> Dict[str, object]:
    options: Dict[str, object] = {}
    for chunk in body.split(","):
        if not chunk.strip():
            continue
        m = _OPTION_ITEM.match(chunk)
        if not m:
            raise DslError("malformed option %r; expected key=value" % chunk.strip(), line)
        key, value = m.group(1), m.group(2)
        if key == "mode":
            if value not in MODES:
                raise DslError("unknown mode %r" % value, line)
            options["mode"] = value
        elif key == "levels":
            # the digit count keeps int() off numbers too long to convert
            if (
                not (value.isascii() and value.isdecimal())
                or len(value.lstrip("0")) > len(str(MAX_LEVELS))
                or not 2 <= int(value) <= MAX_LEVELS
            ):
                raise DslError("levels must be an integer >= 2 and <= %d" % MAX_LEVELS, line)
            options["levels"] = int(value)
        else:
            raise DslError("unknown option %r (mode, levels)" % key, line)
    return options


def parse(text: str) -> SyllogismDoc:
    """Parse a syllogism document; raise DslError with positions on failure."""
    properties: Optional[Tuple[str, ...]] = None
    universe: Optional[Fraction] = None
    premises: List[Statement] = []
    conclusion: Optional[Conclusion] = None
    options: Dict[str, object] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        if not line:
            continue
        m = _LINE_HEAD.match(line)
        if not m:
            message = "expected 'terms:', 'universe:', 'premise:', 'conclude:' or 'options:'"
            raise DslError(message, line_no, 1)
        head, col0 = m.group(1), m.end()
        body = line[col0:]

        if head == "terms":
            if properties is not None:
                raise DslError("duplicate terms declaration", line_no)
            names = [n.strip() for n in body.split(",")]
            if names == [""]:
                raise DslError("terms line declares no names", line_no)
            for name in names:
                if not _IDENT.fullmatch(name):
                    raise DslError("invalid property name %r" % name, line_no)
                if name in _RESERVED_NAMES:
                    raise DslError("%r is a reserved word" % name, line_no)
            if len(set(names)) != len(names):
                raise DslError("duplicate property name", line_no)
            properties = tuple(names)
            known = _SYMBOLS.union(names)
        elif head == "universe":
            if universe is not None:
                raise DslError("duplicate universe declaration", line_no)
            universe = _parse_number(body.strip(), line_no)
            if universe <= 0:
                raise DslError("universe size must be positive", line_no)
        elif head in ("premise", "conclude"):
            if properties is None:
                raise DslError("terms must be declared before any %s line" % head, line_no)
            if head == "premise":
                spec, rest, col = _parse_quantifier(body, line_no, col0)
                restriction, scope = _split_terms(
                    rest, spec.family, line_no, col, properties, known
                )
                premises.append(Statement(spec, restriction, scope))
            else:
                if conclusion is not None:
                    raise DslError("duplicate conclusion", line_no)
                cm = _CONCLUDE_HEAD.match(body)
                if not cm:
                    raise DslError(
                        "expected a conclusion family followed by '?' (one of %s?)"
                        % "? ".join(_NUMERIC_KEYWORDS),
                        line_no,
                        col0 + 1,
                    )
                family = _KEYWORD_TO_FAMILY[cm.group(1)]
                restriction, scope = _split_terms(
                    body[cm.end():], family, line_no, col0 + cm.end(), properties, known
                )
                conclusion = Conclusion(family, restriction, scope)
        else:
            options.update(_parse_options(body, line_no))

    if properties is None:
        raise DslError("missing terms declaration")
    if not premises:
        raise DslError("a syllogism document needs at least one premise")
    if conclusion is None:
        raise DslError("missing conclude line")
    return SyllogismDoc(properties, tuple(premises), conclusion, universe, options)


def _term_text(term, parent: str = "or") -> str:
    if isinstance(term, Universe):
        return "*"
    if isinstance(term, Prop):
        return term.name
    if isinstance(term, Not):
        return "!" + _term_text(term.arg, "not")
    if isinstance(term, And):
        # & is parsed left-associative, so a right-nested & needs parens
        text = "%s & %s" % (_term_text(term.left, "and"), _term_text(term.right, "and-right"))
        return "(%s)" % text if parent in ("not", "and-right") else text
    if isinstance(term, Or):
        text = "%s | %s" % (_term_text(term.left, "or"), _term_text(term.right, "or-right"))
        paren = parent in ("and", "and-right", "not", "or-right")
        return "(%s)" % text if paren else text
    raise TypeError("cannot print term %r" % (term,))


def _quantifier_text(spec: QuantifierSpec) -> str:
    keyword = FAMILY_TABLE[spec.family].keyword
    shape = spec.shape
    if shape is None:
        return keyword
    if isinstance(shape, Interval):
        hi = "inf" if shape.hi is None else _fmt(shape.hi)
        return "%s[%s, %s]" % (keyword, _fmt(shape.lo), hi)
    if isinstance(shape, Trapezoid):
        return "%s tz(%s)" % (keyword, ", ".join(_fmt(v) for v in shape.as_tuple()))
    if isinstance(shape, RimQuantifier):
        return "%s rim(%s)" % (keyword, _fmt(shape.exponent))
    raise TypeError("quantifier shape %s has no document spelling" % type(shape).__name__)


def _terms_text(head: str, stmt) -> str:
    connector = "vs" if stmt.family in COMPARED_FAMILIES else "->"
    return "%s %s %s %s" % (head, _term_text(stmt.restriction), connector, _term_text(stmt.scope))


def conclusion_text(conclusion: Conclusion) -> str:
    """Document spelling of a conclusion template, e.g. 'abs? * -> *'."""
    return _terms_text(FAMILY_TABLE[conclusion.family].keyword + "?", conclusion)


def print_doc(doc: SyllogismDoc) -> str:
    """Canonical text of a document; parsing it again gives an equal doc."""
    lines = ["terms: %s" % ", ".join(doc.properties)]
    if doc.universe_size is not None:
        lines.append("universe: %s" % _fmt(doc.universe_size))
    for premise in doc.premises:
        lines.append("premise: %s" % _terms_text(_quantifier_text(premise.quantifier), premise))
    lines.append("conclude: %s" % conclusion_text(doc.conclusion))
    if doc.options:
        parts = [
            "%s=%s" % (key, doc.options[key]) for key in ("mode", "levels") if key in doc.options
        ]
        lines.append("options: %s" % ", ".join(parts))
    return "\n".join(lines) + "\n"
