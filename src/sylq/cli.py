"""Command-line front end.

    sylq FILE [--mode M] [--levels N] [--format text|json|csv] [--verify CAP]
    sylq verify FILE [--cap N]

Reads a syllogism document (or stdin when FILE is ``-``), runs inference, and
prints the result.  ``verify`` cross-checks the engine against brute-force
enumeration of integer populations.  Exit codes: 0 success, 1 input or output
error, 2 infeasible premises, 3 size guard or pivot limit exceeded, or
verification disagreement.

JSON and CSV output are deterministic: fixed key order and numbers printed
to 12 significant digits (integers without a decimal point).  An unbounded
upper end renders as ``null`` in JSON and an empty CSV cell.
"""

from __future__ import annotations

import functools
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import List, Optional, Sequence

from . import optimizer
from .compiler import compile_syllogism
from .dsl import conclusion_text, parse
from .inference import (
    MAX_LEVELS,
    MODES,
    InfeasiblePremisesError,
    InferenceConfig,
    InferenceResult,
    infer,
    premise_bounds,
)
from .quantifiers import _sig_digits, as_fraction
from .simplex import PivotLimitError
from .statements import Syllogism
from .terms import SizeGuardError

__all__ = ["main"]


def _digits(text: str) -> bool:
    # isdecimal() alone also takes the decimal digits of other scripts
    return text.isascii() and text.isdecimal()


# argparse (with gettext, about 3 ms) and json (about 3 ms) are imported where
# first needed: a plain argv needs no argparse, and only --format json needs json


def _cap(text: str) -> int:
    return _whole(text, "cap must be a nonnegative integer, got %r")


def _levels(text: str) -> int:
    return _whole(text, "levels must be an integer >= 2 and <= %d, got %%r" % MAX_LEVELS)


def _whole(text: str, message: str) -> int:
    """The int that argparse reads for _cap and _levels."""
    if not _digits(text):
        import argparse

        raise argparse.ArgumentTypeError(message % text)
    return int(text)


_FORMATS = ("text", "json", "csv")


def _parser(**kwargs):
    """An argparse parser whose usage errors raise ValueError: main() reports
    them with exit code 1 (argparse's 2 means infeasible premises here)."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):
            raise ValueError(message)

    return Parser(**kwargs)


# each parser is built on the first call that needs it, then reused: parsing
# keeps nothing in the parser, and importing the module stays cheap
@functools.cache
def _run_parser():
    p = _parser(
        prog="sylq",
        description="Interval bounds for syllogisms with generalized quantifiers.",
    )
    p.add_argument("file", nargs="?", default="-", help="syllogism document ('-' for stdin)")
    p.add_argument(
        "--mode",
        choices=MODES,
        default=None,
        help="inference mode (default: document option, else auto)",
    )
    p.add_argument(
        "--levels",
        type=_levels,
        default=None,
        help="alpha grid size, 2 to %d (default %d)" % (MAX_LEVELS, InferenceConfig.levels),
    )
    p.add_argument("--format", choices=_FORMATS, default="text")
    p.add_argument(
        "--verify",
        type=_cap,
        default=None,
        metavar="CAP",
        help="also cross-check against enumeration of populations up to CAP",
    )
    return p


# the values each option of a plain call takes (see _plain_args); int stands
# for what _levels and _cap accept
_PLAIN = {"--mode": MODES, "--levels": int, "--format": _FORMATS, "--verify": int}


def _plain_args(argv: List[str]) -> Optional[SimpleNamespace]:
    """What _run_parser() reads from a plain argv: FILE ("-" or not an
    option), then distinct options of _PLAIN in full, each with a value it
    accepts.  argparse takes about 0.1 ms for one with cold caches, a tenth
    of a small document's run; None sends any other argv to argparse."""
    if len(argv) % 2 == 0 or (argv[0].startswith("-") and argv[0] != "-"):
        return None
    flags = argv[1::2]
    if len(set(flags)) < len(flags):
        return None
    args = SimpleNamespace(file=argv[0], mode=None, levels=None, format="text", verify=None)
    for flag, text in zip(flags, argv[2::2]):
        check = _PLAIN.get(flag, ())
        if check is int and _digits(text):
            try:
                text = int(text)
            except ValueError:  # past int()'s digit limit
                return None
        elif check is int or text not in check:
            return None
        setattr(args, flag[2:], text)
    return args


@functools.cache
def _verify_parser():
    p = _parser(
        prog="sylq verify",
        description="Cross-check engine bounds against brute-force enumeration.",
    )
    p.add_argument("file", nargs="?", default="-", help="syllogism document ('-' for stdin)")
    p.add_argument("--cap", type=_cap, default=10, help="largest universe size to enumerate")
    return p


def _read_text(path: str) -> str:
    """A document's text, without one leading byte-order mark (parse
    splits lines itself, so a file is read as bytes and decoded whole)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "rb", buffering=0) as handle:
            text = handle.read().decode("utf-8")
    return text[1:] if text.startswith("\ufeff") else text


class _Digits(float):
    """A value past the float range (inf or 0 as a float) whose repr, which
    every format prints, is its 12 significant digits."""

    def __repr__(self) -> str:
        return self.digits


def _num(value) -> Optional[object]:
    """JSON-ready number: exact int when integral, else 12 significant
    digits, as a float or, past the float range, as _Digits."""
    if value is None:
        return None
    f = as_fraction(value)
    num, den = f.numerator, f.denominator
    if den == 1:
        return num
    try:
        short = float("%.12g" % (num / den))
    except OverflowError:
        short = 0.0
    if short:  # num is not 0, so 0.0 is past the float range
        return short
    digits = _Digits(text := _sig_digits(f))
    digits.digits = text
    return digits


def _num_text(value) -> str:
    n = _num(value)
    if n is None:
        return ""
    return repr(n) if isinstance(n, float) else str(n)


def _level_rows(result: InferenceResult) -> List[tuple]:
    """Exact (level, lo, hi, feasible) per grid level, read from the outcomes."""
    return [
        (level, outcome.lo, outcome.hi, outcome.status != optimizer.INFEASIBLE)
        for (level, _), outcome in zip(result.cuts, result.outcomes)
    ]


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2) for a payload of dicts, lists, strings,
    ints, floats as _num makes them (finite, or _Digits), booleans and None,
    built directly: the standard encoder runs generators when it indents."""
    from json.encoder import encode_basestring_ascii as quote

    def text(value, indent: str) -> str:
        inner = indent + "  "
        if value and isinstance(value, dict):
            items = [inner + quote(k) + ": " + text(v, inner) for k, v in value.items()]
            return "{\n%s\n%s}" % (",\n".join(items), indent)
        if value and isinstance(value, list):
            return "[\n%s\n%s]" % (",\n".join([inner + text(v, inner) for v in value]), indent)
        if isinstance(value, str):
            return quote(value)
        if value is None or value is True or value is False:
            return "null" if value is None else "true" if value else "false"
        return repr(value)  # an int, a float, or an empty dict or list

    return text(payload, "")


def _json_interval(iv) -> Optional[dict]:
    return None if iv is None else {"lo": _num(iv.lo), "hi": _num(iv.hi)}


def _json_payload(result: InferenceResult, syl: Syllogism) -> dict:
    first = result.outcomes[0]
    payload: dict = {}
    if result.mode == "crisp":
        payload["lo"] = _num(first.lo)
        payload["hi"] = _num(first.hi)
    payload["mode"] = result.mode
    payload["conclusion"] = conclusion_text(syl.conclusion)
    if result.mode == "crisp":
        payload["status"] = first.status
        if first.attained_lo is not None:
            payload["attained_lo"] = _num(first.attained_lo)
    if result.mode == "kersup":
        pair = result.pair
        payload["kernel"] = None if pair is None else _json_interval(pair.kernel)
        payload["support"] = _json_interval(result.cuts[0][1])
    payload["levels"] = [
        {"level": _num(level), "lo": _num(lo), "hi": _num(hi), "feasible": feasible}
        for level, lo, hi, feasible in _level_rows(result)
    ]
    payload["fitted"] = (
        None if result.fitted is None else [_num(v) for v in result.fitted.as_tuple()]
    )
    payload["max_feasible_level"] = _num(result.max_feasible_level)
    payload["epsilon"] = {"kind": result.epsilon_kind, "value": _num(result.epsilon)}
    if result.warnings:
        payload["warnings"] = list(result.warnings)
    return payload


def _print_text(result: InferenceResult, syl: Syllogism) -> None:
    out = ["mode: %s" % result.mode, "conclusion: %s" % conclusion_text(syl.conclusion)]
    if result.mode == "crisp":
        first = result.outcomes[0]
        out.append("lo: %s" % (_num_text(first.lo) or "-inf"))
        out.append("hi: %s" % (_num_text(first.hi) or "inf"))
        out.append("status: %s" % first.status)
        if first.attained_lo is not None:
            out.append("attained lo: %s" % _num_text(first.attained_lo))
    else:
        for level, lo, hi, feasible in _level_rows(result):
            if not feasible:
                out.append("level %s: infeasible" % _num_text(level))
            else:
                out.append(
                    "level %s: [%s, %s]"
                    % (_num_text(level), _num_text(lo) or "-inf", _num_text(hi) or "inf")
                )
        out.append("max feasible level: %s" % _num_text(result.max_feasible_level))
        if result.fitted is not None:
            out.append("fitted: tz(%s)" % ", ".join(_num_text(v) for v in result.fitted.as_tuple()))
    out.append("epsilon: %s (%s)" % (_num_text(result.epsilon), result.epsilon_kind))
    for warning in result.warnings:
        out.append("warning: %s" % warning)
    print("\n".join(out))


def _print_csv(result: InferenceResult) -> None:
    lines = ["level,lo,hi"]
    for level, lo, hi, _ in _level_rows(result):
        lines.append("%s,%s,%s" % (_num_text(level), _num_text(lo), _num_text(hi)))
    print("\n".join(lines))


def enumerate_range(syl: Syllogism, cap: int, bounds: tuple):
    """The oracle's enumeration, imported on first use: only verify needs numpy."""
    from . import oracle

    return oracle.enumerate_range(syl, cap, premise_bounds=bounds)


def _verify_doc(syl: Syllogism, cap: int) -> int:
    """Compare engine bounds with enumeration; 0 on agreement, 3 otherwise.

    Audits the distinct premise readings at levels 0 and 1: one for crisp
    premises, else the support and the kernel.  A document too large to
    enumerate is refused before anything is solved.
    """
    from . import oracle

    oracle.population_totals(syl, cap)
    size = syl.universe_size  # when declared, only that size is enumerated
    sizes = "up to cap %d" % cap if size is None else "of universe size %s" % _num_text(size)
    readings: List[tuple] = []
    for level in (Fraction(0), Fraction(1)):
        bounds = premise_bounds(syl, level)
        if bounds not in readings:
            readings.append(bounds)
    names = ("crisp",) if len(readings) == 1 else ("support", "kernel")
    failures = 0
    for name, bounds in zip(names, readings):
        outcome = optimizer.solve(compile_syllogism(syl, bounds))
        exact = enumerate_range(syl, cap, bounds)
        lp_lo = outcome.attained_lo if outcome.attained_lo is not None else outcome.lo
        if exact is None:
            witness = "no integer witness %s" % sizes
            ok = True
        else:
            witness = "enumerated [%s, %s]" % (_num_text(exact.lo), _num_text(exact.hi))
            ok = (
                outcome.status != optimizer.INFEASIBLE
                and (lp_lo is None or lp_lo <= exact.lo)
                and (outcome.hi is None or exact.hi <= outcome.hi)
            )
        if outcome.status == optimizer.INFEASIBLE:
            engine = "engine: infeasible"
        else:
            engine = "engine [%s, %s]" % (
                _num_text(outcome.lo) or "-inf",
                _num_text(outcome.hi) or "inf",
            )
        verdict = "OK" if ok else "DISAGREE"
        print("verify %s: %s; %s: %s" % (name, engine, witness, verdict), file=sys.stderr)
        if not ok:
            failures += 1
    return 0 if failures == 0 else 3


def _cmd_run(argv: Sequence[str]) -> int:
    argv = list(argv)
    args = _plain_args(argv) or _run_parser().parse_args(argv)
    doc = parse(_read_text(args.file))
    syl = doc.to_syllogism()
    # a flag beats the document option
    levels = args.levels
    if levels is None:
        levels = doc.options.get("levels", InferenceConfig.levels)
    mode = args.mode or doc.options.get("mode", "auto")
    result = infer(syl, mode=mode, config=InferenceConfig(levels))

    if args.format == "json":
        print(_json_text(_json_payload(result, syl)))
    elif args.format == "csv":
        _print_csv(result)
    else:
        _print_text(result, syl)

    if args.verify is not None:
        return _verify_doc(syl, args.verify)
    return 0


def _cmd_verify(argv: Sequence[str]) -> int:
    args = _verify_parser().parse_args(list(argv))
    doc = parse(_read_text(args.file))
    return _verify_doc(doc.to_syllogism(), args.cap)


# exit code of each error a command reports as one "error: ..." line; DslError
# and UnitMixingError are ValueErrors
_EXIT_CODES = {
    InfeasiblePremisesError: 2,
    SizeGuardError: 3,
    PivotLimitError: 3,
    OSError: 1,
    ValueError: 1,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] == "verify":
            return _cmd_verify(argv[1:])
        code = _cmd_run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull so the
        # flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except tuple(_EXIT_CODES) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
