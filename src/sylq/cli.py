"""Command-line front end.

usage: sylq [FILE] [--mode auto|crisp|kersup|alpha] [--levels N]
            [--format text|json|csv] [--verify CAP]
       sylq verify [FILE] [--cap N]

FILE is a syllogism document, - (the default) for stdin.  --mode and
--levels (the alpha grid size, 2 to 1001) override the document's options,
else auto and 11.  verify, and --verify after the answer, cross-check the
engine against brute-force enumeration of integer populations of up to CAP
(--cap, default 10) members.  An option may be cut to a unique prefix or
written --name=value.  Exit codes: 0 success, 1 input or output error, 2
infeasible premises, 3 size guard or pivot limit exceeded, or verification
disagreement.

JSON and CSV output are deterministic: fixed key order and numbers printed
to 12 significant digits (integers without a decimal point).  An unbounded
end, upper or lower, renders as null in JSON and an empty CSV cell.
"""

from __future__ import annotations

import os
import re
import sys
from typing import Iterable, List, Optional, Sequence

from . import optimizer
# not called here, but perfbench/bench_trace.py looks the name up
from .compiler import compile_syllogism  # noqa: F401
from .dsl import conclusion_text, parse
from .inference import (
    MODES,
    InfeasiblePremisesError,
    InferenceConfig,
    InferenceResult,
    infer,
    readings,
)
from .quantifiers import _fmt, _sig_digits, as_fraction
from .simplex import PivotLimitError
from .statements import Syllogism
from .terms import SizeGuardError

__all__ = ["main"]


# each command's options and the values each takes: a tuple of choices, or
# _WHOLE for ASCII digits read by int(); an option left out reads None
_WHOLE = "whole number"
_RUN = {"mode": MODES, "levels": _WHOLE, "format": ("text", "json", "csv"), "verify": _WHOLE}
_VERIFY = {"cap": _WHOLE}

# a token that reads as a negative number is a value, not an option
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _positional(token: str) -> bool:
    return token == "-" or not token.startswith("-") or bool(_NEGATIVE.match(token))


def _value(option: str, check, text: str):
    if check == _WHOLE:
        # isdecimal() alone also takes the decimal digits of other scripts
        if text.isascii() and text.isdecimal():
            try:
                return int(text)
            except ValueError:  # past int()'s digit limit
                pass
    elif text in check:
        return text
    wanted = "a " + _WHOLE if check == _WHOLE else "one of " + ", ".join(check)
    raise ValueError("argument --%s: expected %s, got %r" % (option, wanted, text))


def _read_argv(argv: Sequence[str], options: dict) -> Optional[dict]:
    """FILE and the value of each of options in one command's argv, or None
    when it asks for help.

    FILE may stand anywhere and defaults to "-".  An option is written in
    full, as a unique prefix, or as --name=value; a repeated option's last
    value wins; the first "--" ends options.  Any other token, a second
    FILE or a missing or refused value raises ValueError.
    """
    args = dict.fromkeys(options)
    files = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            files += tokens
        elif _positional(token):
            files.append(token)
        else:
            name, equals, text = ("--help" if token == "-h" else token).partition("=")
            found = [option for option in (*options, "help") if ("--" + option).startswith(name)]
            if len(found) != 1:
                raise ValueError("%s option: %s" % ("ambiguous" if found else "unrecognized", name))
            option = found[0]
            if option == "help":
                if equals:
                    raise ValueError("option --help takes no value")
                return None
            if not equals:
                text = next(tokens, None)
                if text is None or not _positional(text):
                    raise ValueError("argument --%s: expected one argument" % option)
            args[option] = _value(option, options[option], text)
    if len(files) > 1:
        raise ValueError("unrecognized arguments: %s" % " ".join(files[1:]))
    args["file"] = files[0] if files else "-"
    return args


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
    # str of a float, and so of _Digits, is its repr
    n = _num(value)
    return "" if n is None else str(n)


def _interval_text(lo, hi) -> str:
    """[lo, hi] as every text line prints it; a missing end is -inf or inf."""
    return "[%s, %s]" % (_num_text(lo) or "-inf", _num_text(hi) or "inf")


def _level_rows(result: InferenceResult) -> List[tuple]:
    """Exact (level, lo, hi, feasible) per grid level: all that any format prints of a level."""
    return [
        (level, outcome.lo, outcome.hi, outcome.status != optimizer.INFEASIBLE)
        for level, _, outcome in result.rows
    ]


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2) for a payload of dicts, lists, strings,
    ints, floats as _num makes them (finite, or _Digits), booleans and None,
    built directly: the standard encoder runs generators when it indents."""
    # imported here: it takes about 3 ms, and only --format json needs it
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


def _json_interval(row: dict) -> Optional[dict]:
    return {"lo": row["lo"], "hi": row["hi"]} if row["feasible"] else None


def _json_payload(result: InferenceResult, syl: Syllogism) -> dict:
    levels = [
        {"level": _num(level), "lo": _num(lo), "hi": _num(hi), "feasible": feasible}
        for level, lo, hi, feasible in _level_rows(result)
    ]
    payload: dict = {}
    if result.mode == "crisp":
        payload["lo"] = levels[0]["lo"]
        payload["hi"] = levels[0]["hi"]
    payload["mode"] = result.mode
    payload["conclusion"] = conclusion_text(syl.conclusion)
    if result.mode == "crisp":
        payload["status"] = result.rows[0][2].status
    if result.mode == "kersup":
        payload["kernel"] = _json_interval(levels[-1])
        payload["support"] = _json_interval(levels[0])
    payload["levels"] = levels
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
        _, lo, hi, _ = _level_rows(result)[0]
        out.append("lo: %s" % (_num_text(lo) or "-inf"))
        out.append("hi: %s" % (_num_text(hi) or "inf"))
        out.append("status: %s" % result.rows[0][2].status)
    else:
        for level, lo, hi, feasible in _level_rows(result):
            if not feasible:
                out.append("level %s: infeasible" % _num_text(level))
            else:
                out.append("level %s: %s" % (_num_text(level), _interval_text(lo, hi)))
        out.append("max feasible level: %s" % _num_text(result.max_feasible_level))
        if result.fitted is not None:
            out.append("fitted: tz(%s)" % ", ".join(_num_text(v) for v in result.fitted.as_tuple()))
    out.append("epsilon: %s (%s)" % (_num_text(result.epsilon), result.epsilon_kind))
    for warning in result.warnings:
        out.append("warning: %s" % warning)
    print("\n".join(out))


def _print_csv(result: InferenceResult) -> None:
    # feasible, spelled as in JSON, tells an infeasible level from one
    # unbounded both ways: both print empty lo and hi cells
    lines = ["level,lo,hi,feasible"]
    for level, lo, hi, feasible in _level_rows(result):
        cells = (_num_text(level), _num_text(lo), _num_text(hi), "true" if feasible else "false")
        lines.append(",".join(cells))
    print("\n".join(lines))


def enumerate_range(syl: Syllogism, cap: int, bounds: tuple):
    """The oracle's enumeration, imported on first use: only verify needs numpy."""
    from . import oracle

    return oracle.enumerate_range(syl, cap, premise_bounds=bounds)


def _verify_doc(syl: Syllogism, cap: int, rows: Optional[Iterable[tuple]] = None) -> int:
    """Compare engine bounds with enumeration; 0 on agreement, 3 otherwise.

    Audits the distinct premise readings at levels 0 and 1: one for crisp
    premises, else the support and the kernel.  rows gives a run's
    InferenceResult.rows, whose first and last are levels 0 and 1;
    without it, a document past the size guard or too large to enumerate
    is refused before a two-level grid is solved.
    """
    from . import oracle

    oracle.population_totals(syl, cap)
    size = syl.universe_size  # when declared, only that size is enumerated
    sizes = "up to cap %d" % cap if size is None else "of universe size %s" % _fmt(size)
    if rows is None:
        rows = readings(syl, 2)
    (_, support, first), *_, (_, kernel, last) = rows
    if support == kernel:
        audited = [("crisp", support, first)]
    else:
        audited = [("support", support, first), ("kernel", kernel, last)]
    failures = 0
    for name, bounds, outcome in audited:
        exact = enumerate_range(syl, cap, bounds)
        if exact is None:
            witness = "no integer witness %s" % sizes
            ok = True
        else:
            witness = "enumerated " + _interval_text(exact.lo, exact.hi)
            ok = (
                outcome.status != optimizer.INFEASIBLE
                and (outcome.lo is None or outcome.lo <= exact.lo)
                and (outcome.hi is None or exact.hi <= outcome.hi)
            )
        if outcome.status == optimizer.INFEASIBLE:
            engine = "engine: infeasible"
        else:
            engine = "engine " + _interval_text(outcome.lo, outcome.hi)
        verdict = "OK" if ok else "DISAGREE"
        print("verify %s: %s; %s: %s" % (name, engine, witness, verdict), file=sys.stderr)
        if not ok:
            failures += 1
    return 0 if failures == 0 else 3


def _cmd_run(args: dict) -> int:
    doc = parse(_read_text(args["file"]))
    syl = doc.to_syllogism()
    # a flag beats the document option
    levels = args["levels"]
    if levels is None:
        levels = doc.options.get("levels", InferenceConfig.levels)
    mode = args["mode"] or doc.options.get("mode", "auto")
    result = infer(syl, mode=mode, config=InferenceConfig(levels))

    if args["format"] == "json":
        print(_json_text(_json_payload(result, syl)))
    elif args["format"] == "csv":
        _print_csv(result)
    else:
        _print_text(result, syl)

    if args["verify"] is not None:
        return _verify_doc(syl, args["verify"], result.rows)
    return 0


def _cmd_verify(args: dict) -> int:
    doc = parse(_read_text(args["file"]))
    return _verify_doc(doc.to_syllogism(), 10 if args["cap"] is None else args["cap"])


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
    verify = argv[:1] == ["verify"]
    try:
        args = _read_argv(argv[1:], _VERIFY) if verify else _read_argv(argv, _RUN)
        if args is None:
            # the help text is the module docstring past its first line
            print((__doc__ or "").partition("\n\n")[2], end="")
            code = 0
        elif verify:
            return _cmd_verify(args)
        else:
            code = _cmd_run(args)
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
