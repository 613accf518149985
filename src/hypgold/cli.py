"""Command-line surface.

Every command emits canonical JSON (sorted keys, two-space indent) or a
lossy CSV projection of its records.  All randomness flows from the
single seed in the run configuration.  Exit codes: 0 success, 1 usage
or domain error, 2 failed verification (theorem violation, junction gap,
sieve mismatch).
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .coding import PrimeCoding, coding_from_json, coding_to_json, default_coding
from .config import RunConfig, read_json, resolve_config
from .construction import (
    GoldbachSpec,
    build_goldbach,
    scalar_limit_sweep,
    verify_continuity,
)
from .errors import (
    ConstructionFailureError,
    DomainError,
    HypgoldError,
    TheoremViolationError,
    VerificationError,
)
from .hyperbola import lattice_witnesses, number_kind
from .numeric import (MAX_PRECISION, MIN_PRECISION, MODES, BinaryFloat, format_exact,
                      format_real, parse_exact)
from .points import essential_points, goldbach_sweep
from .regions import enumerate_regions


class UsageError(HypgoldError):
    """A command line the parser cannot read: an unknown command or option, or a missing one."""


class BadParameter(UsageError):
    """An option value of the wrong type or outside the option's range."""


def _scalar(obj):
    """json.dumps hook: Fractions as exact "p/q", BinaryFloats as decimals."""
    if isinstance(obj, Fraction):
        return format_exact(obj)
    return format_real(obj)


def _leaf_text(o) -> str:
    """None, a bool or a float as json.dumps writes it."""
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if o != o:
        return "NaN"
    if o == math.inf:
        return "Infinity"
    if o == -math.inf:
        return "-Infinity"
    return float.__repr__(o)


def _encode(o, level: int, out: list, shapes: dict, lists: dict) -> None:
    """Append o as json.dumps(o, default=_scalar, sort_keys=True, indent=2,
    separators=(",", ": ")) writes it at nesting depth ``level``.

    json.dumps runs its pure-Python encoder whenever it indents; this one
    takes the same branches on the exact types the commands build.  It
    writes a list of plain ints with one join, kept in ``lists`` under the
    list's id and depth, so a list the payload holds twice is written from
    one text.  It writes a dict the first time its key tuple appears at a
    depth directly, and from ``shapes`` after that: the shape's sorted keys
    and their encoded heads, built on its second sight.  Object names are
    str (RFC 8259, section 4), so a dict with any other key, and a value of
    any other type (a dict, tuple, int or float subclass, a set), is a
    TypeError.
    """
    t = type(o)
    if t is str:
        out.append(encode_basestring_ascii(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is list or t is tuple:
        _encode_array(o, level, out, shapes, lists)
    elif t is dict:
        shape = (level, *o)
        entry = shapes.get(shape)
        if entry is None:  # first sight: no heads built for a shape that may not repeat
            # The keys are checked here, so every shape seen again is one of str keys.
            shapes[shape] = False
            _check_keys(o)
            inner = "\n" + "  " * (level + 1)
            sep = "{" + inner
            for key in sorted(o):
                out.append(sep + encode_basestring_ascii(key) + ": ")
                _encode(o[key], level + 1, out, shapes, lists)
                sep = "," + inner
            out.append("\n" + "  " * level + "}" if o else "{}")
            return
        if entry is False:
            entry = shapes[shape] = _record_shape(o, level)
        heads, close = entry
        for head, key in heads:
            out.append(head)
            _encode(o[key], level + 1, out, shapes, lists)
        out.append(close)
    elif o is None or t is bool or t is float:
        out.append(_leaf_text(o))
    elif t is Fraction or t is BinaryFloat:
        out.append(encode_basestring_ascii(_scalar(o)))
    else:
        raise TypeError(f"Object of type {t.__name__} is not canonical JSON")


def _check_keys(o: dict) -> None:
    for key in o:
        if type(key) is not str:
            raise TypeError(f"keys must be str, not {type(key).__name__}")


def _record_shape(o: dict, level: int) -> tuple:
    """The (head, key) pairs of a dict of str keys in sorted order, and its closing text."""
    inner = "\n" + "  " * (level + 1)
    heads = []
    sep = "{" + inner
    for key in sorted(o):
        heads.append((sep + encode_basestring_ascii(key) + ": ", key))
        sep = "," + inner
    return heads, ("\n" + "  " * level + "}" if heads else "{}")


def _encode_array(o, level: int, out: list, shapes: dict, lists: dict) -> None:
    if not o:
        out.append("[]")
        return
    key = (id(o), level)
    text = lists.get(key)
    if text is not None:
        out.append(text)
        return
    inner = "\n" + "  " * (level + 1)
    if set(map(type, o)) == {int}:  # not bools: int.__repr__(True) is "True"
        text = lists[key] = ("[" + inner + ("," + inner).join(map(int.__repr__, o))
                             + "\n" + "  " * level + "]")
        out.append(text)
        return
    sep = "[" + inner
    for value in o:
        out.append(sep)
        _encode(value, level + 1, out, shapes, lists)
        sep = "," + inner
    out.append("\n" + "  " * level + "]")


def canonical_json(payload: dict) -> str:
    # Both caches live for this call, while the payload keeps alive every
    # list whose id keys ``lists``.
    out = []
    _encode(payload, 0, out, {}, {})
    out.append("\n")
    return "".join(out)


def records_csv(records: list) -> str:
    import csv  # only --csv needs it; kept off the start-up imports

    buf = io.StringIO()
    if records:
        writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        for row in records:
            writer.writerow({k: v if v is None or isinstance(v, (str, int, float, list))
                             else _scalar(v) for k, v in row.items()})
    return buf.getvalue()


def _write_text(path: str, text: str, what: str) -> None:
    """Write text to path; DomainError naming ``what`` when the write fails."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {what} {path}: {exc}") from exc


def emit(command: str, cfg: RunConfig, out: str | None, rows: list, /, **fields) -> None:
    """Write ``{"command", "config", **fields}`` as canonical JSON, or ``rows`` as CSV."""
    text = (records_csv(rows) if cfg.output_format == "csv" else
            canonical_json({"command": command, "config": cfg.as_dict(), **fields}))
    if out:
        _write_text(out, text, "output file")
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _load_coding(path: str | None, cfg: RunConfig, fallback_index: int) -> PrimeCoding:
    if path:
        return coding_from_json(read_json(path, "coding file"))
    return default_coding(fallback_index, mode=cfg.mode, precision=cfg.precision_bits)


def regions(k0, cfg, out):
    """Enumerate the typed essential regions of k0."""
    region_set = enumerate_regions(k0)
    records = [
        {"n": n, "n_prime": np_, "type": t.value} for n, np_, t in region_set
    ]
    emit("regions", cfg, out, records, k0=k0, count=len(records), records=records)


def areas(k0, k_text, coding_path, cfg, out):
    """Closed-form areas and derivatives over the essential regions of k0."""
    from .areas import area_closed, hat_area  # only this command reads areas

    k = parse_exact(k_text)
    if not k0 <= k <= k0 + 1:
        raise DomainError(f"--k must lie in [k0, k0+1] = [{k0}, {k0 + 1}], got {k_text}")
    region_set = enumerate_regions(k0)
    coding = coding_from_json(read_json(coding_path, "coding file")) if coding_path else None
    records = []
    for n, np_, t in region_set:
        res = area_closed(t, n, np_, k, precision=cfg.precision_bits)
        records.append({
            "n": n,
            "n_prime": np_,
            "type": t.value,
            "area": res.area,
            "d1": res.d1,
            "d2": res.d2,
            # The identity coding's Jacobian is 1.
            "hat_area": (hat_area(coding, n, np_, res.area, cfg.precision_bits)
                         if coding else res.area),
        })
    emit("areas", cfg, out, records, k0=k0, k=format_exact(k), records=records)


def points(alpha, coding_path, cfg, out):
    """Essential points (x_k0, y_k0) for k0 = 4 .. alpha/2 - 1."""
    coding = _load_coding(coding_path, cfg, fallback_index=max(alpha - 4, 16))
    records = [{"k0": p.k0, "x": p.x, "y": p.y} for p in essential_points(coding, alpha)]
    emit("points", cfg, out, records, alpha=alpha, records=records)


def _alpha_range(text: str) -> range:
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise UsageError(f"--alpha-range wants 'a..b', got {text!r}") from exc
    if lo > hi:
        raise UsageError("--alpha-range wants a <= b")
    start = lo if lo % 2 == 0 else lo + 1
    return range(max(start, 16), hi + 1, 2)


def goldbach_check(alpha_range, coding_path, workers, timing, cfg, out):
    """Reconcile the essential-point characterization with the sieve."""
    del workers  # checked (>= 1) and accepted for compatibility; the sweep runs in one process
    alphas = _alpha_range(alpha_range)
    if not alphas:
        raise UsageError("no even alpha >= 16 in the requested range")
    coding = _load_coding(coding_path, cfg, fallback_index=max(alphas[-1] - 4, 16))
    outcomes = goldbach_sweep(coding, alphas)  # grows the point table all alphas share
    records, t0 = [], time.perf_counter()
    for report, error in outcomes:
        # Agreement means R's paired bitmap is the sieve's, so one list is both sides.
        window = report.inside_window
        record = {
            "alpha": report.alpha,
            "k0_list": [] if error else window,
            "sieve_window": window,
            "sieve_outside_window": list(report.outside_window),
            "sieve_agreement": error is None,
        }
        if error:
            record["error"] = str(error)
        if timing:  # this alpha's reconciliation and record
            record["timing_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
        records.append(record)
        t0 = time.perf_counter()
    all_agree = all(r["sieve_agreement"] for r in records)
    emit("goldbach-check", cfg, out, records, alpha_range=[alphas[0], alphas[-1]],
         all_agree=all_agree, records=records)
    if not all_agree:
        raise TheoremViolationError("characterization disagreed with the sieve")


def build_g(alpha, scalar_u, xi2_text, xi_half_text, coding_out, cfg):
    """Construct a coding with a continuous total-area second derivative."""
    spec = GoldbachSpec(
        alpha=alpha,
        xi2_sq=parse_exact(xi2_text),
        xi_half_sq=parse_exact(xi_half_text) if xi_half_text else None,
        scalar_u=parse_exact(scalar_u) if scalar_u else None,
        seed=cfg.seed,
    )
    cc = build_goldbach(spec, precision=cfg.precision_bits)
    max_gap = verify_continuity(cc, rel_tol=cfg.tolerance_rel)
    coding_payload = coding_to_json(cc.prime_coding)
    coding_payload.update({
        "alpha": alpha,
        "seed": cfg.seed,
        "xi2_sq": format_exact(spec.xi2_sq),
        "xi_half_sq": format_exact(cc.xi_sq[alpha // 2]),
        "lambda_sq": {str(i): format_exact(v) for i, v in sorted(cc.lambda_sq.items())},
        "provenance": {str(i): v for i, v in sorted(cc.provenance.items())},
        "max_junction_gap": format_real(max_gap),
    })
    _write_text(coding_out, canonical_json(coding_payload), "coding file")
    record = {
        "alpha": alpha,
        "seed": cfg.seed,
        "max_junction_gap": format_real(max_gap),
        "coding_file": coding_out,
    }
    emit("build-g", cfg, None, [record], **record)


def scalar_limit(alpha, u_text, xi2_text, cfg, out):
    """Tabulate x_k0(u), y_k0(u) for the scalar family along u -> 1+."""
    u_values = []
    for part in u_text.split(","):
        h = parse_exact(part)
        u_values.append(1 + h if h <= 1 else h)
    result = scalar_limit_sweep(alpha, u_values, xi2_sq=parse_exact(xi2_text),
                                precision=cfg.precision_bits)
    records = [{"u": r.u, "k0": r.k0, "x_k0": r.x_k0, "y_k0": r.y_k0} for r in result.rows]
    emit("scalar-limit", cfg, out, records, alpha=alpha, xi2_sq=result.xi2_sq,
         monotone=result.monotone, final_below=result.final_below,
         converged=result.converged, max_deviation=result.max_deviation, records=records)
    if not result.converged:
        raise ConstructionFailureError(
            "scalar limit failed to converge monotonically below tolerance"
        )


def classify(k_text, coding_path, cfg, out):
    """Hyperbolic classification of k: prime, composite natural, or non-natural."""
    k = parse_exact(k_text)
    if k <= 1:
        raise DomainError("classification needs k > 1")
    fallback = max(math.ceil(k) + 1, 16)
    coding = _load_coding(coding_path, cfg, fallback_index=fallback)
    lattice = lattice_witnesses(coding, k)
    witnesses = [{"x": x, "y": y, "kind": pk.value} for x, y, pk in lattice]
    emit("classify", cfg, out, witnesses, k=format_exact(k), kind=number_kind(lattice).value,
         witnesses=witnesses)


_REQUIRED = object()  # the default of an option that must be given


class Option(NamedTuple):
    name: str
    dest: str
    type: object = str      # parses the option's text, raising ValueError; None for a flag
    default: object = None  # _REQUIRED for an option that must be given
    const: object = None    # the value a flag stores
    help: str = ""


class Command:
    """A command's options, and its callback, which ``main`` reads at each dispatch."""

    def __init__(self, callback, *options: Option):
        self.callback = callback
        self.help = callback.__doc__
        self.options = {opt.name: opt for opt in options + _SHARED}


class CommandTable:
    """Every command by name, and the toolkit's one-line description."""

    def __init__(self, help: str, commands: dict):
        self.help, self.commands = help, commands


def _mode(text: str) -> str:
    if text not in MODES:
        raise ValueError(f"{text!r} is not one of {', '.join(MODES)}")
    return text


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is below 1")
    return value


def _output_file(path: str) -> str:
    if os.path.isdir(path) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise ValueError(f"{path!r} is a directory or is not writable")
    return path


# The run configuration every command takes; the dests are RunConfig's fields
# and --config's path, which ``main`` resolves into one ``cfg``.
_SHARED = (
    Option("--config", "config_path", help="JSON config file mirroring the run configuration."),
    Option("--mode", "mode", _mode, help=f"Number mode: {' or '.join(MODES)}."),
    Option("--precision", "precision_bits", int,
           help=f"Float-mode mantissa bits ({MIN_PRECISION} to {MAX_PRECISION})."),
    Option("--tol", "tolerance_rel", float, help="Bound on build-g's relative junction gap."),
    Option("--seed", "seed", int, help="Seed of every random choice."),
    Option("--json", "output_format", None, const="json", help="Print canonical JSON."),
    Option("--csv", "output_format", None, const="csv", help="Print the records as CSV."),
)
_OUT = Option("--out", "out", _output_file, help="Write the output to this file, not stdout.")
_CODING = Option("--coding", "coding_path", help="Coding JSON (default: the strict default coding).")
_ALPHA = Option("--alpha", "alpha", int, _REQUIRED, help="Even alpha in the window set.")
_K0 = Option("--k0", "k0", int, _REQUIRED, help="Cell index k0.")
_XI2 = Option("--xi2", "xi2_text", default="1", help="xi_2^2; exact 'p/q' or decimal.")

cli = CommandTable("Hyperbolic classification and Goldbach characterization toolkit.", {
    "regions": Command(regions, _K0, _OUT),
    "areas": Command(
        areas, _K0,
        Option("--k", "k_text", default=_REQUIRED,
               help="Evaluation point in [k0, k0+1]; exact 'p/q' or decimal."),
        Option("--coding", "coding_path",
               help="Coding JSON for deformed-plane areas (default: identity)."),
        _OUT),
    "points": Command(points, _ALPHA, _CODING, _OUT),
    "goldbach-check": Command(
        goldbach_check,
        Option("--alpha-range", "alpha_range", default=_REQUIRED,
               help="Even alphas 'a..b' to reconcile against the sieve."),
        _CODING,
        Option("--workers", "workers", _at_least_one, 1,
               help="Checked (>= 1) and accepted for compatibility; the sweep runs "
                    "in one process."),
        Option("--timing", "timing", None, False, True,
               help="Include per-alpha timing (breaks byte-determinism)."),
        _OUT),
    "build-g": Command(
        build_g, _ALPHA,
        Option("--scalar-u", "scalar_u",
               help="Use the scalar family lambda_i = u (> 1); exact 'p/q' or decimal."),
        _XI2,
        Option("--xi-half", "xi_half_text", help="xi_{alpha/2}^2 (default: drawn from --seed)."),
        Option("--out", "coding_out", _output_file, "coding.json",
               help="Where to write the constructed coding JSON.")),
    "scalar-limit": Command(
        scalar_limit, _ALPHA,
        Option("--u", "u_text", default=_REQUIRED,
               help="Comma list; values <= 1 are offsets h (u = 1 + h), values > 1 are u."),
        _XI2, _OUT),
    "classify": Command(
        classify,
        Option("--k", "k_text", default=_REQUIRED,
               help="Number to classify; exact 'p/q' or decimal."),
        _CODING, _OUT),
})

# A CLI process runs one command and exits, so everything alive once the CLI
# is loaded lives until exit: the interpreter's, site's and hypgold's
# modules, functions and classes, and the command table above.  Frozen into
# the permanent generation, none of it is walked again by a later
# collection, the interpreter's final one at exit included.  The freeze sits
# here, not in the package or a layer module, so that a library importer
# keeps its own collections.
gc.freeze()


def _parse(command: Command, args: list) -> dict | None:
    """Each of the command's dests with its value; None when ``args`` ask for --help.

    A value option takes the next token whatever it looks like, so
    ``--u -1e-3`` reaches the command's own domain check.  ``--opt=value``
    is read too, names match only in full, and a repeated option's last
    value wins.
    """
    given = {}
    tokens = iter(args)
    for token in tokens:
        if token == "--help":
            return None
        name, eq, text = token.partition("=")
        opt = command.options.get(name)
        if opt is None:
            raise UsageError(f"No such option {name!r}." if token.startswith("-")
                             else f"Got unexpected extra argument ({token})")
        if opt.type is None:
            if eq:
                raise UsageError(f"Option {name!r} does not take a value.")
            text = opt.const
        elif not eq:
            text = next(tokens, None)
            if text is None:
                raise UsageError(f"Option {name!r} requires an argument.")
        given[opt.dest] = opt, text
    values = {}
    for opt in command.options.values():
        if opt.default is _REQUIRED and opt.dest not in given:
            raise UsageError(f"Missing option {opt.name!r}.")
        values[opt.dest] = opt.default
    for dest, (opt, text) in given.items():
        try:
            values[dest] = text if opt.type is None else opt.type(text)
        except ValueError as exc:
            raise BadParameter(f"Invalid value for {opt.name!r}: {exc}") from None
    return values


def _option_row(opt: Option) -> tuple:
    """An option's --help entry: its usage and its help line."""
    if opt.default is _REQUIRED:
        note = " [required]"
    elif opt.type is not None and opt.default is not None:
        note = f" [default: {opt.default}]"
    else:
        note = ""
    usage = opt.name if opt.type is None else f"{opt.name} {opt.name[2:].upper()}"
    return usage, opt.help + note


def _help(name: str | None) -> str:
    """The --help text of command ``name``, or of the whole toolkit for None."""
    if name is None:
        usage, about, heading = "hypgold COMMAND [OPTIONS]", cli.help, "Commands:"
        rows = [(n, command.help) for n, command in cli.commands.items()]
    else:
        command = cli.commands[name]
        usage, about, heading = f"hypgold {name} [OPTIONS]", command.help, "Options:"
        rows = [*map(_option_row, command.options.values()),
                ("--help", "Show this message and exit.")]
    width = max(len(head) for head, _ in rows)
    return "\n".join([f"Usage: {usage}", "", f"  {about}", "", heading,
                      *(f"  {head:<{width}}  {text}" for head, text in rows), ""])


def _error_payload(exc: BaseException) -> str:
    return json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
    )


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its exit code."""
    args = sys.argv[1:] if argv is None else list(argv)
    name = args[0] if args else None
    try:
        if name == "--help":
            sys.stdout.write(_help(None))
            return 0
        command = cli.commands.get(name)
        if command is None:
            raise UsageError(f"No such command {name!r}." if args else
                             f"Missing command; one of {', '.join(cli.commands)}.")
        values = _parse(command, args[1:])
        if values is None:
            sys.stdout.write(_help(name))
            return 0
        overrides = {field: values.pop(field) for field in RunConfig.FIELDS}
        cfg = resolve_config(cli_overrides=overrides, config_path=values.pop("config_path"))
        command.callback(cfg=cfg, **values)
        return 0
    except HypgoldError as exc:
        error, code = exc, 2 if isinstance(exc, VerificationError) else 1
    except MemoryError:
        error, code = MemoryError(f"the {name} command ran out of memory"), 1
    except KeyboardInterrupt:  # exit 1 without a traceback
        return 1
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at the null device, so that the
        # interpreter's last flush cannot fail again, and exit 1 quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    sys.stderr.write(_error_payload(error) + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
