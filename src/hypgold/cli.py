"""Command-line surface.

Every command emits canonical JSON (sorted keys, two-space indent) or a
lossy CSV projection of its records.  All randomness flows from the
single seed in the run configuration.  Exit codes: 0 success, 1 usage
or domain error, 2 failed verification (theorem violation, junction gap,
sieve mismatch).
"""

from __future__ import annotations

import functools
import io
import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

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
from .numeric import (
    MIN_PRECISION,
    MODE_FLOAT,
    MODE_RATIONAL,
    format_exact,
    format_real,
    parse_exact,
)
from .oracles import goldbach_partitions_oracle
from .points import essential_points, goldbach_characterization
from .regions import enumerate_regions

# click loads after the layers: without cached bytecode, compiling the layers
# before click allocates keeps a command's peak RSS about 0.3 MB lower.
import click  # noqa: E402


def _scalar(obj):
    """json.dumps hook: Fractions as exact "p/q", BinaryFloats and areas' mpf as decimals."""
    if isinstance(obj, Fraction):
        return format_exact(obj)
    return format_real(obj)


def _key_text(key) -> str:
    """A dict key, or a None, bool, int or float value, as json.dumps writes it."""
    if isinstance(key, str):
        return key
    if key is None:
        return "null"
    if key is True:
        return "true"
    if key is False:
        return "false"
    if isinstance(key, int):
        return int.__repr__(key)
    if isinstance(key, float):
        if key != key:
            return "NaN"
        if key == math.inf:
            return "Infinity"
        if key == -math.inf:
            return "-Infinity"
        return float.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode(o, level: int, out: list) -> None:
    """Append o as json.dumps(o, default=_scalar, sort_keys=True, indent=2,
    separators=(",", ": ")) writes it at nesting depth ``level``.

    json.dumps runs its pure-Python encoder whenever it indents; this one
    takes the same branches but writes a list of plain ints with one join.
    """
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or isinstance(o, (int, float)):
        out.append(_key_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        if set(map(type, o)) == {int}:  # not bools: int.__repr__(True) is "True"
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, o)))
        else:
            sep = "[" + inner
            for value in o:
                out.append(sep)
                _encode(value, level + 1, out)
                sep = "," + inner
        out.append("\n" + "  " * level + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for key, value in sorted(o.items()):
            out.append(sep + encode_basestring_ascii(_key_text(key)) + ": ")
            _encode(value, level + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * level + "}")
    else:
        _encode(_scalar(o), level, out)


def canonical_json(payload: dict) -> str:
    out = []
    _encode(payload, 0, out)
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


def emit(payload: dict, records: list, cfg: RunConfig, out: str | None) -> None:
    text = records_csv(records) if cfg.output_format == "csv" else canonical_json(payload)
    if out:
        _write_text(out, text, "output file")
    else:
        click.echo(text, nl=False)


_SHARED_OPTIONS = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="JSON config file mirroring the run configuration."),
    click.option("--mode", type=click.Choice([MODE_RATIONAL, MODE_FLOAT]), default=None),
    click.option("--precision", "precision_bits", type=int, default=None,
                 help=f"Float-mode mantissa bits (>= {MIN_PRECISION})."),
    click.option("--tol", "tolerance_rel", type=float, default=None,
                 help="Bound on build-g's relative junction gap."),
    click.option("--seed", type=int, default=None),
    click.option("--json", "output_format", flag_value="json", default=None),
    click.option("--csv", "output_format", flag_value="csv", default=None),
]


def _shared(f):
    """The run-configuration options every command takes, resolved into one ``cfg``."""
    @functools.wraps(f)
    def command(config_path, **kwargs):
        overrides = {name: kwargs.pop(name) for name in RunConfig().as_dict()}
        return f(cfg=resolve_config(cli_overrides=overrides, config_path=config_path),
                 **kwargs)
    for opt in reversed(_SHARED_OPTIONS):
        command = opt(command)
    return command


def _common(f):
    """The shared options, then --out for the command's records."""
    return _shared(click.option("--out", type=click.Path(dir_okay=False, writable=True),
                                default=None)(f))


def _load_coding(path: str | None, cfg: RunConfig, fallback_index: int) -> PrimeCoding:
    if path:
        return coding_from_json(read_json(path, "coding file"))
    return default_coding(fallback_index, mode=cfg.mode, precision=cfg.precision_bits)


@click.group()
def cli():
    """Hyperbolic classification and Goldbach characterization toolkit."""


@cli.command()
@click.option("--k0", type=int, required=True)
@_common
def regions(k0, cfg, out):
    """Enumerate the typed essential regions of k0."""
    region_set = enumerate_regions(k0)
    records = [
        {"n": n, "n_prime": np_, "type": t.value} for n, np_, t in region_set
    ]
    payload = {
        "command": "regions",
        "config": cfg.as_dict(),
        "k0": k0,
        "count": len(records),
        "records": records,
    }
    emit(payload, records, cfg, out)


@cli.command()
@click.option("--k0", type=int, required=True)
@click.option("--k", "k_text", type=str, required=True,
              help="Evaluation point in [k0, k0+1]; exact 'p/q' or decimal.")
@click.option("--coding", "coding_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Coding JSON for deformed-plane areas (default: identity).")
@_common
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
    payload = {
        "command": "areas",
        "config": cfg.as_dict(),
        "k0": k0,
        "k": format_exact(k),
        "records": records,
    }
    emit(payload, records, cfg, out)


@cli.command()
@click.option("--alpha", type=int, required=True)
@click.option("--coding", "coding_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Coding JSON (default: the strict default coding).")
@_common
def points(alpha, coding_path, cfg, out):
    """Essential points (x_k0, y_k0) for k0 = 4 .. alpha/2 - 1."""
    coding = _load_coding(coding_path, cfg, fallback_index=max(alpha - 4, 16))
    pts = essential_points(coding, alpha)
    records = [{"k0": p.k0, "x": p.x, "y": p.y} for p in pts]
    payload = {
        "command": "points",
        "config": cfg.as_dict(),
        "alpha": alpha,
        "records": records,
    }
    emit(payload, records, cfg, out)


def _alpha_range(text: str) -> range:
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise click.UsageError(f"--alpha-range wants 'a..b', got {text!r}") from exc
    if lo > hi:
        raise click.UsageError("--alpha-range wants a <= b")
    start = lo if lo % 2 == 0 else lo + 1
    return range(max(start, 16), hi + 1, 2)


def _sweep_one(coding, alpha, want_timing):
    t0 = time.perf_counter()
    try:
        k0_list = goldbach_characterization(coding, alpha)
        agreement, error = True, None
    except TheoremViolationError as exc:
        k0_list, agreement, error = [], False, str(exc)
    oracle = goldbach_partitions_oracle(alpha)
    record = {
        "alpha": alpha,
        "k0_list": list(k0_list),
        "sieve_window": list(oracle.inside_window),
        "sieve_outside_window": list(oracle.outside_window),
        "sieve_agreement": agreement,
    }
    if error:
        record["error"] = error
    if want_timing:
        record["timing_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    return record


@cli.command(name="goldbach-check")
@click.option("--alpha-range", "alpha_range", type=str, required=True,
              help="Even alphas 'a..b' to reconcile against the sieve.")
@click.option("--coding", "coding_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
              expose_value=False,
              help="Checked (>= 1) and accepted for compatibility; the sweep runs "
                   "in one process.")
@click.option("--timing", is_flag=True, default=False,
              help="Include per-alpha timing (breaks byte-determinism).")
@_common
def goldbach_check(alpha_range, coding_path, timing, cfg, out):
    """Reconcile the essential-point characterization with the sieve."""
    alphas = _alpha_range(alpha_range)
    if not alphas:
        raise click.UsageError("no even alpha >= 16 in the requested range")
    coding = _load_coding(coding_path, cfg, fallback_index=max(alphas[-1] - 4, 16))
    records = [_sweep_one(coding, a, timing) for a in alphas]
    all_agree = all(r["sieve_agreement"] for r in records)
    payload = {
        "command": "goldbach-check",
        "config": cfg.as_dict(),
        "alpha_range": [alphas[0], alphas[-1]],
        "all_agree": all_agree,
        "records": records,
    }
    emit(payload, records, cfg, out)
    if not all_agree:
        raise TheoremViolationError("characterization disagreed with the sieve")


@cli.command(name="build-g")
@click.option("--alpha", type=int, required=True)
@click.option("--scalar-u", "scalar_u", type=str, default=None,
              help="Use the scalar family lambda_i = u (> 1); exact 'p/q' or decimal.")
@click.option("--xi2", "xi2_text", type=str, default="1", show_default=True)
@click.option("--xi-half", "xi_half_text", type=str, default=None)
@click.option("--out", "coding_out", type=click.Path(dir_okay=False, writable=True),
              default="coding.json", show_default=True,
              help="Where to write the constructed coding JSON.")
@_shared
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
    emit({"command": "build-g", "config": cfg.as_dict(), **record}, [record], cfg, None)


@cli.command(name="scalar-limit")
@click.option("--alpha", type=int, required=True)
@click.option("--u", "u_text", type=str, required=True,
              help="Comma list; values <= 1 are offsets h (u = 1 + h), values > 1 are u.")
@click.option("--xi2", "xi2_text", type=str, default="1", show_default=True)
@_common
def scalar_limit(alpha, u_text, xi2_text, cfg, out):
    """Tabulate x_k0(u), y_k0(u) for the scalar family along u -> 1+."""
    u_values = []
    for part in u_text.split(","):
        h = parse_exact(part)
        u_values.append(1 + h if h <= 1 else h)
    result = scalar_limit_sweep(alpha, u_values, xi2_sq=parse_exact(xi2_text),
                                precision=cfg.precision_bits)
    records = [{"u": r.u, "k0": r.k0, "x_k0": r.x_k0, "y_k0": r.y_k0} for r in result.rows]
    payload = {
        "command": "scalar-limit",
        "config": cfg.as_dict(),
        "alpha": alpha,
        "xi2_sq": result.xi2_sq,
        "monotone": result.monotone,
        "final_below": result.final_below,
        "converged": result.converged,
        "max_deviation": result.max_deviation,
        "records": records,
    }
    emit(payload, records, cfg, out)
    if not result.converged:
        raise ConstructionFailureError(
            "scalar limit failed to converge monotonically below tolerance"
        )


@cli.command()
@click.option("--k", "k_text", type=str, required=True,
              help="Number to classify; exact 'p/q' or decimal.")
@click.option("--coding", "coding_path", type=click.Path(exists=True, dir_okay=False),
              default=None)
@_common
def classify(k_text, coding_path, cfg, out):
    """Hyperbolic classification of k: prime, composite natural, or non-natural."""
    k = parse_exact(k_text)
    if k <= 1:
        raise DomainError("classification needs k > 1")
    fallback = max(math.ceil(k) + 1, 16)
    coding = _load_coding(coding_path, cfg, fallback_index=fallback)
    lattice = lattice_witnesses(coding, k)
    witnesses = [{"x": x, "y": y, "kind": pk.value} for x, y, pk in lattice]
    payload = {
        "command": "classify",
        "config": cfg.as_dict(),
        "k": format_exact(k),
        "kind": number_kind(lattice).value,
        "witnesses": witnesses,
    }
    emit(payload, witnesses, cfg, out)


def _error_payload(exc: BaseException) -> str:
    return json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
    )


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        return 1
    except (click.ClickException, HypgoldError) as exc:
        click.echo(_error_payload(exc), err=True)
        return 2 if isinstance(exc, VerificationError) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
