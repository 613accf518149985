"""Run configuration: defaults < config file < ER_* environment < CLI flags."""

from __future__ import annotations

import json
import math
import os
from numbers import Real

from .errors import DomainError
from .numeric import (
    DEFAULT_PRECISION,
    DEFAULT_REL_TOL,
    MAX_PRECISION,
    MIN_PRECISION,
    MODE_RATIONAL,
    MODES,
)
from .records import Record

OUTPUT_FORMATS = ("json", "csv")

ENV_PREFIX = "ER_"
_ENV_FIELDS = {
    "MODE": ("mode", str),
    "PRECISION": ("precision_bits", int),
    "TOL": ("tolerance_rel", float),
    "SEED": ("seed", int),
    "OUTPUT_FORMAT": ("output_format", str),
}


class RunConfig(Record):
    FIELDS = ("precision_bits", "mode", "tolerance_rel", "seed", "output_format")

    def __init__(self, precision_bits: int = DEFAULT_PRECISION, mode: str = MODE_RATIONAL,
                 tolerance_rel: float = DEFAULT_REL_TOL, seed: int = 0,
                 output_format: str = "json"):
        self._set(precision_bits=precision_bits, mode=mode, tolerance_rel=tolerance_rel,
                  seed=seed, output_format=output_format)
        for name, kind in (("precision_bits", int), ("seed", int), ("tolerance_rel", Real)):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise DomainError(f"{name} must be of type {kind.__name__}, got {value!r}")
        if self.precision_bits < MIN_PRECISION:
            raise DomainError(f"precision_bits must be at least {MIN_PRECISION}")
        if self.precision_bits > MAX_PRECISION:
            raise DomainError(f"precision_bits must be at most {MAX_PRECISION}")
        if not self.tolerance_rel > 0:
            raise DomainError("tolerance_rel must be positive")
        if not self.tolerance_rel < math.inf:
            raise DomainError(f"tolerance_rel must be finite, got {self.tolerance_rel!r}")
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}")
        if self.output_format not in OUTPUT_FORMATS:
            raise DomainError(f"output_format must be one of {OUTPUT_FORMATS}")


def read_json(path: str, what: str):
    """The JSON value stored at ``path``; DomainError naming ``what`` when unreadable.

    A file nested too deeply for the parser's recursion is unreadable too.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read {what} {path}: {exc}") from exc


def _from_file(path: str) -> dict:
    data = read_json(path, "config file")
    if not isinstance(data, dict):
        raise DomainError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(RunConfig.FIELDS)
    if unknown:
        raise DomainError(f"unknown config keys in {path}: {sorted(unknown)}")
    return data


def _from_env(environ=None) -> dict:
    environ = os.environ if environ is None else environ
    out = {}
    for suffix, (field_name, caster) in _ENV_FIELDS.items():
        raw = environ.get(ENV_PREFIX + suffix)
        if raw is None:
            continue
        try:
            out[field_name] = caster(raw)
        except ValueError as exc:
            raise DomainError(f"bad value for {ENV_PREFIX}{suffix}: {raw!r}") from exc
    return out


def resolve_config(cli_overrides: dict | None = None,
                   config_path: str | None = None,
                   environ=None) -> RunConfig:
    cfg = RunConfig()
    if config_path:
        cfg = cfg.replace(**_from_file(config_path))
    env = _from_env(environ)
    if env:
        cfg = cfg.replace(**env)
    overrides = {k: v for k, v in (cli_overrides or {}).items() if v is not None}
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg
