"""Experiment configuration: one JSON file per run, schema-tagged.

Rationals are written as "num/den" strings (or [num, den] pairs) in both
configs and outputs. Building the pieces from a config is deterministic,
so identical configs produce byte-identical output artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .chains import DEFAULT_CAP
from .core import Domain, FiniteDomain, FiniteSupportDistribution, naturals_domain
from .evaluation import EmxLearner
from .schemes import MonotoneScheme, enumeration_scheme, identity_eta_scheme, tower_scheme
from .towers import OrderTower, enumerated_tower, finite_proxy_tower

SCHEMA = "emx-experiment/1"

# Keys that earlier versions read but that never changed a result; a config
# that still sets one is rejected rather than silently ignored.
REMOVED_KEYS = (("evaluate", "delta"), ("descend", "z_mode"))


class ConfigError(ValueError):
    """Malformed or incomplete experiment configuration."""


def parse_rational(raw: Any, where: str = "value") -> Fraction:
    """Accept "num/den" strings, [num, den] pairs, and integers."""
    try:
        if isinstance(raw, bool):
            raise ValueError("booleans are not rationals")
        if isinstance(raw, (list, tuple)):
            num, den = raw
            return Fraction(int(num), int(den))
        if isinstance(raw, int):
            return Fraction(raw)
        if isinstance(raw, str):
            return Fraction(raw)
    except (ValueError, TypeError, ZeroDivisionError) as err:
        raise ConfigError(f"{where}: cannot read {raw!r} as a rational: {err}") from None
    raise ConfigError(f"{where}: cannot read {raw!r} as a rational")


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


@dataclass
class ExperimentConfig:
    raw: dict
    path: str

    def section(self, name: str) -> dict:
        got = self.raw.get(name)
        if got is None:
            raise ConfigError(f"{self.path}: missing section {name!r}")
        if not isinstance(got, dict):
            raise ConfigError(f"{self.path}: section {name!r} must be an object")
        return got

    def field(self, section: str, name: str, default: Any = None, required: bool = False) -> Any:
        sec = self.section(section)
        if name not in sec:
            if required:
                raise ConfigError(f"{self.path}: missing field {section}.{name}")
            return default
        return sec[name]

    def build_domain(self) -> Domain:
        kind = self.field("domain", "kind", required=True)
        # calkin-wilf names the same ids, read as rationals by fraction_at
        if kind in ("naturals", "calkin-wilf"):
            return naturals_domain()
        if kind == "finite":
            return FiniteDomain(size=self.field("domain", "size", required=True))
        raise ConfigError(f"{self.path}: unknown domain kind {kind!r}")

    def build_tower(self, domain: Domain) -> OrderTower:
        if domain.size is None:
            return enumerated_tower(domain)
        spec = self.section("tower")
        depth = spec.get("depth")
        seed = spec.get("seed")
        if depth is None or seed is None:
            raise ConfigError(f"{self.path}: tower needs depth and seed for finite domains")
        return finite_proxy_tower(domain, int(depth), int(seed))

    def build_scheme(self, tower: OrderTower) -> MonotoneScheme:
        kind = self.field("scheme", "kind", required=True)
        if kind == "enumeration":
            return enumeration_scheme(tower)
        if kind == "tower":
            return tower_scheme(tower)
        if kind == "identity-eta":
            return identity_eta_scheme(self.field("scheme", "m", default=1))
        raise ConfigError(f"{self.path}: unknown scheme kind {kind!r}")

    def build_distribution(self) -> FiniteSupportDistribution:
        kind = self.field("distribution", "kind", required=True)
        if kind == "uniform-range":
            lo = int(self.field("distribution", "lo", required=True))
            hi = int(self.field("distribution", "hi", required=True))
            if hi < lo:
                raise ConfigError(f"{self.path}: distribution range is empty")
            return FiniteSupportDistribution.uniform(range(lo, hi + 1))
        if kind == "explicit":
            raw = self.field("distribution", "masses", required=True)
            if not isinstance(raw, dict):
                raise ConfigError(f"{self.path}: distribution.masses must map point ids to masses")
            masses = {
                int(pid): parse_rational(mass, f"distribution.masses[{pid}]")
                for pid, mass in raw.items()
            }
            try:
                return FiniteSupportDistribution(masses)
            except ValueError as err:
                raise ConfigError(f"{self.path}: {err}") from None
        raise ConfigError(f"{self.path}: unknown distribution kind {kind!r}")

    def build_learner(self, scheme: MonotoneScheme, cap_override: int | None = None) -> EmxLearner:
        cap = cap_override
        if cap is None:
            cap = int(self.field("learner", "cap", default=DEFAULT_CAP)) if "learner" in self.raw else DEFAULT_CAP
        return EmxLearner(scheme, scheme.m, cap)


def load_config(path: str) -> ExperimentConfig:
    """Read and schema-check a config file; parse errors carry line/field
    diagnostics."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    schema = raw.get("schema")
    if schema != SCHEMA:
        raise ConfigError(f"{path}: schema must be {SCHEMA!r}, got {schema!r}")
    for section, key in REMOVED_KEYS:
        if isinstance(raw.get(section), dict) and key in raw[section]:
            raise ConfigError(f"{path}: {section}.{key} was removed and is no longer accepted")
    return ExperimentConfig(raw, path)
