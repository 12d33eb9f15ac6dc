"""Experiment configuration: one JSON file per run, schema-tagged.

Rationals are written as "num/den" strings (or [num, den] pairs) in both
configs and outputs. `load_config` checks every field against FIELDS in
one pass, so the builders and commands read only checked values. Building
the pieces from a config is deterministic, so identical configs produce
byte-identical output artifacts.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from types import UnionType
from typing import Any, Literal, get_args, get_origin

from .chains import DEFAULT_CAP
from .core import Domain, FiniteDomain, FiniteSupportDistribution, naturals_domain
from .evaluation import EmxLearner
from .schemes import MonotoneScheme, enumeration_scheme, identity_eta_scheme, tower_scheme
from .towers import OrderTower, enumerated_tower, finite_proxy_tower

SCHEMA = "emx-experiment/1"
# On a countable domain a reconstruction of ids below k is the prefix
# 0..k, and a tower scheme caches up to 1 024 of them, so memory grows
# with the largest id: random verify's pool, evaluate's support ids and
# descend's sub-domain ids stay below this. At this pool and the largest
# sample count `emx verify` peaks at about 96 MB RSS (Python 3.11).
COUNTABLE_POOL_LIMIT = 1_000
# A finite domain's tower orders all its ids at once, and a tower scheme
# caches up to 1 024 reconstructions of up to `size` ids, so `domain.size`
# stays at or below this. At this size a random `emx verify` of 20 000
# samples on a depth-2 tower peaks at about 104 MB RSS and takes 30 s
# (pool 60) to 56 s (pool 2 000); `emx compress` of 3 points takes 0.01 s
# (Python 3.11).
DOMAIN_SIZE_LIMIT = 2_000

# Every field a config may hold: section -> field -> (JSON type, minimum).
# A Literal is one of its strings; int excludes booleans; a Fraction is a
# rational (see parse_rational) in (0, 1]; a float is a number in (0, 1);
# a list holds at least one value and none twice; `X | list[X]` also takes
# a single X. A minimum applies to each item of a list.
FIELDS: dict[str, dict[str, tuple[Any, int | None]]] = {
    "domain": {"kind": (Literal["naturals", "calkin-wilf", "finite"], None), "size": (int, 1)},
    "tower": {"depth": (int, 0), "seed": (int, None)},
    "scheme": {"kind": (Literal["enumeration", "tower", "identity-eta"], None), "m": (int, 0)},
    "learner": {"cap": (int, 1)},
    "distribution": {"kind": (Literal["uniform-range", "explicit"], None), "lo": (int, None),
                     "hi": (int, None), "masses": (dict[str, Fraction], None)},
    "evaluate": {"m": (int | list[int], 0), "epsilon": (Fraction | list[Fraction], None),
                 "trials": (int, 1), "seed": (int, None), "confidence": (float, None),
                 "per_trial": (bool, None)},
    "verify": {"mode": (Literal["exhaustive", "random"], None), "count": (int, 0),
               "samples": (int, 1), "seed": (int, None), "pool": (int, 0)},
    "descend": {"x_size": (int, 0), "y_size": (int, 0), "y": (list[int], None)},
    "compress": {"points": (list[int], None)},
}
_TYPE_NAMES = {int: "an integer", bool: "true or false", float: "a number"}

_REQUIRED = object()


class ConfigError(ValueError):
    """Malformed or incomplete experiment configuration."""


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_rational(raw: Any, where: str = "value") -> Fraction:
    """Accept "num/den" strings, [num, den] pairs of integers, and integers."""
    try:
        if isinstance(raw, (list, tuple)) and len(raw) == 2 and all(map(_is_int, raw)):
            return Fraction(*raw)
        if _is_int(raw) or isinstance(raw, str):
            return Fraction(raw)
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"{where}: cannot read {raw!r} as a rational: {err}") from None
    raise ConfigError(f"{where}: cannot read {raw!r} as a rational")


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _check_field(where: str, kind: Any, minimum: int | None, value: Any) -> Any:
    """Check one value against its FIELDS entry and return it with
    rationals parsed and a single X of an `X | list[X]` field as [X]."""
    if isinstance(kind, UnionType):
        kind = get_args(kind)[1]
        value = value if isinstance(value, list) else [value]
    container = get_origin(kind)
    if container is Literal:
        choices = get_args(kind)
        if value not in choices:
            raise ConfigError(f"{where} must be one of {', '.join(choices)}, got {value!r}")
        return value
    if container is not None:
        if not isinstance(value, container):
            noun = "a list" if container is list else "an object"
            raise ConfigError(f"{where} must be {noun}, got {value!r}")
        item = get_args(kind)[-1]
        if container is dict:
            return {k: _check_field(f"{where}[{k}]", item, minimum, v) for k, v in value.items()}
        items = [_check_field(where, item, minimum, v) for v in value]
        if not items:
            raise ConfigError(f"{where} must hold at least one value")
        if len(set(items)) < len(items):  # parsed, so "1/4" and "2/8" are one value
            twice = next(v for i, v in enumerate(items) if v in items[:i])
            raise ConfigError(f"{where} must hold distinct values, got {twice} twice")
        return items
    if kind is Fraction:
        value = parse_rational(value, where)
        if not 0 < value <= 1:
            raise ConfigError(f"{where} must be in (0, 1], got {format_rational(value)}")
        return value
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if kind is float and not 0 < value < 1:
        raise ConfigError(f"{where} must be in (0, 1), got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}, got {value!r}")
    return value


@dataclass
class ExperimentConfig:
    values: dict[str, dict[str, Any]]
    path: str

    def field(self, section: str, name: str, default: Any = _REQUIRED) -> Any:
        """The checked value of section.name, or default when it is absent
        (required if no default); the section itself must be present."""
        if section not in self.values:
            raise ConfigError(f"{self.path}: missing section {section!r}")
        got = self.values[section].get(name, default)
        if got is _REQUIRED:
            raise ConfigError(f"{self.path}: missing field {section}.{name}")
        return got

    def build_domain(self) -> Domain:
        # calkin-wilf is an alias of naturals: the same ids, the same tower
        if self.field("domain", "kind") != "finite":
            return naturals_domain()
        size = self.field("domain", "size")
        if size > DOMAIN_SIZE_LIMIT:
            raise ConfigError(
                f"{self.path}: domain.size of {size} is above the {DOMAIN_SIZE_LIMIT} guard"
            )
        return FiniteDomain(size)

    def build_tower(self, domain: Domain) -> OrderTower:
        if domain.size is None:
            return enumerated_tower(domain)
        return finite_proxy_tower(domain, self.field("tower", "depth"), self.field("tower", "seed"))

    def build_scheme(self) -> MonotoneScheme:
        """The configured scheme, after the domain and tower it needs."""
        tower = self.build_tower(self.build_domain())
        kind = self.field("scheme", "kind")
        if kind == "enumeration":
            return enumeration_scheme(tower)
        if kind == "tower":
            return tower_scheme(tower)
        return identity_eta_scheme(self.field("scheme", "m", 1))

    def build_distribution(self) -> FiniteSupportDistribution:
        """The configured distribution, after the domain its support must
        lie in; a mass key is a point id in canonical decimal form. A
        uniform range is checked before it is built."""
        size = self.build_domain().size
        kind = self.field("distribution", "kind")
        if kind == "uniform-range":
            lo, hi = self.field("distribution", "lo"), self.field("distribution", "hi")
            if hi < lo:
                raise ConfigError(f"{self.path}: distribution range is empty")
            dist = None
            support = range(lo, hi + 1)
        else:
            masses = {}
            for key, mass in self.field("distribution", "masses").items():
                try:
                    canonical = str(int(key)) == key
                except ValueError:
                    canonical = False
                if not canonical:  # so that no two keys name one id
                    raise ConfigError(
                        f"{self.path}: distribution.masses key {key!r} is not a point id"
                    )
                masses[int(key)] = mass
            try:
                dist = FiniteSupportDistribution(masses)
            except ValueError as err:
                raise ConfigError(f"{self.path}: {err}") from None
            support = dist.support
        # the support ascends, so its first id outside the domain is its
        # first id if negative, else its first id at or above size
        low, top = support[0], support[-1]
        if low < 0 or size is not None and top >= size:
            pid = low if low < 0 else support[bisect_left(support, size)]
            raise ConfigError(
                f"{self.path}: distribution puts mass on point {pid}, outside the domain"
            )
        if size is None and top >= COUNTABLE_POOL_LIMIT:
            raise ConfigError(
                f"{self.path}: distribution puts mass on point {top} of a countable domain, "
                f"at or above the {COUNTABLE_POOL_LIMIT} guard"
            )
        return FiniteSupportDistribution.uniform(support) if dist is None else dist

    def build_learner(self, scheme: MonotoneScheme) -> EmxLearner:
        cap = self.field("learner", "cap", DEFAULT_CAP) if "learner" in self.values else DEFAULT_CAP
        return EmxLearner(scheme, scheme.m, cap)


def load_config(path: str) -> ExperimentConfig:
    """Read a config file and check every field against FIELDS: unknown
    sections and fields, wrong JSON types, strings outside a field's
    choices, values below a minimum or outside (0, 1], and empty or
    repeating lists are ConfigErrors naming the field, and so is a key
    repeated in one JSON object. JSON errors carry line and column."""

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj: dict[str, Any] = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: key {key!r} appears twice in one object")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=unique_keys)
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    schema = raw.pop("schema", None)
    if schema != SCHEMA:
        raise ConfigError(f"{path}: schema must be {SCHEMA!r}, got {schema!r}")
    values = {}
    for section, given in raw.items():
        if section not in FIELDS:
            raise ConfigError(f"{path}: unknown section {section!r}")
        if not isinstance(given, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        unknown = [name for name in given if name not in FIELDS[section]]
        if unknown:
            raise ConfigError(f"{path}: unknown field {section}.{unknown[0]}")
        values[section] = {
            name: _check_field(f"{path}: {section}.{name}", *FIELDS[section][name], value)
            for name, value in given.items()
        }
    return ExperimentConfig(values, path)
