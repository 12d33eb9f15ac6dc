"""Experiment configuration: one JSON file per run, schema-tagged.

Rationals are written as "num/den" strings (or [num, den] pairs) in both
configs and outputs. `load_config` checks every field against FIELDS in
one pass, and the ExperimentConfig methods that build a command's inputs
check the rules that span fields, so commands get only checked values.
Building from a config is deterministic, so identical configs produce
byte-identical output artifacts.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from types import UnionType
from typing import Any, Literal, NamedTuple, get_args, get_origin

from .chains import DEFAULT_CAP
from .core import Domain, FiniteDomain, FiniteSupportDistribution, naturals_domain
from .evaluation import EmxLearner
from .schemes import MonotoneScheme, enumeration_scheme, identity_eta_scheme, seeded_subsets
from .schemes import tower_scheme
from .towers import OrderTower, enumerated_tower, finite_proxy_tower

SCHEMA = "emx-experiment/1"
# On a countable domain a reconstruction of ids below k is the prefix
# 0..k, and a tower scheme caches up to 1 024 of them, so memory grows
# with the largest id: random verify's pool ids, evaluate's support ids
# and descend's sub-domain ids stay below this. At this pool and the largest
# sample count `emx verify` peaks at about 96 MB RSS (Python 3.11).
COUNTABLE_POOL_LIMIT = 1_000
# A finite domain's tower orders all its ids at once, so `domain.size`
# stays at or below this. At this size a random `emx verify` of 20 000
# samples on a depth-2 tower peaks at about 46 MB RSS and takes 30 s
# (pool 60) to 56 s (pool 2 000); `emx compress` of 3 points takes 0.01 s.
DOMAIN_SIZE_LIMIT = 2_000
# Each evaluate trial draws max(m) points into one list: at m = 4 000 000
# three trials took 4 s and peaked at 111 MB RSS (Python 3.11).
EVALUATE_M_LIMIT = 100_000
# `emx verify` checks at most this many subsets: verify.samples drawn, or
# all C(verify.count, m + 1).
EXHAUSTIVE_SUBSET_LIMIT = 200_000
# `emx descend` tabulates the sub-domain's subsets of m and of m + 1 points:
# at most this many together.
DESCEND_SUBSET_LIMIT = 20_000


class Field(NamedTuple):
    """A config field: its JSON type, least and greatest value, and value
    when absent (`...` if required, _DOMAIN_SIZE for the finite domain's
    size). A Literal is one of its strings; int excludes booleans; a
    Fraction is a rational (see parse_rational) in (0, 1]; a float is a
    number in (0, 1); a list holds at least one value and none twice;
    `X | list[X]` also takes an X. The minimum bounds each item of a list."""

    kind: Any
    minimum: int | None = None
    maximum: int | None = None
    default: Any = ...


_DOMAIN_SIZE = object()
# Every field a config may hold, by section.
FIELDS: dict[str, dict[str, Field]] = {
    "domain": {"kind": Field(Literal["naturals", "calkin-wilf", "finite"]),
               "size": Field(int, 1, DOMAIN_SIZE_LIMIT)},
    "tower": {"depth": Field(int, 0), "seed": Field(int)},
    "scheme": {"kind": Field(Literal["enumeration", "tower", "identity-eta"]),
               "m": Field(int, 0, default=1)},
    "learner": {"cap": Field(int, 1, default=DEFAULT_CAP)},
    "distribution": {"kind": Field(Literal["uniform-range", "explicit"]), "lo": Field(int),
                     "hi": Field(int), "masses": Field(dict[str, Fraction])},
    "evaluate": {"m": Field(int | list[int], 0, EVALUATE_M_LIMIT),
                 "epsilon": Field(Fraction | list[Fraction]), "trials": Field(int, 1, default=1000),
                 "seed": Field(int, default=0), "confidence": Field(float, default=0.99),
                 "per_trial": Field(bool, default=False)},
    "verify": {"mode": Field(Literal["exhaustive", "random"], default="exhaustive"),
               "count": Field(int, 0, default=_DOMAIN_SIZE),
               "samples": Field(int, 1, EXHAUSTIVE_SUBSET_LIMIT, default=100),
               "seed": Field(int, default=0), "pool": Field(int, 0, default=_DOMAIN_SIZE)},
    "descend": {"x_size": Field(int, 0, default=_DOMAIN_SIZE),
                "y_size": Field(int, 0, default=None), "y": Field(list[int], 0, default=None)},
    "compress": {"points": Field(list[int], 0)},
}
_TYPE_NAMES = {int: "an integer", bool: "true or false", float: "a number"}


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


def _check_field(where: str, field: Field, value: Any) -> Any:
    """Check one value against its FIELDS entry, a list's largest item
    against the maximum, and return it with rationals parsed and a single
    X of an `X | list[X]` field as [X]."""
    kind, minimum, maximum = field.kind, field.minimum, field.maximum
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
            return {k: _check_field(f"{where}[{k}]", Field(item, minimum), v)
                    for k, v in value.items()}
        items = [_check_field(where, Field(item, minimum), v) for v in value]
        if not items:
            raise ConfigError(f"{where} must hold at least one value")
        if len(set(items)) < len(items):  # parsed, so "1/4" and "2/8" are one value
            twice = next(v for i, v in enumerate(items) if v in items[:i])
            raise ConfigError(f"{where} must hold distinct values, got {twice} twice")
        if maximum is not None:
            _check_field(where, Field(item, maximum=maximum), max(items))
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
    if maximum is not None and value > maximum:
        raise ConfigError(f"{where} of {value} is above the {maximum} guard")
    return value


@dataclass
class ExperimentConfig:
    values: dict[str, dict[str, Any]]
    path: str

    def field(self, section: str, name: str) -> Any:
        """The checked value of section.name, or its FIELDS default when it
        is absent; the section itself must be present."""
        if section not in self.values:
            raise ConfigError(f"{self.path}: missing section {section!r}")
        if name in self.values[section]:
            return self.values[section][name]
        default = FIELDS[section][name].default
        if default is _DOMAIN_SIZE:
            default = self.build_domain().size
            if default is None:
                raise ConfigError(f"{self.path}: {section}.{name} is required for countable domains")
        if default is ...:
            raise ConfigError(f"{self.path}: missing field {section}.{name}")
        return default

    def build_domain(self) -> Domain:
        # calkin-wilf is an alias of naturals: the same ids, the same tower
        if self.field("domain", "kind") != "finite":
            return naturals_domain()
        return FiniteDomain(self.field("domain", "size"))

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
        return identity_eta_scheme(self.field("scheme", "m"))

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
        self._check_countable_id("distribution puts mass on", top)
        return FiniteSupportDistribution.uniform(support) if dist is None else dist

    def build_learner(self, scheme: MonotoneScheme) -> EmxLearner:
        return EmxLearner(scheme, scheme.m, self.field("learner", "cap"))

    def _check_countable_id(self, holder: str, top: int) -> None:
        """Refuse top, the largest id of holder, on a countable domain at or above its guard."""
        if top >= COUNTABLE_POOL_LIMIT and self.build_domain().size is None:
            raise ConfigError(
                f"{self.path}: {holder} point {top} of a countable domain, "
                f"at or above the {COUNTABLE_POOL_LIMIT} guard"
            )

    def verify_subsets(self, arity: int) -> list[frozenset[int]]:
        """The (arity + 1)-subsets of the first verify.count ids, or verify.samples
        of those of the first verify.pool ids: at least one, all in the domain,
        checked before any is built."""
        mode = self.field("verify", "mode")
        name = "count" if mode == "exhaustive" else "pool"
        points, size = self.field("verify", name), self.build_domain().size
        if points < arity + 1:  # fewer points than one subset: nothing would be checked
            raise ConfigError(f"{self.path}: verify.{name} must be >= {arity + 1}, got {points}")
        if size is not None and points > size:
            raise ConfigError(f"{self.path}: verify.{name} of {points} is above domain.size {size}")
        if mode == "random":
            self._check_countable_id("random verify's pool holds", points - 1)
            samples, seed = self.field("verify", "samples"), self.field("verify", "seed")
            return seeded_subsets(range(points), arity + 1, samples, seed)
        total = comb(points, arity + 1)
        if total > EXHAUSTIVE_SUBSET_LIMIT:
            raise ConfigError(f"{self.path}: exhaustive verify over {points} points needs "
                              f"{total} subsets, above the {EXHAUSTIVE_SUBSET_LIMIT} guard")
        return [frozenset(c) for c in combinations(range(points), arity + 1)]

    def compress_points(self) -> list[int]:
        """compress.points, every one inside a finite domain."""
        points, size = self.field("compress", "points"), self.build_domain().size
        if size is not None and max(points) >= size:
            first = min(pid for pid in points if pid >= size)
            raise ConfigError(f"{self.path}: compress.points holds point {first}, "
                              f"at or above domain.size {size}")
        return points

    def descend_inputs(self, arity: int) -> tuple[int, list[int]]:
        """Domain size (x_size, capped at a finite domain's size) and sub-domain
        (y, or the ids below y_size) for `descend`, which refuses ids outside a
        finite domain; the sub-domain's ids lie below an x_size that caps it."""
        size = self.build_domain().size
        x_size = self.field("descend", "x_size")
        sub, y_size = self.field("descend", "y"), self.field("descend", "y_size")
        if sub is None and y_size is None:
            raise ConfigError(f"{self.path}: descend needs y or y_size")
        sub = list(range(y_size)) if sub is None else sub
        work = comb(len(sub), arity) + comb(len(sub), arity + 1)
        if work > DESCEND_SUBSET_LIMIT:
            raise ConfigError(f"{self.path}: descending over {len(sub)} points needs {work} "
                              f"subset evaluations, above the {DESCEND_SUBSET_LIMIT} guard")
        self._check_countable_id("descend sub-domain holds", max(sub, default=0))
        if size is not None and size <= x_size:
            return size, sub
        first = min((pid for pid in sub if pid >= x_size), default=None)
        if first is not None:
            raise ConfigError(f"{self.path}: descend sub-domain holds point {first}, "
                              f"at or above descend.x_size of {x_size}")
        return x_size, sub


def load_config(path: str) -> ExperimentConfig:
    """Read a config file and check every field against FIELDS: unknown
    sections and fields, wrong JSON types, strings outside a field's
    choices, values below a minimum or above a maximum or outside (0, 1],
    and empty or repeating lists are ConfigErrors naming the field, and so
    is a key repeated in one JSON object. JSON errors carry line and
    column. `learner` may be left out: its field then takes its default."""

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
    values: dict[str, dict[str, Any]] = {"learner": {}}
    for section, given in raw.items():
        if section not in FIELDS:
            raise ConfigError(f"{path}: unknown section {section!r}")
        if not isinstance(given, dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
        unknown = [name for name in given if name not in FIELDS[section]]
        if unknown:  # a name that would break the one-line message is shown as its repr
            name = unknown[0] if unknown[0].isprintable() else repr(unknown[0])
            raise ConfigError(f"{path}: unknown field {section}.{name}")
        values[section] = {
            name: _check_field(f"{path}: {section}.{name}", FIELDS[section][name], value)
            for name, value in given.items()
        }
    return ExperimentConfig(values, path)
