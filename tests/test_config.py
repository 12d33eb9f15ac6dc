import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from emx.chains import DEFAULT_CAP
from emx.config import FIELDS, ConfigError, format_rational, load_config, parse_rational
from emx.core import FiniteDomain


def write(tmp_path, payload, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {
    "schema": "emx-experiment/1",
    "domain": {"kind": "naturals"},
    "scheme": {"kind": "enumeration"},
}


class TestParseRational:
    def test_accepted_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational([3, 4]) == Fraction(3, 4)
        assert parse_rational(2) == Fraction(2)

    def test_rejected_forms(self):
        # a pair holds two JSON integers, so none of its entries is truncated
        for bad in ("x", [1, 0], None, True, [1], [1.5, 2], [True, 2], [1, 2.9]):
            with pytest.raises(ConfigError):
                parse_rational(bad)

    def test_format_round_trips(self):
        q = Fraction(59049, 1048576)
        assert parse_rational(format_rational(q)) == q


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": }')
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert ":1:" in str(err.value)

    def test_schema_tag_required(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, {"domain": {"kind": "naturals"}}))
        assert "schema" in str(err.value)

    def test_missing_field_named_in_error(self, tmp_path):
        cfg = load_config(write(tmp_path, {"schema": "emx-experiment/1", "domain": {}}))
        with pytest.raises(ConfigError) as err:
            cfg.build_domain()
        assert "domain.kind" in str(err.value)

    @pytest.mark.parametrize(
        "section, value, message",
        [
            ("verify", {"mode": 3}, "verify.mode must be one of exhaustive, random, got 3"),
            ("compress", {"points": []}, "compress.points must hold at least one value"),
            ("descend", {"y": [2, 5, 2]}, "descend.y must hold distinct values, got 2 twice"),
            ("evaluate", {"epsilon": [[1, 3], "2/6"]},
             "evaluate.epsilon must hold distinct values, got 1/3 twice"),
            ("distribution", {"masses": {"1": "0", "2": 1}},
             "distribution.masses[1] must be in (0, 1], got 0/1"),
            ("distribution", {"masses": {"1": [3, 2]}},
             "distribution.masses[1] must be in (0, 1], got 3/2"),
        ],
    )
    def test_value_rules_hold_at_load(self, tmp_path, section, value, message):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, {**BASE, section: value}))
        assert str(err.value).endswith(message)


class TestBuilders:
    def test_domains(self, tmp_path):
        cfg = load_config(write(tmp_path, BASE))
        assert cfg.build_domain().size is None
        alias = {**BASE, "domain": {"kind": "calkin-wilf"}}
        assert load_config(write(tmp_path, alias, "cw.json")).build_domain() == cfg.build_domain()
        cfg = load_config(
            write(tmp_path, {**BASE, "domain": {"kind": "finite", "size": 12}}, "f.json")
        )
        dom = cfg.build_domain()
        assert isinstance(dom, FiniteDomain) and dom.size == 12

    def test_unknown_kinds(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, {**BASE, "domain": {"kind": "reals"}}))
        assert "domain.kind must be one of naturals, calkin-wilf, finite, got 'reals'" in str(
            err.value
        )

    def test_tower_needed_for_finite_domains(self, tmp_path):
        cfg = load_config(
            write(tmp_path, {**BASE, "domain": {"kind": "finite", "size": 6}})
        )
        with pytest.raises(ConfigError):
            cfg.build_tower(cfg.build_domain())

    def test_finite_pipeline(self, tmp_path):
        payload = {
            "schema": "emx-experiment/1",
            "domain": {"kind": "finite", "size": 20},
            "tower": {"depth": 1, "seed": 3},
            "scheme": {"kind": "tower"},
            "learner": {"cap": 500},
        }
        cfg = load_config(write(tmp_path, payload))
        scheme = cfg.build_scheme()
        assert scheme.m == 2
        learner = cfg.build_learner(scheme)
        assert learner.cap == 500
        del payload["learner"]
        default = load_config(write(tmp_path, payload, "default.json"))
        assert default.build_learner(scheme).cap == DEFAULT_CAP

    def test_distributions(self, tmp_path):
        payload = {
            **BASE,
            "distribution": {"kind": "uniform-range", "lo": 1, "hi": 4},
        }
        cfg = load_config(write(tmp_path, payload))
        assert cfg.build_distribution().mass(2) == Fraction(1, 4)
        payload["distribution"] = {"kind": "explicit", "masses": {"1": "1/2", "7": "1/2"}}
        cfg = load_config(write(tmp_path, payload, "e.json"))
        assert cfg.build_distribution().support == (1, 7)
        payload["distribution"] = {"kind": "explicit", "masses": {"1": "1/2", "7": "1/3"}}
        cfg = load_config(write(tmp_path, payload, "bad.json"))
        with pytest.raises(ConfigError):
            cfg.build_distribution()


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadmeSchema:
    def test_schema_example_loads(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        text = text[text.index("### Config schema"):]
        block = text[text.index("```json\n") + len("```json\n"):]
        path = tmp_path / "readme.json"
        path.write_text(block[:block.index("```")])
        load_config(str(path))

    def test_field_table_lists_every_field(self):
        """README's table lists every FIELDS entry in order, with its maximum
        and its default: a constant, `required` (perhaps for one kind),
        `none: ...`, or the finite domain's size."""
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in README.read_text(encoding="utf-8").splitlines()
            if re.match(r"\| `\w+\.\w+` \|", line)
        ]
        assert [row[0] for row in rows] == [
            f"`{section}.{name}`" for section, fields in FIELDS.items() for name in fields
        ]
        for cell, _, _, maximum, default in rows:
            section, name = cell.strip("`").split(".")
            field = FIELDS[section][name]
            assert maximum == ("" if field.maximum is None else f"{field.maximum:,}".replace(",", " "))
            if field.default is ...:
                pattern = r"required( for `[\w-]+`)?"
            elif field.default is None:
                pattern = r"none: .+"
            elif isinstance(field.default, str):
                pattern = re.escape(f"`{field.default}`")
            elif isinstance(field.default, (bool, int, float)):
                pattern = re.escape(json.dumps(field.default))
            else:
                pattern = re.escape("the finite domain's size, else required")
            assert re.fullmatch(pattern, default), f"{section}.{name}: {default!r}"
