"""The calibration script's config writer, its keep-or-replace rule, its
gates, and the one source of the values it calibrates
(``tools/calibrate.py``)."""

import importlib.util
import itertools
import math
import time
from pathlib import Path

import pytest

from fitsim import (
    ConfigurationError,
    default_config_text,
    get_parameter,
    load_default_config,
    parse_config,
)

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "calibrate.py"
_SPEC = importlib.util.spec_from_file_location("calibrate", _SCRIPT)
calibrate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(calibrate)

OM_COST = ("om_cost = 1.64 ; assumed: operating cost, about a twelfth of the "
           "launch tariff; calibrated\n")


# === keep or replace ===

def test_a_winner_replaces_only_with_a_strictly_larger_score():
    incumbent = calibrate._score({"a": 0.0288, "b": 0.5}, {"gate": True})
    assert not calibrate.replaces(incumbent, 0.0103)
    assert not calibrate.replaces(incumbent, incumbent)
    assert calibrate.replaces(incumbent, 0.0289)


def test_an_incumbent_that_fails_a_gate_gives_way_to_any_winner():
    incumbent = calibrate._score({"a": 0.9}, {"gate": False})
    assert incumbent < 0.0
    assert calibrate.replaces(incumbent, 0.0001)


def test_the_incumbent_is_what_the_config_holds():
    doc = load_default_config()
    incumbent = calibrate.Calibration().incumbent()
    assert tuple(incumbent) == calibrate.KEYS
    for key, (section, *_) in calibrate.SEARCH_BOX.items():
        assert incumbent[key] == doc.entries[section][key].value, key


def test_the_gates_do_not_read_the_wall_clock(monkeypatch):
    calibration = calibrate.Calibration()
    incumbent = calibration.incumbent()
    margins, gates = calibration.evaluate(incumbent, -math.inf)
    assert all(gates.values())
    # a host so slow that every timed call takes a minute
    ticks = itertools.count(0.0, 60.0)
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    assert calibration.evaluate(incumbent, -math.inf) == (margins, gates)


# === writing the config ===

def test_rewrite_replaces_the_value_and_keeps_the_note():
    text = default_config_text()
    assert OM_COST in text
    new = calibrate.rewrite_config(text, {"om_cost": 1.79})
    assert new == text.replace(OM_COST, OM_COST.replace("1.64", "1.79"))
    # a key in two sections changes only in the searched one
    new = calibrate.rewrite_config(text, {"res_tax_base": 0.001})
    changed = [(old, line) for old, line in zip(text.splitlines(),
                                                new.splitlines())
               if old != line]
    assert changed == [(
        "res_tax_base = 0.000864 ; assumed: launch levy well below the "
        "tolerance threshold; calibrated",
        "res_tax_base = 0.001 ; assumed: launch levy well below the "
        "tolerance threshold; calibrated")]


def test_rewrite_refuses_a_value_not_marked_assumed():
    text = default_config_text().replace(
        OM_COST, "om_cost = 1.64 ; paper: fixed\n")
    with pytest.raises(ConfigurationError,
                       match=r"\[parameters\] om_cost is not marked assumed"):
        calibrate.rewrite_config(text, {"om_cost": 1.79})


def test_rewrite_refuses_a_key_the_config_lacks():
    text = default_config_text().replace(OM_COST, "")
    with pytest.raises(ConfigurationError, match="config lacks.*om_cost"):
        calibrate.rewrite_config(text, {"om_cost": 1.79,
                                        "learning_exponent": 0.2})


def test_a_rewritten_config_parses_to_the_written_values():
    values = calibrate.ANCHOR
    doc = parse_config(calibrate.rewrite_config(default_config_text(),
                                                values))
    assert not any("defaulted" in line for line in doc.log)
    for key, value in values.items():
        if key in calibrate.KNOBS:
            got = getattr(doc.scenario(calibrate.KNOBS[key]).policy, key)
        else:
            got = get_parameter(doc.params, key)
        assert got == value, key


# === one source for "calibrated" ===

def test_the_values_marked_calibrated_are_the_searched_ones(default_doc):
    marked = {(section, key)
              for section, entries in default_doc.entries.items()
              for key, entry in entries.items() if "calibrated" in entry.note}
    searched = {(section, key)
                for key, (section, *_) in calibrate.SEARCH_BOX.items()}
    assert len(searched) == 12
    assert marked == searched
