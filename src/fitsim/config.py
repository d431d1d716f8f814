"""Run configuration: an INI dialect with per-value provenance.

Every value line carries a marker saying where the number comes from::

    key = value ; provenance[: note]

with provenance one of ``paper`` (taken from the source study), ``derived``
(computed from other values), or ``assumed`` (an engineering choice of this
implementation). Sections:

* ``[clock]`` start_year, end_year, dt;
* ``[parameters]`` the scalar economics (fields of
  :class:`~fitsim.model.EconomicParameters`);
* ``[effects]`` sigmoid shapes ``<effect>_{y_max,x_50,p}`` plus
  ``penetration_gain``;
* ``[trends]`` exogenous drivers ``<trend>_{intercept,slope,reference_year}``;
* ``[policy]`` default policy knobs shared by all scenarios;
* ``[scenario:NAME]`` one named run: a required ``policy`` id, optional
  knob overrides, and optional parameter overrides by registry name.

Unknown sections or keys are rejected. A parameter left out takes the
packaged config's value, a clock key ``DEFAULT_CLOCK``'s, and each such
fallback is logged; the packaged config must define every parameter. A
knob left out takes ``PolicyControl``'s neutral default, unlogged. Full
line comments start with ``#``; the ``;`` is reserved for provenance.
"""

from __future__ import annotations

import configparser
import os
from typing import NamedTuple

from .engine import DEFAULT_CLOCK, ConfigurationError, SimulationClock, replace
from .model import (
    ModelParameters,
    PARAMETER_NAMES,
    PARAMETER_PATHS,
    build_parameters,
    get_parameter,
)
from .policies import POLICY_IDS, PolicyControl, Scenario

__all__ = [
    "PROVENANCE_SOURCES",
    "ConfigEntry",
    "ConfigDocument",
    "parse_config",
    "load_config",
    "serialize_config",
    "default_config_text",
    "load_default_config",
]

PROVENANCE_SOURCES = ("paper", "derived", "assumed")

_CLOCK_KEYS = SimulationClock._fields
_POLICY_KEYS = tuple(name for name in PolicyControl._fields
                     if name != "policy_id")
# section -> the ModelParameters group whose registry names it holds
_PARAMETER_SECTIONS = {"parameters": "econ", "effects": "effects",
                       "trends": "exogenous"}

_SCALAR_SECTIONS = {
    "clock": _CLOCK_KEYS,
    **{section: tuple(name for name, path in PARAMETER_PATHS.items()
                      if path[0] == group)
       for section, group in _PARAMETER_SECTIONS.items()},
    "policy": _POLICY_KEYS,
}


class ConfigEntry(NamedTuple):
    """One parsed value line: the value plus its provenance."""

    value: float | str
    source: str
    note: str = ""


class ConfigDocument(NamedTuple):
    """A fully validated configuration.

    ``entries`` holds exactly what the file said (per section, in file
    order); ``log`` records every clock key and parameter that fell back.
    """

    clock: SimulationClock
    params: ModelParameters
    scenarios: tuple[Scenario, ...]
    entries: dict[str, dict[str, ConfigEntry]]
    log: tuple[str, ...]

    @property
    def scenario_names(self) -> tuple[str, ...]:
        return tuple(scenario.name for scenario in self.scenarios)

    def scenario(self, name: str) -> Scenario:
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise ConfigurationError(
            f"unknown scenario {name!r}; have {list(self.scenario_names)}")


def _split_value(section: str, key: str, raw: str) -> tuple[str, str, str]:
    where = f"[{section}] {key}"
    if ";" not in raw:
        raise ConfigurationError(
            f"{where}: missing provenance; expected "
            f"'value ; {{paper|derived|assumed}}[: note]'")
    token, annotation = raw.split(";", 1)
    token = token.strip()
    annotation = annotation.strip()
    if ":" in annotation:
        source, note = (part.strip() for part in annotation.split(":", 1))
    else:
        source, note = annotation, ""
    if source not in PROVENANCE_SOURCES:
        raise ConfigurationError(
            f"{where}: provenance must be one of {PROVENANCE_SOURCES}, "
            f"got {source!r}")
    if not token:
        raise ConfigurationError(f"{where}: empty value")
    return token, source, note


def _parse_scalar(section: str, key: str, token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ConfigurationError(
            f"[{section}] {key}: not a number: {token!r}") from None


def parse_config(text: str) -> ConfigDocument:
    """Parse and validate a configuration document."""
    return _parse(text, packaged=False)


def _parse(text: str, packaged: bool) -> ConfigDocument:
    # the packaged file has no values to fall back on
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",),
        comment_prefixes=("#",), inline_comment_prefixes=None)
    parser.optionxform = str  # keys are case-sensitive as written
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config syntax error: {exc}") from exc

    for section in parser.sections():
        if section in _SCALAR_SECTIONS:
            continue
        if section.startswith("scenario:") and section != "scenario:":
            continue
        raise ConfigurationError(
            f"unknown section [{section}]; expected one of "
            f"{sorted(_SCALAR_SECTIONS)} or [scenario:NAME]")

    log: list[str] = []
    entries: dict[str, dict[str, ConfigEntry]] = {}

    def read_section(name: str, allowed: tuple[str, ...],
                     parse=_parse_scalar) -> dict:
        values: dict = {}
        if not parser.has_section(name):
            return values
        section_entries = entries.setdefault(name, {})
        for key, raw in parser.items(name):
            if key not in allowed:
                raise ConfigurationError(
                    f"unknown key {key!r} in [{name}]; "
                    f"expected one of {sorted(allowed)}")
            token, source, note = _split_value(name, key, raw)
            value = parse(name, key, token)
            values[key] = value
            section_entries[key] = ConfigEntry(value, source, note)
        return values

    clock_values = read_section("clock", _CLOCK_KEYS)
    for key in _CLOCK_KEYS:
        if key not in clock_values:
            log.append(f"clock.{key} defaulted to "
                       f"{getattr(DEFAULT_CLOCK, key)!r}")
    clock = replace(DEFAULT_CLOCK, **clock_values)

    values: dict[str, float] = {}
    for section in _PARAMETER_SECTIONS:
        values.update(read_section(section, _SCALAR_SECTIONS[section]))
    fallback = None
    for section in _PARAMETER_SECTIONS:
        for key in _SCALAR_SECTIONS[section]:
            if key in values:
                continue
            if packaged:
                raise ConfigurationError(
                    f"the packaged config lacks [{section}] {key}")
            fallback = fallback or load_default_config().params
            values[key] = get_parameter(fallback, key)
            log.append(f"{section}.{key} defaulted to {values[key]!r}")
    params = build_parameters(values)

    # knobs left out here fall back to PolicyControl's own defaults
    knob_defaults = read_section("policy", _POLICY_KEYS)

    def parse_scenario_value(name: str, key: str, token: str):
        if key == "policy":
            if token not in POLICY_IDS:
                raise ConfigurationError(
                    f"[{name}] policy must be one of {POLICY_IDS}, "
                    f"got {token!r}")
            return token
        return _parse_scalar(name, key, token)

    scenario_allowed = ("policy",) + _POLICY_KEYS + PARAMETER_NAMES
    scenarios: list[Scenario] = []
    for section in parser.sections():
        if not section.startswith("scenario:"):
            continue
        name = section[len("scenario:"):]
        values = read_section(section, scenario_allowed,
                              parse=parse_scenario_value)
        if "policy" not in values:
            raise ConfigurationError(f"[{section}] must declare a policy "
                                     f"(one of {POLICY_IDS})")
        knobs = dict(knob_defaults)
        overrides: dict[str, float] = {}
        for key, value in values.items():
            if key == "policy":
                continue
            if key in _POLICY_KEYS:
                knobs[key] = value
            else:
                overrides[key] = value
        control = PolicyControl(policy_id=values["policy"], **knobs)
        scenarios.append(Scenario(name=name, clock=clock,
                                  overrides=overrides, policy=control))

    if not scenarios:
        log.append("no [scenario:NAME] sections; synthesized neutral 'base'")
        scenarios.append(Scenario(name="base", clock=clock))

    return ConfigDocument(clock=clock, params=params,
                          scenarios=tuple(scenarios), entries=entries,
                          log=tuple(log))


def load_config(path) -> ConfigDocument:
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(doc: ConfigDocument) -> str:
    """Write the document back out; parsing the result reproduces it.

    Only keys that were present in the original file are emitted, in file
    order, with values normalized to ``repr`` so the round trip is exact.
    """
    lines: list[str] = []
    for section, section_entries in doc.entries.items():
        lines.append(f"[{section}]")
        for key, entry in section_entries.items():
            annotation = entry.source
            if entry.note:
                annotation += f": {entry.note}"
            lines.append(f"{key} = {_format_value(entry.value)} ; {annotation}")
        lines.append("")
    return "\n".join(lines)


def default_config_text() -> str:
    """The configuration shipped with the package, read through the
    package's own loader, which also serves a zip import."""
    path = os.path.join(os.path.dirname(__file__), "data", "default.cfg")
    return __spec__.loader.get_data(path).decode("utf-8")


def load_default_config() -> ConfigDocument:
    return _parse(default_config_text(), packaged=True)
