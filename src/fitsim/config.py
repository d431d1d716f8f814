"""Run configuration: an INI dialect with per-value provenance.

Every value line carries a marker saying where the number comes from::

    key = value ; provenance[: note]

with provenance one of ``paper`` (taken from the source study), ``derived``
(computed from other values), or ``assumed`` (an engineering choice of this
implementation). Each section builds one record, and each of its keys is
a field of that record under the same name:

* ``[clock]`` start_year, end_year, dt: the one clock of every scenario,
  a :class:`~fitsim.engine.SimulationClock`;
* ``[parameters]`` every model parameter, a
  :class:`~fitsim.model.ModelParameters`: the economics, pipeline and
  initial state, the response curves and the exogenous trends;
* ``[scenario:NAME]`` one named run, a :class:`~fitsim.policies.Scenario`:
  a required ``policy`` id and optional knobs, its fields, while its
  other keys are parameter overrides, its ``overrides``.

Unknown sections or keys are rejected. A file is laid over the packaged
config, which must define every clock key and parameter: a clock key or
parameter left out keeps the packaged value, and each such fallback is
logged. A knob left out takes ``Scenario``'s neutral default, unlogged.
A clock value, parameter, policy or knob that its record refuses, in any
section, fails the parse. The refusal is named by the section and key of
the first value that, laid alone over the same record, is refused in the
same words, or else by its section alone, for only several values
together are refused, as is a refused scenario name (its policy is laid
before its knobs); the CLI names a refused ``--dt`` or ``--horizon`` by
its flag in the same way. Full line comments start with ``#``; the
``;`` is reserved for provenance.
"""

from __future__ import annotations

import configparser
import os
from typing import NamedTuple

from .engine import ConfigurationError, SimulationClock
from .model import ModelParameters, PARAMETER_NAMES, apply_overrides
from .policies import POLICY_IDS, Scenario

__all__ = [
    "PROVENANCE_SOURCES",
    "ConfigEntry",
    "ConfigDocument",
    "parse_config",
    "load_config",
    "default_config_text",
    "load_default_config",
]

PROVENANCE_SOURCES = ("paper", "derived", "assumed")

_SCALAR_SECTIONS = {"clock": SimulationClock._fields,
                    "parameters": ModelParameters._fields}


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

    @property
    def assumed_keys(self) -> tuple[str, ...]:
        """The model parameters marked ``assumed``, sorted."""
        return tuple(sorted(
            key for key, entry in self.entries.get("parameters", {}).items()
            if entry.source == "assumed"))

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


def _named(apply, values: dict, names, together: str):
    """``apply(**values)``, which lays ``values`` over a valid record, with
    its refusal named: by ``names(key)`` for the first value that, laid
    alone over the same record, is refused in the same words, or else by
    ``together``, for only several values together are refused."""
    try:
        return apply(**values)
    except ConfigurationError as exc:
        words = str(exc)
    for key, value in values.items():
        try:
            apply(**{key: value})
        except ConfigurationError as alone:
            if str(alone) == words:
                raise ConfigurationError(f"{names(key)} {words}") from None
    raise ConfigurationError(f"{together} {words}")


def _in_section(apply, section: str, values: dict):
    """``_named`` for the values of one config section."""
    return _named(apply, values, lambda key: f"[{section}] {key}:",
                  f"[{section}]")


def parse_config(text: str) -> ConfigDocument:
    """Parse and validate a configuration document."""
    return _parse(text, load_default_config())


def _parse(text: str, packaged: ConfigDocument | None) -> ConfigDocument:
    """The document of ``text`` laid over the ``packaged`` one, or, for
    the packaged file itself (``None``), built from its own values."""
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

    given = {section: read_section(section, keys)
             for section, keys in _SCALAR_SECTIONS.items()}
    for section, values in given.items():
        for key in _SCALAR_SECTIONS[section]:
            if key in values:
                continue
            if packaged is None:
                raise ConfigurationError(
                    f"the packaged config lacks [{section}] {key}")
            log.append(f"{section}.{key} defaulted to "
                       f"{packaged.entries[section][key].value!r}")
    if packaged is None:  # the base every other file is laid over
        clock = SimulationClock(**given["clock"])
        params = ModelParameters(**given["parameters"])
    else:
        clock = _in_section(packaged.clock._replace, "clock", given["clock"])
        params = _in_section(packaged.params._replace, "parameters",
                             given["parameters"])

    def parse_scenario_value(name: str, key: str, token: str):
        return token if key == "policy" else _parse_scalar(name, key, token)

    scenario_allowed = Scenario._fields[2:] + PARAMETER_NAMES
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
        fields = {key: values.pop(key) for key in Scenario._fields[2:]
                  if key in values}
        _in_section(lambda **changes: apply_overrides(params, changes),
                    section, values)
        # the name is refused by its section alone, then policy, then knobs
        named = _in_section(lambda: Scenario(name, values), section, {})
        placed = _in_section(named._replace, section,
                             {"policy": fields.pop("policy")})
        scenarios.append(_in_section(placed._replace, section, fields))

    if not scenarios:
        log.append("no [scenario:NAME] sections; synthesized neutral 'base'")
        scenarios.append(Scenario(name="base"))

    return ConfigDocument(clock=clock, params=params,
                          scenarios=tuple(scenarios), entries=entries,
                          log=tuple(log))


def load_config(path) -> ConfigDocument:
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


def default_config_text() -> str:
    """The configuration shipped with the package, read through the
    package's own loader, which also serves a zip import."""
    path = os.path.join(os.path.dirname(__file__), "data", "default.cfg")
    return __spec__.loader.get_data(path).decode("utf-8")


def load_default_config() -> ConfigDocument:
    return _parse(default_config_text(), None)
