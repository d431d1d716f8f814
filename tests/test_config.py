"""Config parsing: provenance markers, fallbacks, scenarios."""

import contextlib

import pytest
from hypothesis import example, given, settings, strategies as st

from fitsim import (
    ConfigurationError,
    PARAMETER_NAMES,
    POLICY_IDS,
    Scenario,
    SimulationClock,
    default_config_text,
    get_parameter,
    load_config,
    load_default_config,
    parse_config,
)
from fitsim.cli import main
from fitsim.config import ConfigEntry

MINIMAL = """\
[clock]
start_year = 2015 ; paper
end_year = 2035 ; paper
dt = 0.25 ; assumed: quarterly stepping
"""

CANONICAL_NAMES = ("base", "p1_higher_fit", "p2_budget_adjusted_fit",
                   "p3_budget_adjusted_tax")


def test_minimal_document_synthesizes_a_base_scenario():
    doc = parse_config(MINIMAL)
    assert doc.clock.start_year == 2015.0
    assert doc.clock.end_year == 2035.0
    assert doc.clock.dt == 0.25
    assert doc.scenario_names == ("base",)
    assert doc.scenarios[0].policy == "base"
    # every parameter left out takes the packaged config's value
    packaged = load_default_config().params
    for name in PARAMETER_NAMES:
        assert (get_parameter(doc.params, name)
                == get_parameter(packaged, name)), name
    assert doc.params == packaged


def test_fallbacks_are_logged():
    doc = parse_config(MINIMAL)
    assert any("synthesized neutral 'base'" in line for line in doc.log)
    assert any(line.startswith("parameters.initial_fit_price defaulted")
               for line in doc.log)
    # clock keys were given, so they must not appear as fallbacks
    assert not any(line.startswith("clock.") for line in doc.log)
    empty = parse_config("")
    assert any(line.startswith("clock.dt defaulted") for line in empty.log)


def test_entries_record_value_source_and_note():
    doc = parse_config(MINIMAL)
    assert doc.entries["clock"]["dt"] == ConfigEntry(
        0.25, "assumed", "quarterly stepping")
    assert doc.entries["clock"]["start_year"] == ConfigEntry(
        2015.0, "paper", "")
    # a scenario's policy id is kept as its text
    doc = parse_config("[scenario:a]\npolicy = p1_higher_fit ; derived: x\n")
    assert doc.entries["scenario:a"] == {
        "policy": ConfigEntry("p1_higher_fit", "derived", "x")}


def test_missing_provenance_is_rejected():
    with pytest.raises(ConfigurationError, match="missing provenance"):
        parse_config("[clock]\ndt = 0.25\n")


def test_unknown_provenance_source_is_rejected():
    with pytest.raises(ConfigurationError, match="provenance"):
        parse_config("[clock]\ndt = 0.25 ; guessed\n")


def test_unknown_key_and_section_are_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config("[clock]\ntimestep = 0.25 ; assumed\n")
    with pytest.raises(ConfigurationError, match="unknown section"):
        parse_config("[clocks]\ndt = 0.25 ; assumed\n")


def test_non_numeric_value_is_rejected():
    with pytest.raises(ConfigurationError, match="not a number"):
        parse_config("[clock]\ndt = fast ; assumed\n")


def test_out_of_range_parameter_names_the_key():
    text = "[parameters]\nrejection_fraction = 1.5 ; assumed\n"
    with pytest.raises(ConfigurationError,
                       match=r"^\[parameters\] rejection_fraction: "
                             r"rejection_fraction must lie in \[0, 1\]"):
        parse_config(text)


@pytest.mark.parametrize("trend", ["total_generation_capacity",
                                   "electricity_consumption"])
@pytest.mark.parametrize("part", ["intercept", "slope", "reference_year"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_trend_value_is_refused(trend, part, value):
    key = f"{trend}_{part}"
    text = "".join(
        f"{key} = {value} ; assumed\n" if line.startswith(f"{key} =")
        else line for line in default_config_text().splitlines(True))
    with pytest.raises(ConfigurationError,
                       match=rf"^\[parameters\] {key}: {key} must be finite, "
                             rf"got "):
        parse_config(text)


def refusing_config(section: str, key: str, value: str) -> str:
    """The shipped config with ``key`` set to ``value`` in ``section``; a
    scenario section is added after the shipped ones."""
    text = default_config_text()
    if section.startswith("scenario:"):
        return (f"{text}\n[{section}]\npolicy = base ; paper\n"
                f"{key} = {value} ; assumed\n")
    return "".join(
        f"{key} = {value} ; assumed\n" if line.startswith(f"{key} =")
        else line for line in text.splitlines(True))


# (section, key, value, what the parse or the record check says about the
# value)
REFUSED_VALUES = [
    ("parameters", "electricity_consumption_slope", "nan",
     "electricity_consumption_slope must be finite, got nan"),
    ("parameters", "social_tolerance_x_50", "-1",
     "social_tolerance_x_50 must be positive and finite, got -1.0"),
    ("scenario:a", "social_tolerance_x_50", "-1",
     "social_tolerance_x_50 must be positive and finite, got -1.0"),
    ("clock", "dt", "-1", "dt must be positive, got -1.0"),
    ("scenario:a", "tax_floor", "-1",
     "tax_floor must be non-negative and finite, got -1.0"),
    ("parameters", "om_cost", "", "empty value"),
    # the knob of another policy than the section's
    ("scenario:a", "fit_price_delta", "3.4",
     "fit_price_delta is a knob of p1_higher_fit, not of base"),
]


@pytest.mark.parametrize("section, key, value, message", REFUSED_VALUES)
def test_a_refused_value_names_its_section_and_key(section, key, value,
                                                    message):
    with pytest.raises(ConfigurationError) as exc:
        parse_config(refusing_config(section, key, value))
    assert str(exc.value) == f"[{section}] {key}: {message}"


@pytest.mark.parametrize("section, key, value, message", REFUSED_VALUES)
def test_run_refuses_a_config_with_a_refused_value(section, key, value,
                                                   message, tmp_path,
                                                   capsys):
    # a bad scenario fails every command, not only the ones that run it
    config = tmp_path / "refused.cfg"
    config.write_text(refusing_config(section, key, value), encoding="utf-8")
    assert main(["run", "--config", str(config), "--scenario", "base"]) == 2
    assert capsys.readouterr() == (
        "", f"error: [{section}] {key}: {message}\n")


CAP = "need tax_floor <= tax_cap <= 0.1, got floor="
NAME = "scenario name must be non-empty letters, digits, '_', '-' and '.', got "
# (config text, the whole refusal): a refusal that no value makes alone in
# the same words names its section
PLACED_REFUSALS = {
    # the knobs' defaults live in Scenario alone
    "policy section": (MINIMAL + "[policy]\ntax_cap = 0.1 ; assumed\n",
                       "unknown section [policy]; expected one of "
                       "['clock', 'parameters'] or [scenario:NAME]"),
    # every model parameter is in [parameters]
    "effects section": (
        MINIMAL + "[effects]\npenetration_gain = 5.0 ; paper\n",
        "unknown section [effects]; expected one of ['clock', 'parameters'] "
        "or [scenario:NAME]"),
    # of several refused parameters, the first by bound kind, then by
    # declaration order, is named
    "parameters economics and curve part": (
        MINIMAL + "[parameters]\nom_cost = -1 ; assumed\n"
        "investor_trust_p = 0 ; assumed\n",
        "[parameters] investor_trust_p: investor_trust_p must be positive "
        "and finite, got 0.0"),
    "scenario policy": (MINIMAL + "[scenario:a]\npolicy = p9 ; paper\n",
                        f"[scenario:a] policy: policy must be one of "
                        f"{POLICY_IDS}, got 'p9'"),
    # the parameter overrides are refused before the policy
    "scenario policy and override": (
        MINIMAL + "[scenario:a]\npolicy = p9 ; paper\n"
        "om_cost = -1 ; assumed\n",
        "[scenario:a] om_cost: om_cost must be non-negative and finite, "
        "got -1.0"),
    # a knob laid alone over the scenario with its policy; of two, the
    # one its record checks first
    "scenario knob of another policy": (
        MINIMAL + "[scenario:a]\npolicy = p1_higher_fit ; paper\n"
        "fit_price_delta = 3.4 ; assumed\ntax_cap = 0.01 ; assumed\n",
        "[scenario:a] tax_cap: tax_cap is a knob of p3_budget_adjusted_tax, "
        "not of p1_higher_fit"),
    "scenario knobs of other policies": (
        MINIMAL + "[scenario:a]\npolicy = p1_higher_fit ; paper\n"
        "fit_price_delta = 3.4 ; assumed\ntax_cap = 0.01 ; assumed\n"
        "fit_controller_gain = 1.0 ; assumed\n",
        "[scenario:a] fit_controller_gain: fit_controller_gain is a knob "
        "of p2_budget_adjusted_fit, not of p1_higher_fit"),
    "scenario knob": (MINIMAL + "[scenario:a]\npolicy = base ; paper\n"
                      "tax_cap = 0.5 ; assumed\n",
                      f"[scenario:a] tax_cap: {CAP}0.0, cap=0.5"),
    "scenario pair": (MINIMAL + "[scenario:a]\npolicy = base ; paper\n"
                      "tax_floor = 0.05 ; assumed\n"
                      "tax_cap = 0.02 ; assumed\n",
                      f"[scenario:a] {CAP}0.05, cap=0.02"),
    # a curve key, then an economic one: the one record refuses positive
    # fields before non-negative ones, whatever the file's order
    "scenario effect and economics": (
        MINIMAL + "[scenario:a]\npolicy = base ; paper\n"
        "penetration_gain = -1 ; assumed\ncapacity_factor = 0 ; assumed\n",
        "[scenario:a] capacity_factor: capacity_factor must be positive and "
        "finite, got 0.0"),
    # a sigmoid part is a positive field like any other: of two, the one
    # declared first is refused
    "scenario economics and effect part": (
        MINIMAL + "[scenario:a]\npolicy = base ; paper\n"
        "capacity_factor = 0 ; assumed\ninvestor_trust_p = 0 ; assumed\n",
        "[scenario:a] capacity_factor: capacity_factor must be positive and "
        "finite, got 0.0"),
    # a scenario's name becomes a CSV and SVG field and a file name
    "scenario name markup": (
        MINIMAL + "[scenario:a,<b>&c]\npolicy = base ; paper\n",
        f"[scenario:a,<b>&c] {NAME}'a,<b>&c'"),
    "scenario name path": (
        MINIMAL + "[scenario:../escaped]\npolicy = base ; paper\n",
        f"[scenario:../escaped] {NAME}'../escaped'"),
    "scenario name space": (
        MINIMAL + "[scenario:a b]\npolicy = base ; paper\n",
        f"[scenario:a b] {NAME}'a b'"),
    "clock pair": ("[clock]\nend_year = 2035.25 ; paper\n"
                   "dt = 0.5 ; assumed\n",
                   "[clock] horizon of 20.25 years is not a whole number of "
                   "steps at dt=0.5"),
    "clock years": ("[clock]\nstart_year = 2040 ; assumed\n"
                    "end_year = 2030 ; assumed\n",
                    "[clock] end_year must exceed start_year, got "
                    "[2040.0, 2030.0]"),
}


@pytest.mark.parametrize("text, message", PLACED_REFUSALS.values(),
                         ids=PLACED_REFUSALS)
def test_a_refusal_names_its_place(text, message, tmp_path, capsys):
    with pytest.raises(ConfigurationError) as exc:
        parse_config(text)
    assert str(exc.value) == message
    config = tmp_path / "refused.cfg"
    config.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


PACKAGED_LINES = default_config_text().splitlines(True)


def fallback_lines() -> list[tuple[int, str, str]]:
    """(line index, section, key) of every clock key and parameter of the
    packaged file, in file order."""
    found, section = [], None
    for index, line in enumerate(PACKAGED_LINES):
        if line.startswith("["):
            section = line.strip()[1:-1]
        elif section in ("clock", "parameters") and " = " in line:
            found.append((index, section, line.split(" = ")[0]))
    return found


FALLBACK_LINES = fallback_lines()


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(FALLBACK_LINES)))
@example(set(FALLBACK_LINES))
def test_a_partial_file_is_laid_over_the_packaged_one(dropped):
    packaged = load_default_config()
    gone = {index for index, _, _ in dropped}
    doc = parse_config("".join(line for index, line
                               in enumerate(PACKAGED_LINES)
                               if index not in gone))
    assert doc.clock == packaged.clock
    assert doc.params == packaged.params
    assert doc.scenarios == packaged.scenarios
    assert doc.log == tuple(
        f"{section}.{key} defaulted to "
        f"{packaged.entries[section][key].value!r}"
        for _, section, key in sorted(dropped))


@pytest.mark.parametrize("text", [
    MINIMAL,
    "[clock]\ndt = -1 ; assumed\n",
    "[parameters]\nrejection_fraction = 1.5 ; assumed\n",
])
def test_one_parse_reads_the_packaged_file_once(text, monkeypatch):
    reads = []

    def counted():
        reads.append(1)
        return "".join(PACKAGED_LINES)

    monkeypatch.setattr("fitsim.config.default_config_text", counted)
    with contextlib.suppress(ConfigurationError):  # two of them are refused
        parse_config(text)
    assert len(reads) == 1


def test_duplicate_section_is_a_syntax_error():
    with pytest.raises(ConfigurationError, match="config syntax error"):
        parse_config("[clock]\ndt = 0.25 ; assumed\n[clock]\ndt = 0.5 ; assumed\n")


def test_parameter_overrides_reach_the_model():
    text = ("[parameters]\ninitial_fit_price = 25.0 ; assumed\n"
            "electricity_consumption_slope = 4e6 ; assumed\n")
    params = parse_config(text).params
    assert params.initial_fit_price == 25.0
    assert params.electricity_consumption_slope == 4e6


def test_scenario_requires_a_policy():
    with pytest.raises(ConfigurationError, match="must declare a policy"):
        parse_config("[scenario:x]\nfit_price_delta = 1.0 ; assumed\n")
    with pytest.raises(ConfigurationError, match="policy must be one of"):
        parse_config("[scenario:x]\npolicy = p9_wishful ; assumed\n")


def test_scenario_parameter_overrides_are_kept_apart_from_knobs():
    text = """\
[scenario:levy]
policy = p3_budget_adjusted_tax ; assumed
res_tax_base = 0.03 ; assumed
tax_controller_gain = 1e-9 ; assumed
"""
    scenario = parse_config(text).scenario("levy")
    assert scenario.overrides == {"res_tax_base": 0.03}
    assert scenario.tax_controller_gain == 1e-9


def test_unknown_scenario_lookup_raises():
    doc = parse_config(MINIMAL)
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        doc.scenario("nope")


def test_shipped_config_defines_the_canonical_suite(default_doc):
    assert default_doc.scenario_names == CANONICAL_NAMES
    assert default_doc.clock.dt == 0.25
    p3 = default_doc.scenario("p3_budget_adjusted_tax")
    assert p3.overrides["res_tax_base"] == pytest.approx(0.03)
    assert p3.tax_cap == pytest.approx(0.06)


def test_shipped_config_defines_every_parameter_and_knob(default_doc):
    # the packaged file is where a partial config's values come from, so
    # it must define all of them itself
    defined = {key for section in ("clock", "parameters")
               for key in default_doc.entries[section]}
    assert defined == set(PARAMETER_NAMES) | set(SimulationClock._fields)
    # a knob that no scenario sets is Scenario's own default
    assert default_doc.scenario("base") == Scenario("base")
    assert not any("defaulted" in line for line in default_doc.log)


@pytest.mark.parametrize("key", ["om_cost", "investor_trust_p",
                                 "electricity_consumption_reference_year",
                                 "dt"])
def test_a_packaged_config_missing_a_parameter_names_it(monkeypatch, key):
    text = "".join(line for line in default_config_text().splitlines(True)
                   if not line.startswith(f"{key} = "))
    monkeypatch.setattr("fitsim.config.default_config_text", lambda: text)
    with pytest.raises(ConfigurationError, match=key):
        load_default_config()
    # a partial config falls back on the same file and fails the same way
    with pytest.raises(ConfigurationError, match=key):
        parse_config(MINIMAL)


def test_shipped_config_marks_every_value(default_doc):
    for section, section_entries in default_doc.entries.items():
        for key, entry in section_entries.items():
            assert entry.source in ("paper", "derived", "assumed"), (
                section, key)


def test_load_config_reads_a_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL, encoding="utf-8")
    assert load_config(path).clock.dt == 0.25


def test_default_config_text_is_the_packaged_file():
    text = default_config_text()
    assert "[scenario:base]" in text
    assert "; paper" in text and "; assumed" in text
