"""Seeded calibration search over the ``assumed`` values of the shipped config.

    python tools/calibrate.py [--write]

The search moves nine economic values (``SEARCH_BOX``, marked ``assumed``
in ``src/fitsim/data/default.cfg``) jointly with the three scenario knobs
of p1, p2 and p3. Every ``paper`` and ``derived`` value stays as it is, and
so do ``initial_fit_price`` and ``fit_price_floor`` (the tariff oracle of
acceptance criterion 01 reads them) and p3's levy and cap.

A candidate counts when every structural demand the repository makes of the
shipped calibration holds: the findings of acceptance criteria 05 to 09
(``fitsim.validation``), the five ``qualitative_checks`` on the shipped
clock and at dt 0.1 and 1/64, both computed sensitivity findings, base debt
emerging after the 2021 target, no clamp event in the base run, no scenario
at the penetration clamp, and no boom past that clamp in 16 seeded draws
from the +-20% box around the ``assumed`` model parameters nor anywhere up
to ``CORNER`` of the way from the candidate to that box's growth corner.
No demand reads the wall clock.

Each demand also has a dimensionless margin, positive when it holds, that
tells how far a candidate is from failing: each finding's own (the smallest
of ``qualitative_checks`` over the three clocks), a timing window's by
``margin_inside``, and for booms how much further than ``CORNER`` towards
the growth corner the base run stays calm, over the rest of the way (booms
are a cliff: a demand only that ``CORNER`` stays calm lets the search
settle at its edge). The bounds are ``fitsim.validation.ACCEPTANCE_BOUNDS``.

Demands that are only true or false, and each criterion's verdict, are
gates. Hill climbs of shrinking Gaussian steps in the box's unit
coordinates look for the largest smallest margin: ``CLIMBS`` from
``ANCHOR``, the hand calibration this search replaced, and one from the
best of ``SAMPLES`` seeded points of the whole box. Among the candidates
that count, the best wins once ``NEIGHBOURHOOD_DRAWS`` seeded runs of the
+-20% box finish with finite, non-negative stocks below the penetration
clamp. Every value is rounded to three significant digits before it is
evaluated, so what ``--write`` puts into the config is exactly what was
scored. Every draw comes from ``SEED``, so every run prints the same values
and margins.

The config's current values, the incumbent, are scored first by the same
margins and gates and printed beside the winner's. ``--write`` replaces
them only with a winner whose smallest margin is strictly larger
(``replaces``), so a stricter demand cannot make the search write a worse
calibration than the one it finds in the config.
"""

from __future__ import annotations

import argparse
import logging
import math
import random
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fitsim.config import load_default_config, parse_config  # noqa: E402
from fitsim.engine import ConfigurationError, SimulationError  # noqa: E402
from fitsim.model import (  # noqa: E402
    FitModel,
    apply_overrides,
    get_parameter,
)
from fitsim.policies import (  # noqa: E402
    qualitative_checks,
    run_scenario_suite,
)
from fitsim.validation import (  # noqa: E402
    ACCEPTANCE_BOUNDS as BOUNDS,
    behavior_signature,
    calibration_story,
    dry_fund_margin,
    extreme_condition_suite,
    margin_above,
    margin_below,
    margin_inside,
    policy_tendencies,
    sensitivity_suite,
    step_halving,
)

CONFIG_PATH = ROOT / "src" / "fitsim" / "data" / "default.cfg"

# key -> (config section, low, high, log scale)
SEARCH_BOX = {
    "initial_budget": ("parameters", 5e7, 1e9, True),
    "initial_capital_cost": ("parameters", 5e4, 4e5, True),
    "learning_exponent": ("parameters", 0.05, 0.4, False),
    "om_cost": ("parameters", 0.1, 5.0, True),
    "rejection_fraction": ("parameters", 0.1, 0.8, False),
    "initial_annual_requests": ("parameters", 100.0, 1000.0, True),
    "res_tax_base": ("parameters", 2e-4, 5e-3, True),
    "electricity_consumption_intercept": ("trends", 2e6, 2e8, True),
    "electricity_consumption_slope": ("trends", 1e3, 1e7, True),
    "fit_price_delta": ("scenario:p1_higher_fit", 0.5, 8.0, True),
    "fit_controller_gain": ("scenario:p2_budget_adjusted_fit",
                            1e-9, 1e-6, True),
    "tax_controller_gain": ("scenario:p3_budget_adjusted_tax",
                            1e-11, 1e-8, True),
}
# knob -> the scenario whose policy it sets
KNOBS = {key: section[len("scenario:"):]
         for key, (section, *_) in SEARCH_BOX.items()
         if section.startswith("scenario:")}
KEYS = tuple(SEARCH_BOX)

SHIPPED = load_default_config().clock
# the halved step of criterion 09
HALVED = SHIPPED._replace(dt=SHIPPED.dt / 2)
TENTH = SHIPPED._replace(dt=0.1)
FINE = SHIPPED._replace(dt=1.0 / 64.0)
# the paper's funding crisis comes after the 2021 target; qualitative_checks
# grants three years of timing slack around that reading, so no later
# than 2024
DEBT_WINDOW = (2021.0, 2024.0)

NEIGHBOURHOOD = 0.2          # the benchmark sweep's +-20% box
NEIGHBOURHOOD_DRAWS = 1000  # checked on the winner
NEIGHBOURHOOD_PROBES = 16   # the same draws scored for every candidate
SIGNIFICANT_DIGITS = 3
# the corner of the +-20% box that favours growth in the base run: a
# higher tariff and floor, cheaper projects, faster learning, more approved
# requests, a richer fund. Booms are likeliest towards it; the corner itself
# booms even under ANCHOR, which stays calm 0.93 of the way there. How far
# a candidate must stay calm trades against every other margin: demanding
# 0.75 of the way, every candidate that counted stopped at 0.75-0.78 and
# boomed in 2 of 1000 draws of the box; demanding 0.85, none counted; 0.78
# gives a winner that stays calm in the 1000 draws, with a larger smallest
# margin than 0.8 gives
GROWTH_DIRECTION = {
    "initial_fit_price": 1, "fit_price_floor": 1, "om_cost": -1,
    "initial_capital_cost": -1, "learning_exponent": 1,
    "rejection_fraction": -1, "initial_annual_requests": 1,
    "initial_budget": 1, "res_tax_base": 1,
    "electricity_consumption_intercept": 1,
    "electricity_consumption_slope": 1,
}
CORNER = 0.78
BISECTIONS = 7  # resolution of the calm fraction of the way: 1/128
# the search: CLIMBS climbs from ANCHOR, then one from the best of SAMPLES
# seeded points, each of STEPS Gaussian steps whose size in unit box
# coordinates shrinks geometrically from STEP_FIRST to STEP_LAST
SEED, CLIMBS, SAMPLES, STEPS = 2026, 4, 500, 1200
STEP_FIRST, STEP_LAST = 0.03, 0.0015

# the hand calibration this search replaced; the first climb starts here
ANCHOR = {
    "initial_budget": 1.8e8,
    "initial_capital_cost": 1.4e5,
    "learning_exponent": 0.15,
    "om_cost": 2.5,
    "rejection_fraction": 0.5,
    "initial_annual_requests": 400.0,
    "res_tax_base": 0.001,
    "electricity_consumption_intercept": 1.0e7,
    "electricity_consumption_slope": 3.0e6,
    "fit_price_delta": 4.0,
    "fit_controller_gain": 2e-7,
    "tax_controller_gain": 1e-9,
}


def _emergence(run, window: tuple[float, float]) -> float:
    """Margin of debt emerging inside ``window``."""
    year = behavior_signature(run.times, run["suna_debt"]).first_positive_year
    return (dry_fund_margin(run["budget"]) if year is None
            else margin_inside(year, *window))


def _peak_share(run) -> float:
    """The largest share of generation capacity installed in ``run``; above
    one, the run grew past the penetration clamp."""
    return float(np.max(np.asarray(run["installed_capacity"])
                        / run["total_generation_capacity"]))


def _least(margins: dict[str, float], name: str, value: float) -> None:
    """Keep the smallest margin of ``name`` over the clocks."""
    margins[name] = min(margins.get(name, value), value)


class Calibration:
    """Scores candidate values against the shipped configuration."""

    def __init__(self):
        self.doc = load_default_config()
        # what the benchmark sweep perturbs: model parameters marked
        # assumed
        self.assumed = self.doc.assumed_keys

    def incumbent(self) -> dict[str, float]:
        """The config's current values of the searched keys."""
        return {key: getattr(self.doc.scenario(KNOBS[key]).policy, key)
                if key in KNOBS else get_parameter(self.doc.params, key)
                for key in KEYS}

    # --- building runs ---

    def params(self, values: dict[str, float]):
        return apply_overrides(self.doc.params, {
            key: value for key, value in values.items()
            if key not in KNOBS})

    def scenarios(self, values: dict[str, float]):
        scenarios = []
        for scenario in self.doc.scenarios:
            policy = scenario.policy
            for knob, name in KNOBS.items():
                if scenario.name == name:
                    policy = policy._replace(**{knob: values[knob]})
            scenarios.append(scenario._replace(policy=policy))
        return scenarios

    # --- margins ---

    def _qualitative(self, report, margins, gates, suffix):
        findings = qualitative_checks(report)
        for finding in findings:
            _least(margins, finding.name, finding.margin)
        _least(margins, "base_debt_emerges_2021_to_2024",
               _emergence(report.runs["base"], DEBT_WINDOW))
        for name, run in report.runs.items():
            gates[f"no_penetration_clamp_{name}{suffix}"] = (
                _peak_share(run) <= 1.0)
        gates[f"qualitative_checks{suffix}"] = all(
            finding.passed for finding in findings)

    def evaluate(self, values: dict[str, float], threshold: float = 0.0):
        """Margins and gates of one candidate.

        The finer grids and the neighbourhood probes run only while every
        margin so far exceeds ``threshold``; a candidate cut short cannot
        beat it.
        """
        margins: dict[str, float] = {}
        gates: dict[str, bool] = {}
        params = self.params(values)
        report = run_scenario_suite(params, self.scenarios(values), SHIPPED)
        self._qualitative(report, margins, gates, "")
        base = report.runs["base"]
        gates["base_unclamped"] = base.clamp_events == ()
        criteria = {"05": calibration_story(base),
                    "06": policy_tendencies(report.runs),
                    "07": extreme_condition_suite(params, SHIPPED),
                    "08": sensitivity_suite(params, clock=SHIPPED),
                    "09": step_halving(base,
                                       FitModel(params).simulate(HALVED))}
        for findings in criteria.values():
            for finding in findings:
                margins[finding.name] = finding.margin
        # the sensitivity suite reads the base run's take-off only to tell a
        # change of regime, not as a demand
        capacity = base["installed_capacity"]
        margins["base_takes_off"] = margin_above(
            max(capacity), BOUNDS["base_take_off"] * capacity[0])
        margins["calm_towards_growth_corner"] = (
            (self.calm_fraction(params) - CORNER) / (1.0 - CORNER))

        # the finer grids, cheaper first, while the candidate can still win
        for suffix, clock in (("_dt_0.1", TENTH), ("_dt_1/64", FINE)):
            if min(margins.values()) <= threshold or not all(gates.values()):
                gates["all_checks_run"] = False
                return margins, gates
            report = run_scenario_suite(params, self.scenarios(values), clock)
            self._qualitative(report, margins, gates, suffix)
        gates["all_checks_run"] = True
        for number, findings in criteria.items():
            gates[f"criterion_{number}"] = all(
                finding.passed for finding in findings)
        gates["sensitivity_findings_computed"] = [
            finding.name for finding in criteria["08"]] == [
            "sensitivity_installed_capacity", "sensitivity_suna_debt"]
        problems, peak = self.neighbourhood(values, 0, NEIGHBOURHOOD_PROBES)
        gates["neighbourhood_valid"] = not problems
        margins["neighbourhood_below_penetration_clamp"] = margin_below(
            peak, 1.0)
        return margins, gates

    def calm_fraction(self, params) -> float:
        """How far towards the growth corner of the +-20% box the base run
        stays below the penetration clamp, as a fraction of the way, by
        bisection (a run that overflows counts as a boom)."""
        centre = {key: get_parameter(params, key) for key in self.assumed}

        def calm(fraction: float) -> bool:
            overrides = {key: centre[key] * (
                1.0 + fraction * NEIGHBOURHOOD * GROWTH_DIRECTION.get(key, 0))
                for key in self.assumed}
            try:
                run = FitModel(apply_overrides(params, overrides)).simulate(
                    SHIPPED)
            except SimulationError:
                return False
            return _peak_share(run) <= 1.0

        if calm(1.0):
            return 1.0
        low, high = 0.0, 1.0
        for _ in range(BISECTIONS):
            middle = 0.5 * (low + high)
            low, high = (middle, high) if calm(middle) else (low, middle)
        return low

    def neighbourhood(self, values: dict[str, float], seed: int,
                      draws: int) -> tuple[list[str], float]:
        """Problems of the +-20% box around every ``assumed`` parameter,
        and the largest penetration share that ``draws`` seeded runs of it
        reach (above one means a run grew past the penetration clamp)."""
        params = self.params(values)
        centre = {key: get_parameter(params, key) for key in self.assumed}
        problems = []
        for key in self.assumed:
            for factor in (1.0 - NEIGHBOURHOOD, 1.0 + NEIGHBOURHOOD):
                try:
                    apply_overrides(params, {key: centre[key] * factor})
                except ConfigurationError as exc:
                    problems.append(f"{key} x{factor}: {exc}")
        rng = random.Random(seed)
        sample = [
            {key: centre[key] * (1.0 + rng.uniform(-NEIGHBOURHOOD,
                                                   NEIGHBOURHOOD))
             for key in self.assumed}
            for _ in range(draws)]
        peak = 0.0
        for draw, overrides in enumerate(sample):
            try:
                run = FitModel(apply_overrides(params, overrides)).simulate(
                    SHIPPED)
            except (SimulationError, ValueError) as exc:
                problems.append(f"draw {draw}: {exc}")
                continue
            finals = [run.final(name) for name in run.stock_names]
            if not all(math.isfinite(v) and v >= 0.0 for v in finals):
                problems.append(f"draw {draw}: stocks {finals}")
            peak = max(peak, _peak_share(run))
        return problems, peak


# === the search ===

def _round(value: float) -> float:
    return float(f"{value:.{SIGNIFICANT_DIGITS}g}")


def _to_values(unit: np.ndarray) -> dict[str, float]:
    values = {}
    for key, u in zip(KEYS, unit):
        _, low, high, log = SEARCH_BOX[key]
        if log:
            value = math.exp(math.log(low) + u * (math.log(high)
                                                  - math.log(low)))
        else:
            value = low + u * (high - low)
        values[key] = _round(value)
    return values


def _score(margins, gates) -> float:
    worst = min(margins.values())
    return worst if all(gates.values()) else min(worst, 0.0) - 1.0


def replaces(incumbent: float, winner: float) -> bool:
    """Whether the winner takes the incumbent's place: only with a strictly
    larger score, so a tie keeps what the config holds."""
    return winner > incumbent


def _to_unit(values: dict[str, float]) -> np.ndarray:
    unit = []
    for key in KEYS:
        _, low, high, log = SEARCH_BOX[key]
        if log:
            unit.append((math.log(values[key]) - math.log(low))
                        / (math.log(high) - math.log(low)))
        else:
            unit.append((values[key] - low) / (high - low))
    return np.array(unit)


def search(calibration: Calibration):
    """All candidates that count, best first, as (score, values, margins)."""
    rng = np.random.default_rng(SEED)
    counted = {}
    evaluated = 0

    def visit(unit, threshold):
        nonlocal evaluated
        values = _to_values(unit)
        evaluated += 1
        try:
            margins, gates = calibration.evaluate(values, threshold)
        except SimulationError:  # growth overflowed; the worst possible
            return -math.inf
        score = _score(margins, gates)
        if score > 0.0:
            counted[tuple(values.values())] = (score, values, margins)
        return score

    def climb(unit, score):
        """Keep every Gaussian step that raises the score; the step size
        shrinks geometrically over the climb."""
        for step in range(STEPS):
            sigma = STEP_FIRST * (STEP_LAST / STEP_FIRST) ** (
                step / (STEPS - 1))
            trial = np.clip(unit + rng.normal(0.0, sigma, len(KEYS)),
                            0.0, 1.0)
            trial_score = visit(trial, score)
            if trial_score > score:
                score, unit = trial_score, trial

    anchor = _to_unit(ANCHOR)
    anchor_score = visit(anchor, -math.inf)
    for _ in range(CLIMBS):
        climb(anchor, anchor_score)
    pool = [(visit(unit, 0.0), unit)
            for unit in (rng.random(len(KEYS)) for _ in range(SAMPLES))]
    climb(*max(pool, key=lambda item: item[0])[::-1])
    ranked = sorted(counted.values(), key=lambda item: -item[0])
    return ranked, evaluated


# === writing the chosen values ===

def rewrite_config(text: str, values: dict[str, float]) -> str:
    """Replace the searched values in the config text, notes untouched."""
    targets = {(SEARCH_BOX[key][0], key): value
               for key, value in values.items()}
    section = None
    lines = []
    for line in text.splitlines(keepends=True):
        header = re.match(r"\[(.+)\]\s*$", line)
        if header:
            section = header.group(1)
        match = re.match(r"(\w+) = (\S+) (; .*)", line, re.DOTALL)
        if match and (section, match.group(1)) in targets:
            key, _, rest = match.groups()
            if not rest.startswith("; assumed"):
                raise ConfigurationError(
                    f"[{section}] {key} is not marked assumed")
            line = f"{key} = {repr(targets.pop((section, key)))} {rest}"
        lines.append(line)
    if targets:
        raise ConfigurationError(f"config lacks {sorted(targets)}")
    return "".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="write a winner that beats the config's "
                             "current values into default.cfg")
    args = parser.parse_args(argv)
    # the penetration-clamp warning fires in many sampled runs; the
    # neighbourhood check counts those runs instead
    logging.getLogger("fitsim").setLevel(logging.ERROR)

    calibration = Calibration()
    incumbent = calibration.incumbent()
    incumbent_margins, incumbent_gates = calibration.evaluate(incumbent,
                                                              -math.inf)
    incumbent_score = _score(incumbent_margins, incumbent_gates)
    ranked, evaluated = search(calibration)
    print(f"seed {SEED}: {evaluated} candidates evaluated, "
          f"{len(ranked)} count")
    for score, values, margins in ranked:
        problems, peak = calibration.neighbourhood(values, SEED,
                                                   NEIGHBOURHOOD_DRAWS)
        if problems or peak > 1.0:
            print(f"  rejected (+-20% neighbourhood: "
                  f"{problems[0] if problems else f'penetration {peak:.3g}'}"
                  f"): {values}")
            continue
        break
    else:
        print("no candidate counts and keeps its neighbourhood bounded")
        return 1

    print("chosen values (the config's current values beside them):")
    for key in KEYS:
        print(f"  {key} = {values[key]!r}  (now {incumbent[key]!r})")
    print(f"margins, winner then current (smallest first; the smallest "
          f"are {score:.4f} and {incumbent_score:.4f}):")
    for name, margin in sorted(margins.items(), key=lambda item: item[1]):
        print(f"  {margin:9.4f}  {incumbent_margins.get(name, math.nan):9.4f}"
              f"  {name}")
    failed = [name for name, ok in incumbent_gates.items() if not ok]
    if failed:
        print(f"the current values fail {failed}")
    print(f"+-20% neighbourhood: {NEIGHBOURHOOD_DRAWS} draws, all finite "
          f"and non-negative, peak penetration {peak:.4f}")

    if not replaces(incumbent_score, score):
        print(f"kept the current values: the winner's smallest margin "
              f"{score:.4f} is not larger than {incumbent_score:.4f}")
    elif args.write:
        config = rewrite_config(CONFIG_PATH.read_text(encoding="utf-8"),
                                values)
        parse_config(config)  # refuse to write a config that does not load
        CONFIG_PATH.write_text(config, encoding="utf-8")
        print(f"wrote {CONFIG_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
