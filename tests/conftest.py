"""Shared fixtures: the default calibration and cached canonical runs.

Full runs are cheap but not free; anything read-only is session-scoped so
the suite stays fast. Tests that mutate parameters build their own.
"""

import pytest

from fitsim import load_default_config, run_scenario_suite


@pytest.fixture(scope="session")
def default_doc():
    return load_default_config()


@pytest.fixture(scope="session")
def default_params(default_doc):
    return default_doc.params


@pytest.fixture(scope="session")
def canonical_report(default_doc):
    """Base plus the three policies, straight from the shipped config."""
    return run_scenario_suite(default_doc.params, list(default_doc.scenarios),
                              default_doc.clock)


@pytest.fixture(scope="session")
def base_run(canonical_report):
    return canonical_report.runs["base"]
