"""fitsim: a stock-flow simulator of a feed-in-tariff support program.

A small renewable-capacity program is modeled as seven coupled stocks
(capacity, retirements, a support fund, its debt, cumulative production
and payments, and a perceived funding shortfall) driven by investor
economics and social acceptance. On top of the simulator sit a policy
lab with three interventions against the base design and a validation
toolkit with error metrics, a behavior-mode classifier, and stress
suites.
"""

from .engine import (
    ClampEvent,
    ConfigurationError,
    RunResult,
    SimulationClock,
    SimulationError,
    eval_inverted_sigmoid,
    eval_linear_trend,
    lag_indices,
)
from .model import (
    FitModel,
    ModelParameters,
    PARAMETER_NAMES,
    PriceTaxOverrides,
    annuity_factor,
    apply_overrides,
    compute_fit_price,
    compute_roi,
    get_parameter,
)
from .policies import (
    POLICY_IDS,
    ComparisonReport,
    Scenario,
    apply_policy,
    make_policy_fn,
    qualitative_checks,
    run_scenario_suite,
    scenario_model,
)
from .validation import (
    BehaviorSignature,
    ErrorReport,
    Finding,
    GROWTH_PEAK_DECLINE,
    MONOTONE_DECLINE,
    MONOTONE_GROWTH,
    PerturbationSet,
    TABLE_PERTURBATIONS,
    behavior_signature,
    error_metrics,
    extreme_condition_suite,
    sensitivity_suite,
    theil_decomposition,
)
from .config import (
    ConfigDocument,
    ConfigEntry,
    default_config_text,
    load_config,
    load_default_config,
    parse_config,
)
from .output import (
    CHART_VARIABLES,
    emit_comparison_csv,
    emit_run_csv,
    findings_text,
    outcome_table,
    render_chart_svg,
    write_comparison_charts,
    write_plot_data,
)

__version__ = "0.1.0"
