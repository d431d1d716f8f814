"""Compare the three policy designs against the base tariff.

Spells out the comparison the package exists for: raising the tariff
(p1) accelerates the boom and deepens the crash, throttling the tariff
by the funding shortfall (p2) trades peak speed for solvency, and
letting the levy breathe with the shortfall (p3) keeps the agency out
of debt entirely with the best end-of-horizon capacity.

Writes per-variable plot data under demo_output/ for external plotting.
"""

from fitsim import (
    findings_text,
    load_default_config,
    outcome_table,
    qualitative_checks,
    run_scenario_suite,
    write_plot_data,
)

OUT_DIR = "demo_output"


def main():
    doc = load_default_config()
    report = run_scenario_suite(doc.params, list(doc.scenarios), doc.clock)

    print(outcome_table(report))

    print("\nstructural checks:")
    print(findings_text(qualitative_checks(report)))

    print("\npeak capacity by scenario (MW):")
    for name in report.runs:
        run = report.runs[name]
        capacity = run["installed_capacity"].tolist()
        peak = max(capacity)
        at = run.times[capacity.index(peak)]
        print(f"  {name:<26} {peak:>8.1f} at {at}")

    paths = write_plot_data(report, OUT_DIR)
    print(f"\nwrote {len(paths)} plot-data files under {OUT_DIR}/")


if __name__ == "__main__":
    main()
