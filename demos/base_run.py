"""Run the base tariff design and read the story off the trajectory.

Writes the full trajectory to demo_output/base.csv and prints the
behavior signatures of the key stocks: the fund rises while the program
is small, the boom outruns the levy income, debt appears, trust erodes,
and capacity peaks short of the target before sliding back.
"""

import os

from fitsim import (
    FitModel,
    behavior_signature,
    emit_run_csv,
    load_default_config,
)

OUT_DIR = "demo_output"


def describe(run, variable):
    signature = behavior_signature(run.times, run[variable])
    peak = f", peak {signature.peak_year}" if signature.peak_year else ""
    first = (f", first positive {signature.first_positive_year}"
             if signature.first_positive_year else "")
    print(f"  {variable:<28} {signature.shape}{peak}{first}")


def main():
    doc = load_default_config()
    run = FitModel(doc.params).simulate(doc.clock)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "base.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        emit_run_csv(run, handle)
    print(f"wrote {run.n_records} records to {path}")

    print("\nbehavior signatures:")
    for variable in ("installed_capacity", "budget", "suna_debt",
                     "tendency_to_invest", "delay_in_debt_payment"):
        describe(run, variable)

    print("\nend of horizon:")
    for variable in ("installed_capacity", "penetration_rate", "budget",
                     "suna_debt", "tendency_to_invest"):
        print(f"  {variable:<28} {run.final(variable):.4g}")

    target = doc.params.capacity_target
    peak = max(run["installed_capacity"])
    print(f"\ncapacity peaked at {peak:.0f} MW against a "
          f"{target:.0f} MW goal ({100.0 * peak / target:.0f}%)")


if __name__ == "__main__":
    main()
