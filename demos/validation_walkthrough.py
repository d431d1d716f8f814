"""Walk through the validation toolkit on the shipped calibration.

Three exercises:

1. fit metrics against a small synthetic history (in real use this is
   the observed deployment series), including the Theil split of the
   error into bias, variance, and covariance;
2. extreme conditions: a one-year remuneration window and a large
   inherited debt must each break the program in the expected way;
3. sensitivity: a joint five-parameter perturbation should bend the
   trajectories without changing their qualitative modes.
"""

from fitsim import (
    FitModel,
    error_metrics,
    extreme_condition_suite,
    findings_text,
    load_default_config,
    sensitivity_suite,
)


def main():
    doc = load_default_config()
    run = FitModel(doc.params).simulate(doc.clock)

    # a stand-in history: the simulated series, biased and roughened
    years = [2016.0 + k for k in range(8)]
    simulated = [run.at_year("installed_capacity", year) for year in years]
    history = [1.1 * value + 25.0 * ((k % 3) - 1)
               for k, value in enumerate(simulated)]

    report = error_metrics(simulated, history)
    print("fit against the synthetic history:")
    print(f"  r_squared = {report.r_squared:.4f}")
    print(f"  rmspe     = {report.rmspe:.2f}%")
    print(f"  theil um/us/uc = {report.theil_um:.3f} "
          f"{report.theil_us:.3f} {report.theil_uc:.3f}  (sum "
          f"{report.theil_um + report.theil_us + report.theil_uc:.3f})")

    print("\nextreme conditions:")
    print(findings_text(extreme_condition_suite(doc.params, doc.clock)))

    print("\nsensitivity to the committed perturbation battery:")
    print(findings_text(sensitivity_suite(doc.params, clock=doc.clock)))


if __name__ == "__main__":
    main()
