"""Print the response curves that drive the investment decision.

Shows the three inverted-sigmoid effects (levy tolerance, trust under
payment delay, upkeep under payment delay), the annuity factor behind
project ROI, and the learning curve for capital cost.
"""

from fitsim import annuity_factor, eval_inverted_sigmoid, load_default_config
from fitsim.model import compute_capital_cost


def table(title, xs, f, x_label, y_label):
    print(f"\n{title}")
    print(f"{x_label:>12}  {y_label:>10}")
    for x in xs:
        print(f"{x:>12.3f}  {f(x):>10.4f}")


def curve(params, effect):
    """The inverted sigmoid of ``effect``, read from its three parameters."""
    y_max, x_50, p = (getattr(params, f"{effect}_{part}")
                      for part in ("y_max", "x_50", "p"))
    return lambda x: eval_inverted_sigmoid(y_max, x_50, p, x)


def main():
    params = load_default_config().params

    table("Levy tolerance vs renewable tax ($/kWh)",
          [0.0, 0.01, 0.025, 0.05, 0.075, 0.1],
          curve(params, "social_tolerance"), "tax", "tolerance")

    table("Investor trust vs payment delay (years)",
          [0.0, 1.0, 2.5, 5.0, 7.5, 10.0],
          curve(params, "investor_trust"), "delay", "trust")

    table("Upkeep activity vs payment delay (years)",
          [0.0, 1.0, 2.5, 5.0, 7.5, 10.0],
          curve(params, "om_activity"), "delay", "activity")

    table("Annuity factor at 10% interest",
          [1.0, 5.0, 10.0, 20.0, 24.0],
          lambda n: annuity_factor(0.10, n), "years", "factor")

    table("Capital cost vs cumulative build (MW)",
          [120.0, 240.0, 500.0, 1000.0, 2500.0, 5000.0],
          lambda c: compute_capital_cost(params, c) / 1000.0,
          "built", "k$/MW")


if __name__ == "__main__":
    main()
