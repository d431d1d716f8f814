"""Golden outputs: the CLI's bytes must not change by accident.

``golden/sha256.json`` holds the sha256 of each of the 17 files that
``fitsim compare --out DIR --charts`` writes, at dt 0.25, at dt 0.1 and
on the integration-error grid of dt 0.015625, their combined digest
(over the files' bytes concatenated in sorted name order), the digest
of ``fitsim run --scenario p3_budget_adjusted_tax`` stdout, of
``fitsim validate`` stdout at dt 0.25 and 0.015625 (the stress-suite
findings), and of ``fitsim compare --out -`` stderr at dt 0.25 (the
outcome table and the structural checks). A change that alters any of
these on purpose updates the file in the same change and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fitsim.cli import main

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "sha256.json").read_text(
        encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("dt", sorted(GOLDEN["compare_charts"]))
def test_compare_charts_match_golden_digests(dt, tmp_path, capsys):
    expected = GOLDEN["compare_charts"][dt]
    out = tmp_path / "cmp"
    assert main(["compare", "--dt", dt, "--out", str(out), "--charts"]) == 0
    capsys.readouterr()
    names = sorted(path.name for path in out.iterdir())
    assert names == sorted(expected["files"])
    contents = {name: (out / name).read_bytes() for name in names}
    differing = [name for name in names
                 if _sha256(contents[name]) != expected["files"][name]]
    assert differing == [], f"dt {dt}: files differ from golden: {differing}"
    combined = _sha256(b"".join(contents[name] for name in names))
    assert combined == expected["combined"]


def test_run_stdout_matches_golden_digest(capsys):
    assert main(["run", "--scenario", "p3_budget_adjusted_tax"]) == 0
    out = capsys.readouterr().out
    assert (_sha256(out.encode("utf-8"))
            == GOLDEN["run_p3_budget_adjusted_tax_dt_0.25"])


@pytest.mark.parametrize("dt", sorted(GOLDEN["validate_stdout"]))
def test_validate_stdout_matches_golden_digest(dt, capsys):
    assert main(["validate", "--dt", dt]) == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode("utf-8")) == GOLDEN["validate_stdout"][dt]


def test_compare_stderr_matches_golden_digest(capsys):
    assert main(["compare", "--out", "-"]) == 0
    err = capsys.readouterr().err
    assert _sha256(err.encode("utf-8")) == GOLDEN["compare_stderr_dt_0.25"]
