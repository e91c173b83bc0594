"""The eight amcast seeds in 200–999 that the chaos oracle flags, not yet fixed.

Each id holds its seed to the documented violation kind under
``xfail(strict=True)``: the test xfails only by raising ``KnownViolation``,
which it does when the seed's violations are exactly that kind.  A seed that
turns green XPASSes, and a seed that violates anything else fails outright —
either way the change has to update this table, EXPERIMENTS.md "Known red
seeds" and the CI step that sweeps 200–999.  Replay one with
``PYTHONPATH=src python -m repro.chaos --seed N``.  The eight calls take
about 2.8 s together on a 2-core x86 host, so they run in tier 1.
"""

import pytest

from repro.chaos import run_scenario

#: seed → the one oracle property it violates
RED_SEEDS = {
    388: "validity",
    424: "agreement",
    565: "agreement",
    773: "agreement",
    886: "agreement",
    914: "agreement",
    951: "validity",
    964: "agreement",
}


class KnownViolation(Exception):
    """The seed violated exactly its documented property."""


@pytest.mark.xfail(strict=True, raises=KnownViolation, reason="known red amcast seed")
@pytest.mark.parametrize("seed, kind", sorted(RED_SEEDS.items()))
def test_known_red_seed(seed, kind, tmp_path):
    result = run_scenario(seed, artifacts_dir=str(tmp_path))
    assert result.family == "amcast"
    kinds = {violation.prop for violation in result.violations}
    if kinds == {kind}:
        raise KnownViolation(f"seed {seed}: {len(result.violations)} {kind} violation(s)")
    assert result.ok, [str(violation) for violation in result.violations]
