"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or look at the
captured output of a failure). The same checks back `rmapath validate`.

Criteria:
  1. LOS recalibration   n = 2.31 +- 0.10, sigma = 5.9 +- 0.6 dB, < 5 s
  2. NLOS recalibration  n = 3.04 +- 0.10, sigma = 8.3 +- 0.6 dB, < 5 s
  3. breakpoint >= 10 km at 9.1 GHz, < 10 km at 9.0 GHz, < 1 ms
  4. NLOS lower-bound patch active at 10 m (89.56 +- 0.05 dB), inactive
     at 1 km (156.86 +- 0.05 dB)
  5. CI fit round-trip: 100 noiseless random cases recover n and sigma
     to 1e-9, < 1 s
  6. bundled campaign recovery: n_los = 2.16 +- 0.25, n_nlos = 2.75 +- 0.35
  7. dual-slope continuity at the breakpoint for 1/2/6 GHz, < 1e-9 dB
  8. link budget ceiling: 190 dB at p_rx = -121.3 dBm, and the 10.8 km
     LOS CI loss (156.85 +- 0.05 dB) stays measurable
  9. simulate is byte-identical for a repeated seed
"""

import itertools

import pytest

from rmapath import Environment, acceptance, reproduce_3gpp_ci
from rmapath.acceptance import ALL_CHECKS


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_acceptance(check):
    result = check()
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_recalibration_fails_when_repeats_disagree(monkeypatch):
    fits = itertools.cycle([reproduce_3gpp_ci(Environment.LOS, seed=1),
                            reproduce_3gpp_ci(Environment.LOS, seed=2)])
    monkeypatch.setattr(acceptance, "reproduce_3gpp_ci", lambda *args, **kwargs: next(fits))
    result = acceptance.check_recalibration_los()
    assert not result.passed
    assert "repeats identical: False" in result.detail


def test_simulate_determinism_fails_when_simulate_fails(monkeypatch):
    monkeypatch.setattr("rmapath.cli.main", lambda argv: 1)
    result = acceptance.check_simulate_determinism()
    assert not result.passed
    assert result.detail == "simulate exited with status 1"
