"""What each of the SLP's safeguards is worth. Each test switches one of
them off through a module-level name of rgmm and reruns the 240-fit grid of
test_slp_safeguard_grid, or the part of it where the safeguard acts, on the
grid's 40 datasets, simulated once. Run with `pytest -m slow`.

A test pins what the fits end with (Sweep) and asserts the direction of the
safeguard's loss against the unablated grid on the same fits: more failed
fits, fewer that end "converged", more outer iterations, inversions or LPs,
or fits that stop at a larger ||theta_hat||_1. A safeguard whose ablation
stops losing fails its test: it no longer earns its code. Some trade: SOC
costs inversions and the shared face costs converged fits, and their pins
hold both sides.

Three ablations run on part of the grid. The restarts and the same-basin
exit act only where the pilot ladder has more than one probe, so they run
on the 120 fits of the ladder (0.5, 1, 2); on the others they change
nothing. The Newton chain and the restoration passes run on ARM, the 40
fits at pipebench's options, the arm whose fits they keep converging.

The module took 170-203 s in two runs on a 2-vCPU host: 12-16 s for the
reference grid and 2-42 s per ablation, the longest where the ablation
makes fits fail.
"""

from typing import NamedTuple

import numpy as np
import pytest

from sparseblp import rgmm
from sparseblp.rgmm import estimate
from test_slp_safeguard_grid import (
    ARM, DESIGNS, INVERSIONS, LAM_SCALES, LP_SOLVES, NORM_RISE, NOT_CONVERGED, OUTER_ITERS, PILOTS,
    _data, _options,
)

pytestmark = pytest.mark.slow

GRID = [(name, seed, scale, pilots) for name in DESIGNS for seed in range(10)
        for scale in LAM_SCALES for pilots in PILOTS]
LADDER = [key for key in GRID if key[3] == PILOTS[1]]
ARM_FITS = [key for key in GRID if key[2:] == ARM]


class Sweep(NamedTuple):
    """What a run of some fits of the grid ended with."""

    failed: int
    converged: int  # fits that end "converged", not "stalled" or "failed"
    outer_iters: int
    inversions: int
    lp_solves: int
    risen: int  # fits whose ||theta_hat||_1 rises by more than NORM_RISE over the reference
    max_rise: float  # the largest of those rises, 0 when there is none


def _norm(res) -> float:
    return float(np.abs(res.theta_hat.stacked()).sum())


def _sweep(fits, reference) -> Sweep:
    rises = [_norm(res) - _norm(reference[key]) for key, res in fits.items()]
    rises = [rise for rise in rises if rise > NORM_RISE]
    return Sweep(
        failed=sum(res.stop == "failed" for res in fits.values()),
        converged=sum(res.stop == "converged" for res in fits.values()),
        outer_iters=sum(res.outer_iters for res in fits.values()),
        inversions=sum(res.stats.inversions for res in fits.values()),
        lp_solves=sum(res.stats.lp_solves for res in fits.values()),
        risen=len(rises),
        max_rise=max(rises, default=0.0),
    )


def _set(**values):
    """Switch a safeguard off by setting rgmm's names to values."""
    def off(monkeypatch):
        for name, value in values.items():
            monkeypatch.setattr(rgmm, name, value)
    return off


def _wrap(name, wrapper):
    """Switch a safeguard off by wrapping rgmm's function name."""
    def off(monkeypatch):
        monkeypatch.setattr(rgmm, name, wrapper(getattr(rgmm, name)))
    return off


def _first_probe_only(pilot_probes):
    return lambda *args: pilot_probes(*args)[:1]


def _no_following_set(eqp_step):
    """A Newton step that names no next one, so the iteration after it
    goes back to its step LP."""
    def step(*args):
        out = eqp_step(*args)
        return out[:2] + (None,) if isinstance(out, tuple) else out
    return step


# name: (how it is switched off, the fits it runs, what they end with, the
# Sweep fields on which it loses)
ABLATIONS = {
    "soc": (_set(_soc_step=lambda *args: None), GRID,
            Sweep(5, 235, 3245, 5169, 5123, 19, 0.388788422070), ("failed",)),
    "acceptance allowance": (_set(ALLOWANCE_GAMMA=0.0, ALLOWANCE_JOINT=0.0), GRID,
                             Sweep(16, 222, 4740, 11219, 11419, 20, 2.94385047516), ("failed", "inversions")),
    # a revisited gamma's recomputed Jacobian becomes the anchor, so its
    # d delta / d gamma predicts the starts of the inversions after it
    "allowance decay": (_set(ALLOWANCE_DECAY=1.0), GRID,
                        Sweep(76, 163, 9260, 16591, 16962, 46, 10.1442890186), ("failed", "inversions")),
    "violation decrease": (_set(VIOLATION_DECREASE=0.0), GRID,
                           Sweep(91, 148, 1605, 11656, 19830, 78, 7.21970932571), ("failed", "inversions")),
    "elastic restoration": (_set(_elastic_step=lambda *args: (None, np.inf)), GRID,
                            Sweep(9, 226, 2951, 5960, 5425, 7, 5.48049863593), ("failed",)),
    "gamma phase": (_set(GAMMA_PHASE_ITERS=0), GRID,
                    Sweep(1, 235, 2302, 5029, 4332, 9, 0.554592934633), ("risen",)),
    "restarts": (_wrap("_pilot_probes", _first_probe_only), LADDER,
                 Sweep(0, 117, 1485, 3189, 2878, 1, 0.132689862446), ("risen",)),
    "shared face": (_set(_shared_face=lambda ws, other: None), GRID,
                    Sweep(1, 236, 3129, 6435, 5902, 0, 0.0), ("outer_iters", "inversions", "lp_solves")),
    "kkt updates": (_set(EQP_UPDATES=0), GRID,
                    Sweep(1, 234, 3113, 6439, 5850, 0, 0.0), ("outer_iters", "inversions", "lp_solves")),
    "same-basin exit": (_set(SAME_BASIN_TOL=-np.inf), LADDER,
                        Sweep(0, 118, 1624, 3520, 3145, 0, 0.0), ("outer_iters", "inversions", "lp_solves")),
    "newton chain": (_wrap("_eqp_step", _no_following_set), ARM_FITS,
                     Sweep(0, 25, 634, 1425, 1131, 12, 1.86551729753e-06), ("converged", "inversions")),
    "restoration passes": (_set(EQP_RESTORE_PASSES=1), ARM_FITS,
                           Sweep(0, 31, 656, 1384, 1205, 9, 9.28757075100e-05), ("converged", "inversions")),
    "stall exit": (_set(STALL_STEPS=np.inf), GRID,
                   Sweep(4, 236, 3271, 6597, 6131, 0, 0.0), ("failed", "inversions")),
}


@pytest.fixture(scope="module")
def datasets():
    return {(name, seed): _data(name, seed) for name in DESIGNS for seed in range(10)}


def _run(datasets, keys):
    fits = {}
    for key in keys:
        data, rule = datasets[key[:2]]
        fits[key] = estimate(data, rule, _options(data, *key[2:]))
    return fits


@pytest.fixture(scope="module")
def reference(datasets):
    """The grid with every safeguard on."""
    return _run(datasets, GRID)


def test_the_reference_is_the_pinned_grid(reference):
    assert _sweep(reference, reference) == (
        sum(stop == "failed" for stop, _ in NOT_CONVERGED.values()),
        len(GRID) - len(NOT_CONVERGED), OUTER_ITERS, INVERSIONS, LP_SOLVES, 0, 0.0,
    )


@pytest.mark.parametrize("name", ABLATIONS)
def test_switching_a_safeguard_off_loses(name, datasets, reference, monkeypatch):
    off, keys, pins, losses = ABLATIONS[name]
    off(monkeypatch)
    got = _sweep(_run(datasets, keys), reference)
    assert got._asdict() == pytest.approx(pins._asdict(), rel=1e-9, abs=1e-12)
    kept = _sweep({key: reference[key] for key in keys}, reference)
    for field in losses:
        if field == "converged":
            assert getattr(got, field) < getattr(kept, field), field
        else:
            assert getattr(got, field) > getattr(kept, field), field
