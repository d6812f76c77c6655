"""The acceptance bands of criteria 1-4 and 7 at master seeds other than 1.

tests/test_acceptance.py freezes the bands at master seed 1. This module runs
the same cells, 500 trials each, at seeds 2 and 3 against the same bands, so
that a change which shifts the results by a few standard errors fails at more
than one seed instead of passing at seed 1 by luck.
"""

import pytest

from votfield import sweep_1d, sweep_2d

N = 500

# criterion -> (a_target, a_mp, lo, hi) on ch_ms; criterion 1 is the mean VOT
# at 70 +/- 1 ms, which is ch_ms in [-1, 1]
BANDS_1D = {1: (6.0, 0.0, -1.0, 1.0), 2: (6.0, -3.0, 3.5, 6.5),
            3: (6.0, -6.0, 8.0, 12.0), 4: (6.0, -1.5, 1.5, 3.5)}
CORNERS = {(10.0, -6.0): (4.6, 7.6), (5.0, -6.0): (8.9, 11.9),
           (10.0, 5.0): (-9.9, -6.9), (5.0, 5.0): (-26.9, -22.9)}


@pytest.mark.parametrize("seed", [2, 3])
def test_bands_of_criteria_1_to_4_hold_at_other_seeds(seed):
    res = sweep_1d(a_mp_range=(-6.0, 0.0, 1.5), n_trials=N, master_seed=seed)
    for num, (a_t, a_mp, lo, hi) in BANDS_1D.items():
        ch = res.cell(a_t, a_mp).ch_ms
        assert lo <= ch <= hi, f"criterion {num} at seed {seed}: ch_ms {ch:+.3f}"
    assert res.cell(6.0, -6.0).frac_stabilized < 1.0


@pytest.mark.parametrize("seed", [2, 3])
def test_criterion_7_corners_hold_at_other_seeds(seed):
    res = sweep_2d(a_mp_range=(-6.0, 5.0, 11.0), a_target_range=(5.0, 10.0, 5.0),
                   n_trials=N, master_seed=seed)
    for (a_t, a_mp), (lo, hi) in CORNERS.items():
        ch = res.cell(a_t, a_mp).ch_ms
        assert lo <= ch <= hi, f"corner ({a_t:g}, {a_mp:g}) at seed {seed}: {ch:+.3f}"
