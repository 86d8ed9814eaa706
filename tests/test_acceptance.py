"""Acceptance gate: every headline behavior at its pinned tolerance.

One test per guarantee, each printing a single pass/fail line (visible
under pytest -s or in failure reports). The checks themselves live in
landaucap.verify so the CLI `verify` command and this gate cannot drift
apart; a failure here prints the measured-vs-expected pairs for exactly
the checks that missed their band.
"""

from landaucap.verify import (
    ball_reduction_checks,
    capacity_disc_checks,
    capacity_scaling_checks,
    dense_offcenter_limit_checks,
    ground_level_ratio_checks,
    level_one_checks,
    minimal_norm_closed_form_checks,
    property_checks,
)


def gate(label, checks):
    failed = [c for c in checks if not c.passed]
    verdict = "FAIL" if failed else "PASS"
    print(f"{verdict} {label} ({len(checks)} checks)")
    detail = "; ".join(
        f"{c.name}: measured {c.measured}, expected {c.expected}" for c in failed)
    assert not failed, f"{label}: {detail}"


def test_offcenter_disc_capacity_within_two_percent():
    # complex-centered disc, Symm solve within 1e-6 of the radius and within its error bound
    gate("capacity on an off-center disc", capacity_disc_checks())


def test_capacity_doubles_under_dilation():
    # unit square vs its 2x dilation: ratio of estimates within 1e-9 of 2
    gate("capacity scaling under dilation", capacity_scaling_checks())


def test_disc_minimal_norms_match_closed_form():
    # M_n = pi r^(2n+2)/(n+1) for r in {0.5, 1, 2}, n <= 40, rel err <= 1e-8
    gate("disc minimal norms vs closed form", minimal_norm_closed_form_checks())


def test_ground_level_spectrum_tracks_minimal_norms():
    # (n! s_{n+1})^{1/n} / ((B0/2) M_n^{1/n}) near 1 and settling by n=30
    gate("ground-level spectrum vs minimal norms", ground_level_ratio_checks())


def test_offcenter_dense_spectrum_approaches_capacity_limit():
    # dense-grid ground-level spectrum of a shifted disc: (n! s_n)^{1/n}
    # within 10% of (B0/2) Cap^2 = 1 at n = 40
    gate("off-center dense spectrum limit", dense_offcenter_limit_checks())


def test_first_level_matrix_and_limit():
    # q=1 compression on the unit disc: entries match the closed form to
    # 1e-8 and (n! s_{n+1})^{1/n} sits within 12% of 1 at n = 40
    gate("first-level matrix and its limit", level_one_checks())


def test_ball_reduction_weight_and_predictions():
    # solid-ball reduction w = 2 sqrt(1-|z|^2): profile exact, norm decay
    # rate within 10% of 1, squared prediction within 20%
    gate("solid-ball reduction", ball_reduction_checks())


def test_invariant_property_suite():
    # panel masses, monotonicity, covariance, interlacing, determinism
    gate("invariant property suite", property_checks())
