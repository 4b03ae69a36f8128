"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.

A1  RMT null model                A6  new-period detection
A2  lead-lag half-correlation     A7  numerical oracles
A3  characteristic periods        A8  output determinism
A4  noise destruction             A9  IPR analytic suite
A5  resonance
"""
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from lagspec import (
    InjectionSpec,
    LagCorrMatrix,
    compare_spectra,
    SynthConfig,
    default_targets,
    eigendecompose,
    equal_time_corr,
    inject,
    ipr,
    lag_corr,
    normalize,
    power_spectrum,
    returns_from_counts,
    rmt_bounds,
    segment,
    sweep,
    synth_generate,
    trajectory,
)
from lagspec.cli import main as cli_main

from conftest import (
    digest_run_dir,
    dft_power_oracle,
    iid_returns,
    two_sided_power_sum,
)

N = 64
LENGTH = 2048
TAU_MAX = 100
SEEDS = range(10)
BIN = 1.0 / TAU_MAX


def freq_within_one_bin(freq, target):
    return abs(freq - target) <= BIN + 1e-12


@dataclass
class Instance:
    seed: int
    counts: object
    seq_before: object
    spectrum_before: object  # largest-eigenvalue power spectrum
    random_positions: tuple


@pytest.fixture(scope="module")
def battery():
    """Ten seeded synthetic instances shared by A3, A4, A5 and A6."""
    bounds = rmt_bounds(N, LENGTH)
    instances = []
    for seed in SEEDS:
        cfg = SynthConfig(
            n_series=N, length=LENGTH + 1, delta_t=300.0, n_drivers=4,
            driver_periods=(3, 6), coupling=0.9, seed=seed,
        )
        counts = synth_generate(cfg)
        seq = sweep(returns_from_counts(counts), TAU_MAX, delta_t=300.0)
        spectrum = power_spectrum(trajectory(seq, "eigenvalue", N - 1), "mean")
        parts = segment(seq.equal_time, bounds)
        instances.append(Instance(seed, counts, seq, spectrum, parts.random))
    return instances


def power_near(spectrum, period):
    df = spectrum.bin_width
    j = round((1.0 / period) / df)
    lo, hi = max(j - 1, 0), min(j + 1, len(spectrum.power) - 1)
    return float(spectrum.power[lo : hi + 1].max())


def test_a1_rmt_null_model():
    """A1: i.i.d. Gaussian returns stay inside the Marchenko-Pastur band and
    their eigenvectors are delocalized."""
    start = time.monotonic()
    bounds = rmt_bounds(N, LENGTH)
    assert bounds.q == 32.0
    fractions, medians = [], []
    for seed in range(20):
        g = iid_returns(N, LENGTH, seed=seed)
        system = eigendecompose(equal_time_corr(g))
        parts = segment(system, bounds)
        fractions.append(len(parts.random) / N)
        medians.append(float(np.median(system.iprs)))
    elapsed = time.monotonic() - start
    mean_fraction = float(np.mean(fractions))
    assert mean_fraction >= 0.90
    assert all(1.0 / N <= m <= 3.0 / N for m in medians)
    assert elapsed < 10.0
    print(
        f"\nA1 PASS: mean in-band fraction {mean_fraction:.4f} >= 0.90, "
        f"median IPR in [{min(medians):.4f}, {max(medians):.4f}] within "
        f"[1/N, 3/N], {elapsed:.1f}s"
    )


def test_a2_lead_lag_half_correlation():
    """A2: a series copied five steps ahead correlates at one half after
    symmetrization."""
    start = time.monotonic()
    values = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(4096 + 5)
        g = normalize(np.vstack([x[5:], x[:-5]]))
        values.append(lag_corr(g, 5).values[0, 1])
    elapsed = time.monotonic() - start
    mean = float(np.mean(values))
    assert mean == pytest.approx(0.5, abs=0.05)
    assert elapsed < 5.0
    print(f"\nA2 PASS: mean D_ij(5) = {mean:.4f} within 0.5 +- 0.05, {elapsed:.1f}s")


def test_a3_characteristic_periods(battery):
    """A3: the two tallest nonzero-frequency peaks of the largest-eigenvalue
    spectrum sit at 1/3 and 1/6 in at least 8 of 10 seeds."""
    start = time.monotonic()
    hits = 0
    for inst in battery:
        peaks = inst.spectrum_before.peaks[:2]
        if len(peaks) < 2:
            continue
        freqs = sorted(p.frequency for p in peaks)
        if freq_within_one_bin(freqs[0], 1.0 / 6.0) and freq_within_one_bin(
            freqs[1], 1.0 / 3.0
        ):
            hits += 1
    elapsed = time.monotonic() - start
    assert hits >= 8
    assert elapsed < 60.0
    print(f"\nA3 PASS: planted periods on top in {hits}/10 seeds, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def noise_injected(battery):
    after = []
    for inst in battery:
        spec = InjectionSpec(
            kind="noise",
            target_ids=tuple(f"s{i:03d}" for i in range(4)),
            seed=inst.seed,
        )
        seq = sweep(
            returns_from_counts(inject(inst.counts, spec)), TAU_MAX, delta_t=300.0
        )
        after.append(seq)
    return after


def test_a4_noise_destruction(battery, noise_injected):
    """A4: noising the drivers kills both planted peaks while the random
    segment's trajectories keep their variance."""
    ok = 0
    details = []
    for inst, seq_after in zip(battery, noise_injected):
        spec_after = power_spectrum(
            trajectory(seq_after, "eigenvalue", N - 1), "mean"
        )
        drop3 = power_near(inst.spectrum_before, 3.0) / power_near(spec_after, 3.0)
        drop6 = power_near(inst.spectrum_before, 6.0) / power_near(spec_after, 6.0)
        var_before = [
            np.var(trajectory(inst.seq_before, "eigenvalue", p).values)
            for p in inst.random_positions
        ]
        var_after = [
            np.var(trajectory(seq_after, "eigenvalue", p).values)
            for p in inst.random_positions
        ]
        ratio = float(np.median(var_after) / np.median(var_before))
        passed = drop3 >= 5.0 and drop6 >= 5.0 and 1.0 / 3.0 < ratio < 3.0
        ok += passed
        details.append((inst.seed, drop3, drop6, ratio))
    assert ok >= 8, details
    print(
        f"\nA4 PASS: planted-peak power drop >= 5x and random-segment variance "
        f"within 3x in {ok}/10 seeds "
        f"(median drops {np.median([d[1] for d in details]):.0f}x / "
        f"{np.median([d[2] for d in details]):.0f}x)"
    )


def test_a5_resonance(battery):
    """A5: a 3-step periodic injection into four random-segment series
    enhances the 3-step peak and suppresses the 6-step peak."""
    ok = 0
    for inst in battery:
        targets = default_targets(inst.counts, "periodic", seed=inst.seed)
        spec = InjectionSpec(
            kind="periodic", target_ids=targets, period=3 * 300.0,
            modulation_depth=0.5, seed=inst.seed,
        )
        seq_after = sweep(
            returns_from_counts(inject(inst.counts, spec)), TAU_MAX, delta_t=300.0
        )
        spec_after = power_spectrum(
            trajectory(seq_after, "eigenvalue", N - 1), "mean"
        )
        report = compare_spectra(inst.spectrum_before, spec_after, [3.0, 6.0])
        if (
            report.entry(3.0).classification == "enhanced"
            and report.entry(6.0).classification == "suppressed"
        ):
            ok += 1
    assert ok >= 7
    print(f"\nA5 PASS: enhanced@3 and suppressed@6 in {ok}/10 seeds")


def test_a6_new_period_detection(battery):
    """A6: injecting a 4-step period (matching neither planted period)
    raises a detectable peak within one bin of 1/4."""
    inst = battery[0]
    targets = default_targets(inst.counts, "periodic", seed=inst.seed)
    spec = InjectionSpec(
        kind="periodic", target_ids=targets, period=4 * 300.0,
        modulation_depth=0.5, seed=inst.seed,
    )
    seq_after = sweep(
        returns_from_counts(inject(inst.counts, spec)), TAU_MAX, delta_t=300.0
    )
    spectrum = power_spectrum(trajectory(seq_after, "eigenvalue", N - 1), "mean")
    floor = float(np.median(spectrum.power[1:]))
    found = [
        p
        for p in spectrum.peaks
        if freq_within_one_bin(p.frequency, 0.25) and p.prominence >= 5.0 * floor
    ]
    assert found, "no qualifying peak near frequency 1/4"
    print(
        f"\nA6 PASS: new peak at frequency {found[0].frequency:.3f} with "
        f"prominence {found[0].prominence / floor:.0f}x spectrum median"
    )


def test_a7_numerical_oracles(battery):
    """A7: eigen residuals, trace identities, brute-force DFT agreement and
    Parseval's identity at their stated tolerances."""
    # residual and trace identity at every lag of the sweep, on systems
    # solved afresh whose eigenvalues and IPRs equal the sweep's rows exactly
    inst = battery[0]
    g = returns_from_counts(inst.counts)
    worst_resid = 0.0
    worst_trace = 0.0
    for lag in range(inst.seq_before.tau_max + 1):
        d = lag_corr(g, lag)
        system = eigendecompose(d)
        assert np.array_equal(inst.seq_before.eigenvalues[lag], system.eigenvalues)
        assert np.array_equal(inst.seq_before.iprs[lag], system.iprs)
        resid = d.values @ system.eigenvectors - system.eigenvectors * system.eigenvalues
        worst_resid = max(
            worst_resid,
            float(np.max(np.linalg.norm(resid, axis=0)) / np.linalg.norm(d.values)),
        )
        worst_trace = max(
            worst_trace, abs(float(system.eigenvalues.sum()) - d.trace) / N
        )
    assert worst_resid <= 1e-10
    assert worst_trace <= 1e-8

    # random symmetric matrices
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-0.5, 0.5, size=(16, 16))
        sym = (a + a.T) / 2.0
        d = LagCorrMatrix(
            lag=1, n=16, values=np.triu(sym) + np.triu(sym, 1).T,
            effective_length=100,
        )
        system = eigendecompose(d)
        resid = d.values @ system.eigenvectors - system.eigenvectors * system.eigenvalues
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-10 * np.linalg.norm(d.values)

    # power spectrum vs direct O(M^2) DFT, and Parseval
    traj = trajectory(inst.seq_before, "eigenvalue", N - 1)
    spectrum = power_spectrum(traj, "mean")
    detrended = traj.values - traj.values.mean()
    oracle = dft_power_oracle(detrended)
    dft_err = float(np.max(np.abs(spectrum.power - oracle)) / oracle.max())
    assert dft_err <= 1e-9
    total = two_sided_power_sum(spectrum.power, TAU_MAX)
    parseval_err = abs(total - TAU_MAX * float(np.sum(detrended**2))) / (
        TAU_MAX * float(np.sum(detrended**2))
    )
    assert parseval_err <= 1e-6
    print(
        f"\nA7 PASS: residual {worst_resid:.1e} <= 1e-10, trace dev "
        f"{worst_trace:.1e} <= 1e-8, DFT err {dft_err:.1e} <= 1e-9, "
        f"Parseval err {parseval_err:.1e} <= 1e-6"
    )


def test_a8_determinism(tmp_path):
    """A8: identical config and seed give byte-identical outputs, timestamp
    excluded."""
    out = tmp_path / "run"
    args = [
        "analyze", "--synth", "small", "--tau-max", "40", "--seed", "3",
        "--out", str(out),
    ]
    assert cli_main(args) == 0
    first = digest_run_dir(out)
    assert cli_main(args) == 0
    second = digest_run_dir(out)
    assert first == second
    assert len(first) >= 4
    print(f"\nA8 PASS: {len(first)} output files hash-identical across reruns")


def test_a9_ipr_analytic_suite():
    """A9: closed-form IPR values."""
    uniform = np.full(100, 1.0 / math.sqrt(100))
    assert abs(ipr(uniform) - 0.01) <= 1e-12
    basis = np.zeros(100)
    basis[3] = 1.0
    assert ipr(basis) == 1.0
    four = np.zeros(100)
    four[[10, 20, 30, 40]] = 0.5
    assert abs(ipr(four) - 0.25) <= 1e-12
    print(
        "\nA9 PASS: uniform -> 1/N, basis -> 1, four-component -> 1/4, "
        "all within 1e-12"
    )
