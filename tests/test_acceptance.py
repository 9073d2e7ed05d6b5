"""Acceptance gate: the full set of shipped behaviour guarantees.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion; each test also prints a [PASS] summary with the measured
numbers when run with ``-s``.

These tests intentionally re-derive expectations through independent
routes (closed-form values, brute-force minimizers, hand-built byte
strings) rather than calling back into the code under test.
"""

import math
import struct
import time

import numpy as np
import pytest
from circular_reference import circular_rms_error

from phasestack.circular import circular_mean_frame, circular_mean_rows
from phasestack.core import detect_residues, residue_count, wrap
from phasestack.pipeline import (
    PipelineParams,
    run_clustered,
    run_conventional,
    snr_from_min_fraction,
)
from phasestack.synth import CONTAMINANT, TrialSpec, add_awgn, make_trial, peaks_surface
from phasestack.unwrap import unwrap
from phasestack.wphs import StackFormatError, read_stack, write_stack
from phasestack.zernike import rmse, zernike_fit_remove

SEEDS_20 = range(20)


@pytest.fixture(scope="module")
def denoise_runs():
    """8-frame 512x512 stacks at 5 dB, denoised two ways, over 20 seeds.

    Shared by the residue-elimination and profile-reconstruction tests.
    """
    truth = peaks_surface(512, 37.82)
    clean = wrap(truth)
    mask = np.ones(truth.shape, dtype=bool)
    mid = truth.shape[0] // 2
    runs = []
    for seed in SEEDS_20:
        t0 = time.perf_counter()
        frames = np.stack(
            [wrap(add_awgn(truth, 5.0, seed=[seed, 0, i])) for i in range(8)]
        )
        circ, _, _ = circular_mean_frame(frames, mask)
        arith = wrap(frames.mean(axis=0))
        counts = {
            "circular": residue_count(detect_residues(circ)),
            "arithmetic": residue_count(detect_residues(arith)),
            "single": residue_count(detect_residues(frames[0])),
        }
        elapsed = time.perf_counter() - t0
        # the kernel the pipeline ships, on the same frames
        rows, _, _ = circular_mean_rows(frames, range(len(frames)), mask)
        counts["rows"] = residue_count(detect_residues(rows))
        runs.append(
            {
                "counts": counts,
                "elapsed": elapsed,
                "circ_row": circ[mid].copy(),
                "arith_row": arith[mid].copy(),
            }
        )
    return {"runs": runs, "clean": clean, "clean_row": clean[mid].copy()}


def test_criterion_01_residue_elimination(denoise_runs):
    clean_count = residue_count(detect_residues(denoise_runs["clean"]))
    assert clean_count == 0

    zero_seeds = 0
    for run in denoise_runs["runs"]:
        assert run["counts"]["arithmetic"] >= 1
        assert run["elapsed"] < 10.0
        if run["counts"]["circular"] == 0:
            zero_seeds += 1
    assert zero_seeds >= 19
    assert all(run["counts"]["rows"] == 0 for run in denoise_runs["runs"])

    worst_time = max(r["elapsed"] for r in denoise_runs["runs"])
    arith_counts = [r["counts"]["arithmetic"] for r in denoise_runs["runs"]]
    print(
        f"\n[PASS] criterion 1: circular mean 0 residues on {zero_seeds}/20 seeds "
        "(circular_mean_rows on 20/20), "
        f"arithmetic mean {min(arith_counts)}..{max(arith_counts)} residues, "
        f"noise-free 0, worst seed time {worst_time:.2f}s"
    )


def test_criterion_02_profile_reconstruction(denoise_runs):
    clean_row = denoise_runs["clean_row"]
    circ_errs, arith_errs = [], []
    for run in denoise_runs["runs"]:
        c = circular_rms_error(run["circ_row"], clean_row)
        a = circular_rms_error(run["arith_row"], clean_row)
        assert c < 0.3
        assert a > c
        circ_errs.append(c)
        arith_errs.append(a)
    print(
        f"\n[PASS] criterion 2: middle-row circular RMS error "
        f"{min(circ_errs):.3f}..{max(circ_errs):.3f} rad (< 0.3), "
        f"arithmetic {min(arith_errs):.3f}..{max(arith_errs):.3f} rad, larger on all 20 seeds"
    )


def test_criterion_03_snr_mapping():
    expected = {0.02: 16.9, 0.03: 15.1, 0.04: 13.8, 0.05: 12.8, 0.06: 11.9}
    got = {}
    for fraction, target in expected.items():
        value = snr_from_min_fraction(fraction)
        assert value == pytest.approx(target, abs=0.05)
        got[fraction] = value
    rendered = ", ".join(f"{f * 100:.0f}%->{v:.2f}dB" for f, v in got.items())
    print(f"\n[PASS] criterion 3: minimum-fraction SNR mapping {rendered} (all within 0.05 dB)")


def test_criterion_04_reduction_property():
    truth = peaks_surface(64, 12.0)
    singleton = PipelineParams(cut=1e-9, min_samples=1)
    conventional = PipelineParams()
    worst = 0.0
    for seed in range(10):
        spec = TrialSpec(
            frame_count=20, grid=64, snr_db=10.0, perturbation_count=2,
            tilt_jitter=1.0, seed=seed,
        )
        stack, _ = make_trial(truth, spec)
        a = run_clustered(stack, singleton)
        b = run_conventional(stack, conventional)
        assert a.chosen_sizes == [1] * 20
        assert a.unwrap_call_count == b.unwrap_call_count == 20
        worst = max(worst, abs(a.rmse_rad - b.rmse_rad))
    assert worst < 1e-6
    print(
        f"\n[PASS] criterion 4: singleton clustering equals the conventional "
        f"baseline, worst RMSE difference {worst:.2e} rad over 10 stacks (< 1e-6)"
    )


def test_criterion_05_unwrap_count_scaling():
    """The clustered route unwraps once per cluster at every N, the baseline
    once per frame, and the unwrap + fit stage's cost follows those counts.

    Each time is the minimum over ``rounds`` runs of a route on one stack;
    every round runs both routes at every N, so a slow spell of the machine
    falls on all of them.  The stage's time is asserted, not the total's:
    the total also holds the stages common to both routes and the
    clustered route's classify, whose O(N^2) cost is not what the unwrap
    count explains.
    """
    truth = peaks_surface(128, 37.82)
    params = PipelineParams(cut=0.55, min_samples=None, min_fraction=0.04)
    frame_counts = (40, 80, 160)
    rounds = 5
    stacks = [
        make_trial(
            truth,
            TrialSpec(frame_count=n, grid=128, snr_db=20.0, perturbation_count=4,
                      tilt_jitter=6.0, seed=0),
        )[0]
        for n in frame_counts
    ]
    reps = {(n, route): [] for n in frame_counts for route in ("c", "v")}
    for _ in range(rounds):
        for n, stack in zip(frame_counts, stacks):
            reps[n, "c"].append(run_clustered(stack, params))
            reps[n, "v"].append(run_conventional(stack, params))

    def stage_ms(report):
        return report.stage_times_ms["unwrap"] + report.stage_times_ms["fit"]

    cluster_counts, ratios, stage_c, stage_v = [], [], [], []
    for n in frame_counts:
        reps_c, reps_v = reps[n, "c"], reps[n, "v"]
        for rep_v in reps_v:
            assert rep_v.unwrap_call_count == n
        for rep_c in reps_c:
            assert rep_c.unwrap_call_count == len(rep_c.chosen_sizes) <= 5
            assert rep_c.unwrap_call_count == reps_c[0].unwrap_call_count
        cluster_counts.append(reps_c[0].unwrap_call_count)
        ratios.append(
            min(r.total_time_ms for r in reps_c) / min(r.total_time_ms for r in reps_v)
        )
        stage_c.append(min(stage_ms(r) for r in reps_c))
        stage_v.append(min(stage_ms(r) for r in reps_v))
    assert len(set(cluster_counts)) == 1  # constant across N
    # The stage's share falls with N: a constant count of unwraps against N.
    stage_ratios = [c / v for c, v in zip(stage_c, stage_v)]
    assert stage_ratios[0] > stage_ratios[1] > stage_ratios[2]
    # Four times the frames: the baseline's stage grows at least twofold
    # (fourfold if linear), the clustered stage less than twofold.
    assert stage_v[2] > 2.0 * stage_v[0]
    assert stage_c[2] < 2.0 * stage_c[0]
    assert ratios[2] < 1.0  # the clustered route is the faster at N = 160
    print(
        f"\n[PASS] criterion 5: clustered unwrap count {cluster_counts[0]} at every "
        f"N in {frame_counts} vs N for the baseline; unwrap + fit ms "
        + ", ".join(f"{c:.1f} vs {v:.1f}" for c, v in zip(stage_c, stage_v))
        + "; stage ratios "
        + " > ".join(f"{r:.3f}" for r in stage_ratios)
        + "; total time ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
    )


def test_criterion_06_repeatability_improvement():
    t_start = time.perf_counter()
    truth = peaks_surface(128, 37.82)
    params = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)
    rms_c, rms_v = [], []
    contaminants = abandoned_hits = 0
    for seed in range(10):
        spec = TrialSpec(
            frame_count=100, grid=128, snr_db=20.0, perturbation_count=2,
            contaminant_fraction=0.03, tilt_jitter=30.0, seed=seed,
        )
        stack, labels = make_trial(truth, spec)
        rep_c = run_clustered(stack, params)
        rep_v = run_conventional(stack, params)
        rms_c.append(rep_c.rmse_rad)
        rms_v.append(rep_v.rmse_rad)
        bad = np.nonzero(labels == CONTAMINANT)[0]
        contaminants += bad.size
        abandoned_hits += sum(1 for i in bad if i in set(rep_c.abandoned_frames))
    sd_c = float(np.std(rms_c, ddof=1))
    sd_v = float(np.std(rms_v, ddof=1))
    elapsed = time.perf_counter() - t_start
    assert sd_c <= sd_v
    assert contaminants == 30  # 3% of 100, 10 trials
    assert abandoned_hits >= 0.9 * contaminants
    assert elapsed < 120.0
    print(
        f"\n[PASS] criterion 6: RMSE SD {sd_c:.6f} (clustered) <= {sd_v:.6f} "
        f"(conventional), {abandoned_hits}/{contaminants} contaminants abandoned, "
        f"{elapsed:.1f}s total"
    )


def test_criterion_07_unwrapper_correctness():
    r, c = np.mgrid[0:256, 0:256]
    cases = {
        "plane-x": 0.9 * c / 10.0,
        "plane-xy": 0.04 * r + 0.07 * c,
        "peaks": peaks_surface(256, 37.82),
    }
    worst_rms = 0.0
    worst_seed_dev = 0.0
    for name, truth in cases.items():
        psi = wrap(truth)
        surf = unwrap(psi)
        assert surf.mask.all()
        dev = surf.values - truth
        rms = float(np.sqrt(np.mean((dev - dev.mean()) ** 2)))
        worst_rms = max(worst_rms, rms)
        assert rms < 1e-9, name

        other = unwrap(psi, seed=(0, 0))
        d2 = surf.values - other.values
        seed_dev = float(np.sqrt(np.mean((d2 - d2.mean()) ** 2)))
        worst_seed_dev = max(worst_seed_dev, seed_dev)
        assert seed_dev < 1e-9, name
    print(
        f"\n[PASS] criterion 7: round-trip RMS deviation {worst_rms:.2e} rad, "
        f"seed-independence deviation {worst_seed_dev:.2e} rad (both < 1e-9)"
    )


def _oracle_circular_mean(samples: np.ndarray) -> float:
    """Brute-force argmin of sum(wrap(theta - mu)^2) over a 1e6-point grid.

    Uses its own wrap arithmetic so the check is independent of core.wrap.
    """
    m = 1_000_000
    best_val = math.inf
    best_mu = 0.0
    chunk = 100_000
    for start in range(0, m, chunk):
        j = np.arange(start, min(start + chunk, m))
        mu = -math.pi + 2.0 * math.pi * (j + 1) / m
        d = samples[None, :] - mu[:, None]
        d = d - 2.0 * math.pi * (d > math.pi) + 2.0 * math.pi * (d <= -math.pi)
        vals = (d * d).sum(axis=1)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_mu = float(mu[k])
    return best_mu


def test_criterion_08_circular_statistics_oracle():
    """The pipeline's denoise kernel, ``circular_mean_rows``, at pixel (0, 0)
    of a (k, 2, 2) stack whose anchor pixel (1, 1) holds 0.0 in every
    member, so that the piston shift leaves the samples as they are."""
    rng = np.random.default_rng(1234)
    mask = np.ones((2, 2), dtype=bool)
    worst = 0.0
    tested = 0
    while tested < 100:
        k = int(rng.integers(5, 51))
        kappa = float(rng.uniform(1e4, 1e5))
        center = float(rng.uniform(-math.pi, math.pi))
        samples = wrap(center + rng.vonmises(0.0, kappa, size=k))
        frames = np.zeros((k, 2, 2))
        frames[:, 0, 0] = samples
        mean, resultant, _ = circular_mean_rows(frames, range(k), mask)
        if resultant[0, 0] <= 0.1:
            continue
        mu = _oracle_circular_mean(samples)
        err = abs(float(wrap(mean[0, 0] - mu)))
        worst = max(worst, err)
        assert err < 2e-5
        tested += 1
    print(
        f"\n[PASS] criterion 8: circular_mean_rows vs brute-force minimizer, worst "
        f"disagreement {worst:.2e} rad over {tested} sample sets (< 2e-5)"
    )


def test_criterion_09_zernike_invariance():
    rng = np.random.default_rng(77)
    n = 48
    base = peaks_surface(n, 5.0) + rng.normal(0.0, 0.3, size=(n, n))
    mask = np.ones((n, n), dtype=bool)
    residual0, _ = zernike_fit_remove(base, mask)
    r0 = rmse(residual0, mask)
    rr, cc = np.mgrid[0:n, 0:n]
    worst = 0.0
    for _ in range(100):
        a, b, c = rng.uniform(-3.0, 3.0, size=3)
        d = rng.uniform(-3.0, 3.0)
        y0, x0 = rng.uniform(0, n, size=2)
        plane = a + b * (cc / n) + c * (rr / n)
        defocus = d * (((cc - x0) / n) ** 2 + ((rr - y0) / n) ** 2)
        residual, _ = zernike_fit_remove(base + plane + defocus, mask)
        worst = max(worst, abs(rmse(residual, mask) - r0))
    assert worst < 1e-9
    print(
        f"\n[PASS] criterion 9: RMSE invariant under added planes/defocus, worst "
        f"change {worst:.2e} rad over 100 cases (< 1e-9)"
    )


def test_criterion_10_format_round_trip(tmp_path):
    truth = peaks_surface(32, 8.0)
    spec = TrialSpec(frame_count=4, grid=32, snr_db=15.0, tilt_jitter=0.5, seed=0)
    stack, _ = make_trial(truth, spec)
    p1 = tmp_path / "a.wphs"
    p2 = tmp_path / "b.wphs"
    write_stack(stack, p1)
    write_stack(read_stack(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    data = p1.read_bytes()
    truncated = tmp_path / "t.wphs"
    truncated.write_bytes(data[:-7])
    with pytest.raises(StackFormatError, match="truncated"):
        read_stack(truncated)

    bad = tmp_path / "m.wphs"
    bad.write_bytes(b"XPHS" + data[4:])
    with pytest.raises(StackFormatError, match="bad magic"):
        read_stack(bad)

    header = struct.unpack_from("<4sBBHIII", data)
    assert header[:4] == (b"WPHS", 1, 0, 0)
    print(
        f"\n[PASS] criterion 10: {len(data)}-byte file round-trips bitwise; "
        f"truncation and bad-magic rejected with offsets"
    )
