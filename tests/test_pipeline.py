import gc
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from zernike_reference import FIT_TOL, zernike_fit_remove_reference

from phasestack import core, pipeline, zernike
from phasestack.cluster import ClusterSet, NoClusterError
from phasestack.core import PhaseStack, circular_aperture, detect_residues, wrap
from phasestack.pipeline import (
    STAGES,
    ComparisonReport,
    PipelineParams,
    compare,
    run_clustered,
    run_conventional,
    snr_from_min_fraction,
)
from phasestack.preprocess import center_pixel, piston_shift, prepare_for_clustering
from phasestack.synth import CONTAMINANT, TrialSpec, make_trial, peaks_surface
from phasestack.unwrap import Aperture, flood_unwrap, unwrap
from phasestack.wphs import read_stack, write_stack
from phasestack.zernike import zernike_fit_remove

ROOT = Path(__file__).resolve().parent.parent


def record_apertures(monkeypatch) -> list:
    """A weak reference to every ``Aperture`` the pipeline builds."""
    made = []

    def recorded(mask):
        aperture = Aperture(mask)
        made.append(weakref.ref(aperture))
        return aperture

    monkeypatch.setattr(pipeline, "Aperture", recorded)
    return made


def family_trial(seed=0, n=16, grid=32, q=2, snr=20.0, jitter=3.0, frac=0.0):
    truth = peaks_surface(grid, 8.0)
    spec = TrialSpec(
        frame_count=n, grid=grid, snr_db=snr, perturbation_count=q,
        contaminant_fraction=frac, tilt_jitter=jitter, seed=seed,
    )
    return make_trial(truth, spec)


class TestPipelineParams:
    def test_defaults(self):
        p = PipelineParams()
        assert p.cut == 0.5
        assert p.min_samples == 2 and p.min_fraction is None
        assert p.pool_levels == 1
        assert p.cluster_weighting == "by-size"
        assert p.classify

    def test_exactly_one_min_rule(self):
        with pytest.raises(ValueError):
            PipelineParams(min_samples=2, min_fraction=0.1)
        with pytest.raises(ValueError):
            PipelineParams(min_samples=None, min_fraction=None)
        PipelineParams(min_samples=None, min_fraction=0.1)  # ok

    def test_resolve_min_samples(self):
        p = PipelineParams(min_samples=None, min_fraction=0.04)
        assert p.resolve_min_samples(100) == 4
        assert p.resolve_min_samples(10) == 1
        assert PipelineParams(min_samples=7).resolve_min_samples(100) == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cut=0.0),
            dict(cut=1.5),
            dict(min_samples=0),
            dict(min_samples=None, min_fraction=1.0),
            dict(pool_levels=-1),
            dict(cluster_weighting="harmonic"),
            dict(wavelength_nm=0.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PipelineParams(**kwargs)


class TestSnrFromMinFraction:
    def test_known_values(self):
        assert snr_from_min_fraction(0.04) == pytest.approx(10 * math.log10(24), abs=1e-12)
        assert snr_from_min_fraction(0.25) == pytest.approx(10 * math.log10(3), abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError):
                snr_from_min_fraction(bad)


class TestRunClustered:
    def test_two_families_found_and_partitioned(self):
        stack, labels = family_trial(seed=3, n=16, q=2, snr=25.0, jitter=3.0)
        params = PipelineParams(cut=0.5, min_samples=2)
        rep = run_clustered(stack, params)
        assert rep.method == "clustered"
        assert sum(rep.chosen_sizes) + sum(rep.abandoned_sizes) == 16
        assert rep.unwrap_call_count == len(rep.chosen_sizes)
        assert rep.frame_count == 16
        assert rep.rmse_rad >= 0.0
        assert rep.rmse_nm == pytest.approx(rep.rmse_rad * 632.8 / (4 * math.pi), abs=1e-9)
        for key in ("preprocess", "classify", "denoise", "unwrap", "fit", "combine"):
            assert key in rep.stage_times_ms

    def test_one_frame_fails_before_pooling(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("prepare_for_clustering called on a one-frame stack")

        monkeypatch.setattr(pipeline, "prepare_for_clustering", never)
        stack, _ = family_trial(n=1)
        with pytest.raises(ValueError, match="need at least 2 frames"):
            run_clustered(stack, PipelineParams())

    def test_classify_beyond_memory_raises_before_pooling(self, monkeypatch):
        """The guard reads the memory figure; nothing is allocated to test it.
        8 frames of 32x32 pool to 16x16: 8 * (8 * 8 + 8 * 16 * 16) bytes."""
        stack, _ = family_trial(n=8)
        need = 8 * (8 * 8 + 8 * 16 * 16)
        pooled = []
        real = pipeline.prepare_for_clustering
        monkeypatch.setattr(pipeline, "prepare_for_clustering",
                            lambda *a, **k: pooled.append(1) or real(*a, **k))
        monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: need - 1)
        with pytest.raises(ValueError, match=f"classifying 8 frames would hold {need} bytes"):
            run_clustered(stack, PipelineParams())
        assert not pooled
        monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: need)
        run_clustered(stack, PipelineParams())
        assert pooled
        run_conventional(stack, PipelineParams())  # classifies nothing
        run_clustered(stack, PipelineParams(classify=False))

    def test_identical_frames_single_cluster(self):
        truth = peaks_surface(32, 6.0)
        frames = np.stack([wrap(truth)] * 5)
        stack = PhaseStack(frames=frames, mask=np.ones((32, 32), dtype=bool))
        rep = run_clustered(stack, PipelineParams(cut=0.5, min_samples=2))
        assert rep.chosen_sizes == [5]
        assert rep.abandoned_sizes == []
        assert rep.unwrap_call_count == 1

    def test_no_classify_skips_clustering(self):
        stack, _ = family_trial(seed=1, n=6, q=1, jitter=0.0)
        rep = run_clustered(stack, PipelineParams(classify=False))
        assert rep.method == "no-classify"
        assert rep.chosen_sizes == [6]
        assert rep.unwrap_call_count == 1
        assert rep.abandoned_frames == []

    def test_no_cluster_error_propagates_with_census(self):
        rng = np.random.default_rng(0)
        frames = wrap(rng.uniform(-math.pi, math.pi, size=(4, 8, 8)))
        stack = PhaseStack(frames=frames, mask=np.ones((8, 8), dtype=bool))
        with pytest.raises(NoClusterError) as err:
            run_clustered(stack, PipelineParams(cut=1e-6, min_samples=2))
        assert err.value.clusters.all_frames == 4

    def test_min_fraction_resolved_against_frame_count(self):
        stack, _ = family_trial(seed=2, n=10, q=1, jitter=0.0, snr=30.0)
        params = PipelineParams(min_samples=None, min_fraction=0.3, cut=0.99)
        rep = run_clustered(stack, params)
        assert all(s >= 3 for s in rep.chosen_sizes)

    def test_single_frame_cannot_classify(self):
        stack, _ = family_trial(seed=0, n=1, q=1)
        with pytest.raises(ValueError):
            run_clustered(stack, PipelineParams())
        rep = run_clustered(stack, PipelineParams(classify=False))
        assert rep.chosen_sizes == [1]

    def test_deterministic_report(self):
        stack, _ = family_trial(seed=4, n=12, q=2)
        params = PipelineParams()
        a = run_clustered(stack, params).to_dict(params, seed=4)
        b = run_clustered(stack, params).to_dict(params, seed=4)
        for d in (a, b):
            d.pop("stage_times_ms")
            d.pop("total_time_ms")
        assert a == b

    def test_report_dict_schema(self):
        stack, _ = family_trial(seed=5, n=8, q=1, jitter=0.0)
        params = PipelineParams(cut=0.99)
        rep = run_clustered(stack, params)
        d = rep.to_dict(params, seed=5)
        assert d["schema_version"] == 1
        assert d["params"]["cut"] == 0.99
        assert "modes_removed" not in d["params"]
        assert d["seed"] == 5
        assert isinstance(d["zernike_fits"], list)
        assert all(f["modes"] == ["piston", "tilt_x", "tilt_y", "power"] for f in d["zernike_fits"])
        assert "surface" not in d
        d2 = rep.to_dict(params, seed=5, with_surface=True)
        assert np.array(d2["surface"]["values"]).shape == (32, 32)


class TestRunConventional:
    def test_unwraps_every_frame(self):
        stack, _ = family_trial(seed=6, n=7, q=1, jitter=0.0)
        rep = run_conventional(stack, PipelineParams())
        assert rep.method == "conventional"
        assert rep.unwrap_call_count == 7
        assert rep.chosen_sizes == [7]
        assert rep.abandoned_sizes == [] and rep.abandoned_frames == []
        assert len(rep.to_dict()["zernike_fits"]) == 7

    def test_recovers_truth_shape_at_high_snr(self):
        truth = peaks_surface(32, 6.0)
        spec = TrialSpec(frame_count=4, grid=32, snr_db=math.inf, tilt_jitter=0.0)
        stack, _ = make_trial(truth, spec)
        rep = run_conventional(stack, PipelineParams())
        # the truth with piston, tilt and power removed, on the same mask
        want, _ = zernike_fit_remove_reference(truth, rep.surface.mask)
        assert np.abs(rep.surface.values - want)[rep.surface.mask].max() < 1e-6


class TestOnePipeline:
    @pytest.mark.parametrize("route, classify", [
        (run_clustered, True), (run_clustered, False), (run_conventional, True),
    ])
    def test_every_route_reports_the_same_stages(self, route, classify):
        stack, _ = family_trial(seed=11, n=6, q=1, jitter=0.0)
        rep = route(stack, PipelineParams(cut=0.99, classify=classify))
        assert list(rep.stage_times_ms) == list(STAGES)

    def test_singleton_partition_is_the_conventional_route(self):
        stack, _ = family_trial(seed=12, n=6, q=2, snr=30.0, jitter=3.0)
        a = run_clustered(stack, PipelineParams(cut=1e-9, min_samples=1))
        b = run_conventional(stack, PipelineParams())
        assert a.chosen_sizes == [1] * 6 and b.chosen_sizes == [6]
        assert a.surface.mask.all()  # every frame reached the full mask
        assert np.array_equal(a.surface.values, b.surface.values)
        assert np.array_equal(a.surface.mask, b.surface.mask)


    def test_one_frame_part_skips_the_circular_mean(self):
        stack, _ = family_trial(seed=14, n=1, q=1)
        params = PipelineParams(classify=False)
        shifted = piston_shift(stack.frames, stack.mask)
        surface = unwrap(shifted[0], stack.mask, seed=center_pixel(stack.shape))
        expected, _ = zernike_fit_remove(surface)
        rep = run_clustered(stack, params)
        assert np.array_equal(rep.surface.mask, expected.mask)
        assert np.array_equal(rep.surface.values, expected.values)
        # and within the fit's stated bound of the lstsq oracle
        oracle, _ = zernike_fit_remove_reference(surface)
        bound = FIT_TOL * (1.0 + np.abs(surface.values[surface.mask]).max())
        assert np.abs(rep.surface.values - oracle.values).max() <= bound

    @pytest.mark.parametrize("route, classify", [(run_conventional, True), (run_clustered, False)])
    def test_walled_off_parts_fit_on_their_reached_mask(self, monkeypatch, fit_builds, route, classify):
        """A part whose flood walls off pixels is fitted on the mask it
        reached, through a fit built for that mask: no lstsq is called,
        each part stays within FIT_TOL of the oracle, the part's aperture's
        fit is built once however many parts reach all of it, and each
        walled-off part's reached mask's once."""
        mask = circular_aperture((48, 48))
        stack, _ = family_trial(seed=8, n=8, grid=48, snr=5.0, jitter=30.0)
        stack = PhaseStack(frames=np.where(mask, stack.frames, 0.0), mask=mask)
        parts = []  # (mask given to unwrap, the surface it returned)
        fitted = []  # (surface given to the fit, its residual)

        def recorded_unwrap(frame, m, **kwargs):
            parts.append((m, unwrap(frame, m, **kwargs)))
            return parts[-1][1]

        def recorded_fit(s, **kwargs):
            residual, fit = zernike_fit_remove(s, **kwargs)
            fitted.append((s, residual))
            return residual, fit

        def no_lstsq(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "lstsq", no_lstsq)
            mp.setattr(pipeline, "unwrap", recorded_unwrap)
            mp.setattr(pipeline, "zernike_fit_remove", recorded_fit)
            rep = route(stack, PipelineParams(classify=classify))
        assert not rep.warnings
        walled = [not np.array_equal(m, s.mask) for m, s in parts]
        assert any(walled)
        for s, residual in fitted:
            want, _ = zernike_fit_remove_reference(s)
            bound = FIT_TOL * (1.0 + np.abs(s.values[s.mask]).max())
            assert np.array_equal(residual.mask, s.mask)
            assert np.abs(residual.values - want.values).max() <= bound
        assert len(fit_builds) == (not all(walled)) + sum(walled)

    @pytest.mark.parametrize("workload", ["cluster-n1000", "conventional-256"])
    def test_perfbench_fits_take_the_moments_path(self, monkeypatch, fit_builds, workload):
        """Every part of both perfbench recipes (seed 0) is fitted through
        the moments path, walled-off parts included."""
        monkeypatch.syspath_prepend(str(ROOT / "tools"))
        import harness

        stack = harness.trial(workload)
        route = run_clustered if harness.WORKLOADS[workload].route == "clustered" else run_conventional
        rep = route(stack, PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04))
        assert rep.fits and fit_builds
        assert all(isinstance(b, zernike._MomentsFit) for b in fit_builds)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_walled_off_parts_in_a_row_keep_the_aperture_factored(self, monkeypatch, fit_builds, seed):
        """Two walled-off parts in a row do not make the aperture's fit
        built again: one build for the aperture per run, plus one per
        walled-off part.  (These stacks made 6 and 8 builds for 5 and 7
        distinct masks when the builds were kept in a two-entry cache keyed
        on the mask.)"""
        mask = circular_aperture((32, 32))
        stack, _ = family_trial(seed, n=8, grid=32, snr=5.0, jitter=30.0)
        stack = PhaseStack(frames=np.where(mask, stack.frames, 0.0), mask=mask)
        reached = []

        def recorded_fit(s, **kwargs):
            reached.append(s.mask)
            return zernike_fit_remove(s, **kwargs)

        monkeypatch.setattr(pipeline, "zernike_fit_remove", recorded_fit)
        rep = run_conventional(stack, PipelineParams())
        assert len(reached) == len(rep.fits) == 8
        walled = sum(not np.array_equal(m, mask) for m in reached)
        assert walled >= 2
        assert len(fit_builds) == 1 + walled

    @pytest.mark.parametrize("route, params, trial", [
        (run_conventional, PipelineParams(), dict(n=8, snr=5.0, jitter=30.0)),
        (run_clustered, PipelineParams(), dict(n=16, snr=10.0, jitter=3.0)),
        (run_clustered, PipelineParams(classify=False), dict(n=8, snr=5.0, jitter=30.0)),
    ])
    def test_no_aperture_outlives_the_run(self, monkeypatch, route, params, trial):
        """Every aperture a run builds is gone once it returns: nothing
        derived from a mask is kept between measurements."""
        made = record_apertures(monkeypatch)
        mask = circular_aperture((32, 32))
        stack, _ = family_trial(seed=0, grid=32, **trial)
        stack = PhaseStack(frames=np.where(mask, stack.frames, 0.0), mask=mask)
        rep = route(stack, params)
        assert rep.fits
        gc.collect()
        assert made
        assert all(ref() is None for ref in made)

    @pytest.mark.parametrize("route, params, trial", [
        (run_conventional, PipelineParams(), dict(n=8, snr=5.0, jitter=30.0)),
        (run_clustered, PipelineParams(classify=False), dict(n=8, snr=5.0, jitter=30.0)),
        (run_clustered, PipelineParams(), dict(n=16, snr=10.0, jitter=3.0)),
        (run_clustered, PipelineParams(cluster_weighting="uniform"), dict(n=16, snr=10.0, jitter=3.0)),
    ])
    def test_combine_matches_the_masked_formula(self, monkeypatch, route, params, trial):
        """The running mean adds each residual and its mask unmasked, which
        gives the bits of adding them through np.where on the residual's
        mask, because the fit leaves the residual at 0.0 off that mask.  On
        the conventional route some parts reach less than the aperture; the
        clustered route's parts have 8, 2 and 2 frames."""
        mask = circular_aperture((48, 48))
        stack, _ = family_trial(seed=8, grid=48, **trial)
        stack = PhaseStack(frames=np.where(mask, stack.frames, 0.0), mask=mask)
        residuals = []

        def recorded_fit(s, **kwargs):
            residual, fit = zernike_fit_remove(s, **kwargs)
            residuals.append(residual)
            return residual, fit

        monkeypatch.setattr(pipeline, "zernike_fit_remove", recorded_fit)
        rep = route(stack, params)
        assert not rep.warnings
        if rep.method == "conventional":
            assert any(not np.array_equal(r.mask, mask) for r in residuals)
            sizes = [1] * len(residuals)
        else:
            assert rep.method == "no-classify" or rep.chosen_sizes == [8, 2, 2]
            assert len(rep.chosen_sizes) == len(residuals)
            sizes = rep.chosen_sizes if params.cluster_weighting == "by-size" else [1] * len(residuals)
        num = np.zeros(mask.shape)
        den = np.zeros(mask.shape)
        for r, w in zip(residuals, sizes):
            assert not r.values[~r.mask].any()
            num += np.where(r.mask, w * r.values, 0.0)
            den += np.where(r.mask, float(w), 0.0)
        want = den > 0
        values = np.where(want, num / np.where(want, den, 1.0), 0.0)
        assert np.array_equal(rep.surface.mask, want)
        assert np.array_equal(rep.surface.values.view(np.int64), values.view(np.int64))


class TestStackHeldOnce:
    """A stack read from WPHS keeps its float32 frames; every route shifts
    the rows it needs, per block or per frame."""

    @pytest.mark.parametrize("route, classify", [(run_clustered, True), (run_clustered, False),
                                                 (run_conventional, True)])
    def test_float32_stack_gives_the_bits_of_its_float64_copy(self, tmp_path, route, classify):
        stack, _ = family_trial(seed=3, n=12, frac=0.2)
        write_stack(stack, tmp_path / "s.wphs")
        read = read_stack(tmp_path / "s.wphs")
        assert read.frames.dtype == np.float32
        copy = PhaseStack(frames=read.frames.astype(np.float64), mask=read.mask)
        params = PipelineParams(classify=classify)
        got, want = route(read, params), route(copy, params)
        assert got.chosen_sizes == want.chosen_sizes
        assert got.abandoned_frames == want.abandoned_frames
        assert got.surface.values.tobytes() == want.surface.values.tobytes()
        assert np.array_equal(got.surface.mask, want.surface.mask)

    def test_clustered_peak_below_one_float64_stack(self, tmp_path):
        """No float64 (N, h, w) copy of the stack is made: N = 200 frames at
        128x128, read from disk, the perfbench cluster recipe."""
        spec = TrialSpec(frame_count=200, grid=128, snr_db=20.0, perturbation_count=2,
                         contaminant_fraction=0.03, tilt_jitter=30.0, seed=0)
        stack, _ = make_trial(peaks_surface(128, 37.82), spec)
        write_stack(stack, tmp_path / "s.wphs")
        stack = read_stack(tmp_path / "s.wphs")
        params = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)
        tracemalloc.start()
        try:
            report = run_clustered(stack, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.unwrap_call_count == len(report.chosen_sizes) >= 1
        assert peak < 8 * stack.frames.size


class TestClassifyMemory:
    """The clustered route holds the pooled stack only until the distances
    exist, and the distance matrix only until the dendrogram exists."""

    def test_clustered_peak_below_pooled_stack_and_two_distance_matrices(self, monkeypatch):
        """N = 400 full 128x128 frames: the pooled stack is 13.1 MB, each
        N x N float64 matrix 1.3 MB.  Slack: 4 MiB, for a block in flight
        (1 MiB of frames, two halves in the denoise) and the distance
        panels' temporaries; one worker thread makes the peak the same on
        every run.  A copy of the pooled stack beside it would add 13.1 MB."""
        monkeypatch.setattr(core, "WORKERS", 1)
        spec = TrialSpec(frame_count=400, grid=128, snr_db=20.0, perturbation_count=2,
                         contaminant_fraction=0.03, tilt_jitter=30.0, seed=0)
        stack, _ = make_trial(peaks_surface(128, 37.82), spec)
        params = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.04)
        pooled_bytes = 8 * len(stack) * 64 * 64
        tracemalloc.start()
        try:
            report = run_clustered(stack, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.unwrap_call_count == 2
        assert peak < pooled_bytes + 2 * 8 * len(stack) ** 2 + 4 * 2**20

    def test_pooled_stack_and_distances_dropped_in_turn(self, monkeypatch):
        """Weak references to the pooled stack and to d: the first is dead
        when agglomerate is called, the second when the denoise starts."""
        held, at_linkage, at_denoise = {}, [], []
        prepare, distances = pipeline.prepare_for_clustering, pipeline.pairwise_distances
        agglomerate, mean_rows = pipeline.agglomerate, pipeline.circular_mean_rows

        def prepare_spy(*args):
            pooled, pooled_mask = prepare(*args)
            held["pooled"] = weakref.ref(pooled)
            return pooled, pooled_mask

        def distances_spy(*args):
            d = distances(*args)
            held["d"] = weakref.ref(d)
            return d

        def agglomerate_spy(d):
            at_linkage.append(held["pooled"]() is not None)
            return agglomerate(d)

        def mean_rows_spy(*args):
            at_denoise.append((held["pooled"]() is not None, held["d"]() is not None))
            return mean_rows(*args)

        monkeypatch.setattr(pipeline, "prepare_for_clustering", prepare_spy)
        monkeypatch.setattr(pipeline, "pairwise_distances", distances_spy)
        monkeypatch.setattr(pipeline, "agglomerate", agglomerate_spy)
        monkeypatch.setattr(pipeline, "circular_mean_rows", mean_rows_spy)
        stack, _ = family_trial(seed=0, n=16)
        run_clustered(stack, PipelineParams())
        assert at_linkage == [False]
        assert at_denoise and set(at_denoise) == {(False, False)}


class TestFailurePolicy:
    def test_cancelled_column_drops_only_that_cluster(self, monkeypatch):
        # frames 0 and 1 differ by pi along column 5, so their circular mean
        # is undefined there and the denoised mask splits in two
        a = wrap(peaks_surface(32, 6.0))
        a2 = a.copy()
        a2[:, 5] = wrap(a[:, 5] + math.pi)
        b = wrap(a + 2.0 * np.arange(32)[None, :])
        frames = np.stack([a, a2, b, b, b])
        stack = PhaseStack(frames=frames, mask=np.ones((32, 32), dtype=bool))
        made = record_apertures(monkeypatch)
        rep = run_clustered(stack, PipelineParams(cut=0.5, min_samples=2))
        gc.collect()
        assert len(made) == 2  # the stack's, and the split part's own
        assert all(ref() is None for ref in made)
        assert rep.chosen_sizes == [3]
        assert rep.unwrap_call_count == 2
        assert len(rep.fits) == 1
        assert any(
            w.startswith("frames [0, 1] dropped:") and "4-connected" in w for w in rep.warnings
        )

    def test_only_value_errors_drop_a_part(self, monkeypatch):
        # the package attribute "unwrap" is the function, not the module
        unwrap_module = sys.modules["phasestack.unwrap"]
        stack, _ = family_trial(seed=13, n=3, q=1, jitter=0.0)

        def fails(exc):
            def flood_unwrap(*args, **kwargs):
                raise exc

            return flood_unwrap

        monkeypatch.setattr(unwrap_module, "flood_unwrap", fails(RuntimeError("bug")))
        with pytest.raises(RuntimeError):
            run_conventional(stack, PipelineParams())
        with pytest.raises(RuntimeError):
            compare([(stack, PipelineParams()), (stack, PipelineParams())])
        monkeypatch.setattr(unwrap_module, "flood_unwrap", fails(ValueError("bad frame")))
        with pytest.raises(ValueError, match="every part was dropped"):
            run_conventional(stack, PipelineParams())


def prepare_one(frame, mask):
    """``prepare_for_clustering`` of a one-frame stack."""
    return prepare_for_clustering(frame[None], mask)


class TestInputContract:
    """What every step promises about its inputs: invalid pixels may hold
    any value, NaN included, and a frame/mask shape mismatch is a
    ValueError naming both shapes."""

    @staticmethod
    def zero_and_garbage_stacks(garbage):
        stack, _ = family_trial(seed=15, n=8, q=2, grid=32, snr=10.0)
        mask = circular_aperture(stack.shape)
        return (
            PhaseStack(frames=np.where(mask, stack.frames, fill), mask=mask)
            for fill in (0.0, garbage)
        )

    @pytest.mark.parametrize("garbage", [np.nan, 1e300, -1e300])
    @pytest.mark.parametrize("route", [run_clustered, run_conventional])
    def test_routes_ignore_invalid_pixel_values(self, route, garbage):
        zeros, dirty = self.zero_and_garbage_stacks(garbage)
        want, got = route(zeros, PipelineParams()), route(dirty, PipelineParams())
        assert got.unwrap_call_count == want.unwrap_call_count and not got.warnings
        assert np.array_equal(got.surface.mask, want.surface.mask)
        assert got.surface.values.tobytes() == want.surface.values.tobytes()

    @pytest.mark.parametrize("garbage", [np.nan, 1e300])
    def test_steps_ignore_invalid_pixel_values(self, garbage):
        zeros, dirty = self.zero_and_garbage_stacks(garbage)
        mask = zeros.mask
        want = piston_shift(zeros.frames, mask)
        assert piston_shift(dirty.frames, mask).tobytes() == want.tobytes()
        for z, d in zip(zeros.frames, dirty.frames):
            assert np.array_equal(detect_residues(d, mask), detect_residues(z, mask))
            a, b = unwrap(d, mask), unwrap(z, mask)
            assert np.array_equal(a.mask, b.mask)
            assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize(
        "step",
        [piston_shift, prepare_one, detect_residues, flood_unwrap, unwrap, zernike_fit_remove],
    )
    def test_shape_mismatch_is_a_value_error(self, step):
        with pytest.raises(ValueError) as info:
            step(np.zeros((8, 10)), np.ones((10, 8), dtype=bool))
        assert "(8, 10)" in str(info.value) and "(10, 8)" in str(info.value)


def trial_stack(trial, aperture):
    stack, _ = family_trial(**trial)
    if aperture:
        mask = circular_aperture(stack.shape)
        stack = PhaseStack(frames=np.where(mask, stack.frames, 0.0), mask=mask)
    return stack


def route_outcome(route, stack, params):
    """The surface bytes, mask and warnings of a route, or its error."""
    try:
        rep = route(stack, params)
    except ValueError as exc:
        return str(exc)
    return rep.surface.values.tobytes(), rep.surface.mask.tobytes(), rep.warnings


class TestRoutesAgree:
    """The clustered route, given the partition another route uses, gives
    that route's surface bit for bit (ROADMAP item 6)."""

    trials = st.builds(
        dict,
        seed=st.integers(0, 2**16),
        n=st.integers(2, 12),
        grid=st.sampled_from([24, 32, 48]),
        snr=st.sampled_from([5.0, 20.0]),
        jitter=st.sampled_from([0.0, 3.0, 20.0]),
        frac=st.sampled_from([0.0, 0.2]),
    )

    @staticmethod
    def clustered_with(stack, partition, params):
        def chosen(dendrogram, cut, min_samples):
            return ClusterSet(partition(len(stack)), [], min_samples, cut)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "select_clusters", chosen)
            return route_outcome(run_clustered, stack, params)

    @settings(max_examples=12)
    @given(trial=trials, aperture=st.booleans())
    def test_singletons_give_the_conventional_surface(self, trial, aperture):
        stack = trial_stack(trial, aperture)
        params = PipelineParams(cut=0.5)
        got = self.clustered_with(stack, lambda n: [[i] for i in range(n)], params)
        assert got == route_outcome(run_conventional, stack, params)

    @settings(max_examples=12)
    @given(trial=trials, aperture=st.booleans())
    def test_one_cluster_gives_the_no_classify_surface(self, trial, aperture):
        stack = trial_stack(trial, aperture)
        params = PipelineParams(cut=0.5)
        got = self.clustered_with(stack, lambda n: [list(range(n))], params)
        want = route_outcome(run_clustered, stack, PipelineParams(cut=0.5, classify=False))
        assert got == want


class TestAgreementWhenClusteringIsMoot:
    def test_single_cluster_route_equals_conventional(self):
        # noise-free single-family stack: both routes see identical frames
        truth = peaks_surface(32, 6.0)
        spec = TrialSpec(frame_count=5, grid=32, snr_db=math.inf, tilt_jitter=0.0)
        stack, _ = make_trial(truth, spec)
        params = PipelineParams(classify=False)
        a = run_clustered(stack, params)
        b = run_conventional(stack, params)
        assert a.rmse_rad == pytest.approx(b.rmse_rad, abs=1e-9)


class TestContaminantRejection:
    def test_aliased_contaminants_abandoned(self):
        stack, labels = family_trial(seed=7, n=20, q=2, snr=20.0, jitter=30.0, frac=0.1)
        params = PipelineParams(cut=0.5, min_samples=None, min_fraction=0.2)
        rep = run_clustered(stack, params)
        bad = set(np.nonzero(labels == CONTAMINANT)[0].tolist())
        assert bad  # spec produced contaminants
        assert bad.issubset(set(rep.abandoned_frames))


class TestCompare:
    def test_identical_trials_zero_spread(self):
        stack, _ = family_trial(seed=8, n=8, q=1, jitter=0.0)
        params = PipelineParams(cut=0.99)
        rep = compare([(stack, params), (stack, params)])
        assert isinstance(rep, ComparisonReport)
        assert rep.trial_count == 2 and rep.success_count == 2
        assert rep.clustered_sd == 0.0 and rep.conventional_sd == 0.0
        assert rep.sd_ratio is None  # 0/0 spread is undefined
        assert rep.time_ratio is not None and rep.time_ratio > 0
        d = rep.to_dict(params, seed=8)
        assert d["success_count"] == 2

    def test_failing_trial_recorded_not_fatal(self):
        good, _ = family_trial(seed=9, n=8, q=1, jitter=0.0)
        rng = np.random.default_rng(1)
        noise = wrap(rng.uniform(-math.pi, math.pi, size=(4, 32, 32)))
        bad = PhaseStack(frames=noise, mask=np.ones((32, 32), dtype=bool))
        params = PipelineParams(cut=1e-6, min_samples=2)
        good_params = PipelineParams(cut=0.99, min_samples=2)
        rep = compare([(good, good_params), (bad, params)])
        assert rep.success_count == 1
        assert len(rep.errors) == 1 and "trial 1" in rep.errors[0]

    def test_needs_two_trials(self):
        stack, _ = family_trial(seed=10, n=4, q=1)
        with pytest.raises(ValueError):
            compare([(stack, PipelineParams())])
