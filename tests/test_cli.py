import json

import numpy as np
import pytest

from phasestack.cli import main
from phasestack.core import PhaseStack
from phasestack.wphs import read_report, read_stack, write_stack


def synth(tmp_path, name="trial.wphs", frames=6, grid=32, snr=15.0, seed=0,
          clusters=1, jitter=0.0, frac=0.0, pv=8.0, labels=None):
    out = tmp_path / name
    argv = [
        "synth", "--frames", str(frames), "--grid", str(grid),
        "--snr-db", str(snr), "--clusters", str(clusters),
        "--tilt-jitter", str(jitter), "--contaminant-fraction", str(frac),
        "--pv", str(pv), "--seed", str(seed), "--out", str(out),
    ]
    if labels is not None:
        argv += ["--labels", str(labels)]
    assert main(argv) == 0
    return out


class TestSynthCommand:
    def test_writes_stack_and_labels_sidecar(self, tmp_path, capsys):
        out = synth(tmp_path, frames=5, seed=3)
        assert "wrote" in capsys.readouterr().out
        stack = read_stack(out)
        assert len(stack) == 5
        assert stack.shape == (32, 32)
        sidecar = read_report(tmp_path / "trial.labels.json")
        assert len(sidecar["labels"]) == 5
        assert sidecar["contaminant_label"] == -1
        assert sidecar["trial"]["seed"] == 3

    def test_custom_labels_path(self, tmp_path):
        labels = tmp_path / "mylabels.json"
        synth(tmp_path, labels=labels)
        assert labels.exists()

    def test_byte_deterministic_per_seed(self, tmp_path):
        a = synth(tmp_path, name="a.wphs", seed=11)
        b = synth(tmp_path, name="b.wphs", seed=11)
        c = synth(tmp_path, name="c.wphs", seed=12)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class TestRunCommand:
    def test_report_written_and_summary_printed(self, tmp_path, capsys):
        stack = synth(tmp_path, frames=6, seed=1)
        report = tmp_path / "report.json"
        rc = main(["run", str(stack), "--cut", "0.99", "--min-samples", "2",
                   "--seed", "1", "--out", str(report)])
        assert rc == 0
        line = capsys.readouterr().out
        assert "method=clustered" in line and "rmse_rad=" in line
        doc = read_report(report)
        assert doc["schema_version"] == 1
        assert doc["method"] == "clustered"
        assert doc["seed"] == 1
        assert doc["frame_count"] == 6
        assert doc["unwrap_call_count"] == len(doc["cluster_sizes_chosen"])

    def test_classify_beyond_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        from phasestack import pipeline

        stack = synth(tmp_path, frames=6, seed=1)
        capsys.readouterr()
        monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: 1000)
        assert main(["run", str(stack)]) == 2
        err = capsys.readouterr().err
        assert "classifying 6 frames would hold" in err and "1000 bytes of physical memory" in err

    def test_over_pooling_names_prepare_for_clustering(self, tmp_path, capsys):
        stack = synth(tmp_path, frames=3, seed=1)  # 32x32: 4 passes leave 2x2
        capsys.readouterr()
        assert main(["run", str(stack), "--pool-levels", "4"]) == 2
        assert capsys.readouterr().err == (
            "error: prepare_for_clustering: pooled size 2x2 is below the 4x4 minimum\n"
        )

    def test_no_classify_flag(self, tmp_path, capsys):
        stack = synth(tmp_path, frames=4, seed=2)
        rc = main(["run", str(stack), "--no-classify"])
        assert rc == 0
        assert "method=no-classify" in capsys.readouterr().out

    def test_min_fraction_flag(self, tmp_path):
        stack = synth(tmp_path, frames=6, seed=4)
        report = tmp_path / "r.json"
        rc = main(["run", str(stack), "--cut", "0.99", "--min-fraction", "0.3",
                   "--out", str(report)])
        assert rc == 0
        doc = read_report(report)
        assert doc["params"]["min_fraction"] == 0.3
        assert doc["params"]["min_samples"] is None


class TestConventionalCommand:
    def test_unwraps_every_frame(self, tmp_path, capsys):
        stack = synth(tmp_path, frames=5, seed=5)
        report = tmp_path / "conv.json"
        rc = main(["conventional", str(stack), "--out", str(report)])
        assert rc == 0
        assert "method=conventional" in capsys.readouterr().out
        doc = read_report(report)
        assert doc["unwrap_call_count"] == 5

    def test_matches_degenerate_clustered_route(self, tmp_path):
        # singleton clusters reduce the clustered route to the baseline
        stack = synth(tmp_path, frames=6, seed=6, snr=15.0)
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", str(stack), "--cut", "1e-9", "--min-samples", "1",
                     "--out", str(r1)]) == 0
        assert main(["conventional", str(stack), "--out", str(r2)]) == 0
        a, b = read_report(r1), read_report(r2)
        assert a["unwrap_call_count"] == 6
        assert a["rmse_rad"] == pytest.approx(b["rmse_rad"], abs=1e-6)


class TestCompareCommand:
    def test_report_and_csv(self, tmp_path, capsys):
        s1 = synth(tmp_path, name="t1.wphs", seed=7)
        s2 = synth(tmp_path, name="t2.wphs", seed=8)
        report = tmp_path / "cmp.json"
        table = tmp_path / "cmp.csv"
        rc = main(["compare", str(s1), str(s2), "--cut", "0.99",
                   "--out", str(report), "--csv", str(table)])
        assert rc == 0
        assert "trials=2/2" in capsys.readouterr().out
        doc = read_report(report)
        assert doc["trial_count"] == 2 and doc["success_count"] == 2
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "trial,clustered_rmse_rad,conventional_rmse_rad"
        assert len(lines) == 3


class TestInspectCommand:
    def test_json_summary(self, tmp_path, capsys):
        stack = synth(tmp_path, frames=3, seed=9)
        capsys.readouterr()  # drop the synth status line
        rc = main(["inspect", str(stack)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["width"] == 32 and doc["height"] == 32
        assert doc["frame_count"] == 3
        assert len(doc["residue_counts"]) == 3
        assert doc["dendrogram"]["leaf_count"] == 3
        assert len(doc["dendrogram"]["merges"]) == 2

    def test_invalid_center_uses_the_pipelines_anchor(self, tmp_path, capsys):
        # a 4x4 invalid block over the center pixel: run measures this stack,
        # so inspect must read it too, from the same anchor
        stack = read_stack(synth(tmp_path, frames=4, seed=9))
        mask = stack.mask.copy()
        mask[14:18, 14:18] = False
        path = tmp_path / "holed.wphs"
        write_stack(PhaseStack(frames=np.where(mask, stack.frames, 0.0), mask=mask), path)
        assert main(["run", str(path), "--min-samples", "2"]) == 0
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid_pixels"] == 32 * 32 - 16
        assert doc["dendrogram"]["leaf_count"] == 4

    def test_classify_beyond_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        from phasestack import pipeline

        stack = synth(tmp_path, frames=6, seed=1)
        capsys.readouterr()
        monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: 1000)
        assert main(["inspect", str(stack)]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert "classifying 6 frames would hold" in captured.err
        assert "1000 bytes of physical memory" in captured.err

    def test_memory_guard_reads_the_pool_levels(self, tmp_path, capsys, monkeypatch):
        """6 frames of 32x32 pooled twice to 8x8: 8 * (6 * 6 + 6 * 8 * 8) bytes."""
        from phasestack import pipeline

        stack = str(synth(tmp_path, frames=6, seed=1))
        need = 8 * (6 * 6 + 6 * 8 * 8)
        monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: need)
        assert main(["inspect", stack, "--pool-levels", "2"]) == 0
        assert main(["inspect", stack]) == 2  # one pass: 16x16
        monkeypatch.setattr(pipeline, "physical_memory_bytes", lambda: need - 1)
        assert main(["inspect", stack, "--pool-levels", "2"]) == 2


class TestExitCodes:
    def test_usage_error_is_1(self, tmp_path, capsys):
        assert main(["synth", "--out", "x.wphs"]) == 1  # missing required flags
        assert main(["definitely-not-a-command"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_conflicting_min_flags_is_1(self, tmp_path):
        stack = synth(tmp_path, seed=10)
        rc = main(["run", str(stack), "--min-samples", "2", "--min-fraction", "0.1"])
        assert rc == 1

    def test_compare_needs_two_stacks(self, tmp_path, capsys):
        stack = synth(tmp_path, seed=11)
        assert main(["compare", str(stack)]) == 1

    def test_missing_file_is_2(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.wphs")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_file_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.wphs"
        bad.write_bytes(b"NOPE" + b"\x00" * 40)
        assert main(["run", str(bad)]) == 2
        assert "bad magic" in capsys.readouterr().err

    def test_truncated_file_is_2(self, tmp_path):
        stack = synth(tmp_path, seed=12)
        data = stack.read_bytes()
        bad = tmp_path / "trunc.wphs"
        bad.write_bytes(data[:-5])
        assert main(["run", str(bad)]) == 2

    def test_no_cluster_is_3(self, tmp_path, capsys):
        stack = synth(tmp_path, frames=4, seed=13, snr=10.0)
        rc = main(["run", str(stack), "--cut", "1e-9", "--min-samples", "2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "cluster sizes" in err

    def test_invalid_param_value_is_2(self, tmp_path):
        stack = synth(tmp_path, seed=14)
        assert main(["run", str(stack), "--cut", "0.0"]) == 2


class TestDeterministicReports:
    def test_same_invocation_same_report_modulo_times(self, tmp_path):
        stack = synth(tmp_path, seed=15)
        r1, r2 = tmp_path / "x.json", tmp_path / "y.json"
        argv = ["run", str(stack), "--cut", "0.99", "--seed", "15"]
        assert main(argv + ["--out", str(r1)]) == 0
        assert main(argv + ["--out", str(r2)]) == 0
        a, b = read_report(r1), read_report(r2)
        for d in (a, b):
            d.pop("stage_times_ms")
            d.pop("total_time_ms")
        assert a == b
