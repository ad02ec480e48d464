"""Analyzer tests: receptive-field conventions vs. impulse truth, minimum
input lengths vs. forward probes, parameter counts vs. live enumeration, and
MAC counts vs. a live instrumented forward pass."""

import csv

import numpy as np
import pytest
from conftest import dependency_footprint, live_mac_count

from touch_audition.analysis import (
    LayerSpec,
    branch_time_specs,
    build_report,
    count_flops,
    count_params,
    frames_for_seconds,
    min_frames_for_specs,
    min_input_frames,
    receptive_field,
)
from touch_audition.errors import InputTooShortError
from touch_audition.model import ModelConfig, Mtrcnn

RNG = np.random.default_rng(17)


def test_reference_convention_quoted_values():
    specs = branch_time_specs(ModelConfig(), 7, pooled=False)
    assert receptive_field(specs, "reference") == [7, 20, 38]


def test_exact_convention_matches_impulse_truth():
    specs = branch_time_specs(ModelConfig(), 7, pooled=False)
    assert receptive_field(specs, "exact") == [7, 19, 37]
    # Randomized stacks: the exact convention must equal the dependency
    # footprint of a live linear forward pass, pools included.
    rng = np.random.default_rng(3)
    for _ in range(20):
        chain = []
        specs = []
        t_needed = 1
        for _layer in range(rng.integers(1, 4)):
            k = int(rng.integers(1, 5))
            r = int(rng.integers(1, 4))
            chain.append(("conv", k, r))
            specs.append(LayerSpec("conv", k, 1, r))
            if rng.random() < 0.5:
                chain.append(("pool",))
                specs.append(LayerSpec("pool", 2, 2, 1))
        t_needed = min_frames_for_specs(specs)
        expected = receptive_field(specs, "exact")[-1]
        got = dependency_footprint(chain, t_in=t_needed, f_in=16)
        assert got == expected, f"chain {chain}: footprint {got} != exact {expected}"


def test_receptive_field_rejects_unknown_convention():
    with pytest.raises(ValueError):
        receptive_field([LayerSpec("conv", 3, 1, 1)], "bogus")


def test_min_input_frames_per_branch():
    cfg = ModelConfig()
    per_branch = {
        k: min_frames_for_specs(branch_time_specs(cfg, k)) for k in (3, 5, 7)
    }
    assert per_branch == {3: 42, 5: 76, 7: 110}
    assert min_input_frames(cfg) == 110
    # Forward probes: each single-branch model runs at its minimum and
    # fails one frame below it.
    for k, need in per_branch.items():
        single = ModelConfig(kernel_sizes=(k,))
        model = Mtrcnn(single, np.random.default_rng(0))
        x = RNG.standard_normal((1, 1, need, 64)).astype(np.float32)
        assert model.forward(x).data.shape == (1, 6)
        with pytest.raises(InputTooShortError):
            model.forward(x[:, :, : need - 1, :])


def test_pooled_exact_receptive_field_equals_min_frames():
    cfg = ModelConfig()
    specs = branch_time_specs(cfg, 7)
    assert receptive_field(specs, "exact")[-1] == min_input_frames(cfg) == 110


def test_count_params_matches_live_enumeration_all_tasks():
    for task, k in (("gesture", 6), ("arousal", 3), ("valence", 3), ("aro_val", 5)):
        cfg = ModelConfig(task=task, n_classes=k)
        counted = count_params(cfg)
        live = Mtrcnn(cfg, np.random.default_rng(0))
        assert counted["total"] == live.num_params()
        assert 230_000 <= counted["total"] <= 250_000


@pytest.mark.parametrize("t", [110, 598, 997])
def test_count_flops_equals_live_instrumented_forward(t):
    cfg = ModelConfig()
    assert count_flops(cfg, t, convention="mac")["total"] == live_mac_count(cfg, t)
    assert count_flops(cfg, t, convention="two_mac")["total"] == 2 * live_mac_count(cfg, t)


def test_count_flops_full_clip_breakdown():
    per = count_flops(ModelConfig(), 997)
    # Larger kernels dominate; total lands near 0.86 G MACs for 10 s.
    assert per["branch7"] > per["branch5"] > per["branch3"]
    assert 0.84e9 < per["total"] < 0.88e9


def test_count_flops_rejects_tiny_inputs():
    with pytest.raises(InputTooShortError):
        count_flops(ModelConfig(), 50)
    with pytest.raises(ValueError):
        count_flops(ModelConfig(), 997, convention="flops")


def test_frames_for_seconds():
    assert frames_for_seconds(10.0) == 997
    assert frames_for_seconds(6.0) == 597
    assert frames_for_seconds(2.0) == 197


def test_report_contents_and_budget(tmp_path):
    report = build_report(ModelConfig())
    assert report.params["total"] == 240_038
    assert report.model_bytes == 4 * 240_038
    assert report.min_frames == 110
    assert report.min_seconds == pytest.approx(1.10)
    assert report.rf_reference[7] == [7, 20, 38]
    assert report.rf_exact[7] == [7, 19, 37]
    assert report.within_budget
    # At least one grid cell reconciles with the quoted full-clip cost.
    assert any(cell.reconciles for cell in report.flops_grid)
    # 1 s sits below the minimum length and is omitted from the grid.
    assert min(cell.length_s for cell in report.flops_grid) == 2.0

    text = report.format_text()
    assert "240,038" in text
    assert "110 frames = 1.10 s" in text
    assert "[7, 20, 38]" in text

    out = str(tmp_path / "report.csv")
    report.to_csv(out)
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["section", "key", "value"]
    sections = {r[0] for r in rows[1:]}
    assert {"meta", "params", "rf_reference", "rf_exact", "flops", "budget"} <= sections
