"""Static resource analysis: receptive fields, minimum input length,
parameter and MAC/FLOP counts, and the deployment budget check.

All functions work from the architecture description alone (no weights), so
results can be cross-checked against live forward passes in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .data import FRAMES_PER_SECOND, LENGTH_GRID_S, write_csv
from .dsp import N_MELS, SAMPLE_RATE, num_frames
from .errors import InputTooShortError

if TYPE_CHECKING:
    from .model import ModelConfig

# Deployment budget for the go/no-go check, in units of 1e9 floating ops
# (2 ops per MAC) for one full 10 s clip.
BUDGET_G = 11.46
# Commonly quoted full-clip compute figure for this architecture; the FLOPs
# grid flags any (convention, length) cell within 10% of it as a
# reconciliation candidate rather than asserting it as our own count.
REFERENCE_COST_G = 0.708


class LayerSpec(NamedTuple):
    kind: str          # "conv" | "pool"
    kernel: int        # kernel extent along this axis
    stride: int
    dilation: int


def branch_time_specs(config: ModelConfig, kernel_size: int, pooled: bool = True) -> list[LayerSpec]:
    """Time-axis layer chain for one branch."""
    specs: list[LayerSpec] = []
    for (rt, _rf) in config.dilations:
        specs.append(LayerSpec("conv", kernel_size, 1, rt))
        if pooled:
            specs.append(LayerSpec("pool", 2, 2, 1))
    return specs


def effective_kernel(k: int, r: int) -> int:
    return (k - 1) * r + 1


def receptive_field(specs: list[LayerSpec], convention: str = "reference") -> list[int]:
    """Cumulative receptive field after each layer.

    convention="exact": jump-product accounting, R += (k_eff - 1) * J with
    J the product of strides so far. Matches the impulse-dependency
    footprint of a real forward pass.

    convention="reference": identical except the first dilated layer
    (dilation > 1) counts its full effective kernel, k_eff * J, without the
    one-tap overlap correction. This reproduces the figures usually quoted
    for this architecture — [7, 20, 38] for the unpooled k=7 branch —
    which run one sample wider than the true footprint from that layer on.
    """
    if convention not in ("reference", "exact"):
        raise ValueError(f"unknown receptive-field convention {convention!r}")
    r_field = 1
    jump = 1
    seen_dilated = False
    out: list[int] = []
    for spec in specs:
        k_eff = effective_kernel(spec.kernel, spec.dilation)
        grow = k_eff - 1
        if convention == "reference" and spec.dilation > 1 and not seen_dilated:
            grow = k_eff
            seen_dilated = True
        r_field += grow * jump
        jump *= spec.stride
        out.append(r_field)
    return out


def min_input_frames(config: ModelConfig) -> int:
    """Minimum input frame count for the full model: the largest exact
    receptive field of a branch's pooled time chain, the fewest frames that
    leave its last pool two frames (binding branch wins)."""
    return max(
        receptive_field(branch_time_specs(config, k), "exact")[-1] for k in config.kernel_sizes
    )


def count_params(config: ModelConfig) -> dict[str, int]:
    """Parameter counts by module, plus a "total" entry."""
    out: dict[str, int] = {}
    chans = (1,) + tuple(config.filters)
    for k in config.kernel_sizes:
        conv = sum(
            chans[i + 1] * chans[i] * k * k + chans[i + 1]
            for i in range(len(config.filters))
        )
        bn = sum(2 * c for c in config.filters)
        embed = config.filters[-1] * config.embed_dim + config.embed_dim
        out[f"branch{k}.convs"] = conv
        out[f"branch{k}.bns"] = bn
        out[f"branch{k}.embed"] = embed
    fan_in = config.embed_dim * len(config.kernel_sizes)
    out["fusion"] = fan_in * config.embed_dim + config.embed_dim
    out["head"] = config.embed_dim * config.n_classes + config.n_classes
    out["total"] = sum(out.values())
    return out


def _branch_shape_walk(config: ModelConfig, kernel_size: int, n_frames: int):
    """Yield (c_in, c_out, t_out, f_out) per conv block, applying pooling.
    From min_input_frames frames up, every pool gets at least 2x2."""
    t, f = n_frames, N_MELS
    chans = (1,) + tuple(config.filters)
    for i, (rt, rf) in enumerate(config.dilations):
        kt_eff = effective_kernel(kernel_size, rt)
        kf_eff = effective_kernel(kernel_size, rf)
        t_out, f_out = t - kt_eff + 1, f - kf_eff + 1
        yield chans[i], chans[i + 1], t_out, f_out
        t, f = t_out // 2, f_out // 2


def count_flops(config: ModelConfig, n_frames: int, convention: str = "mac") -> dict[str, int]:
    """Multiply-accumulate counts per branch and for the dense tail.

    Counts conv and dense multiply-accumulates only (bias adds, batch norm,
    pooling, and activations are excluded). convention="mac" counts one per
    multiply-accumulate; "two_mac" counts two (multiply + add).
    """
    if convention not in ("mac", "two_mac"):
        raise ValueError(f"unknown FLOPs convention {convention!r}")
    min_frames = min_input_frames(config)
    if n_frames < min_frames:
        raise InputTooShortError(f"{n_frames} frames is below the model's minimum of {min_frames}")
    scale = 1 if convention == "mac" else 2
    out: dict[str, int] = {}
    for k in config.kernel_sizes:
        macs = 0
        for c_in, c_out, t_out, f_out in _branch_shape_walk(config, k, n_frames):
            macs += t_out * f_out * c_out * c_in * k * k
        macs += config.filters[-1] * config.embed_dim  # branch embedding
        out[f"branch{k}"] = macs * scale
    fan_in = config.embed_dim * len(config.kernel_sizes)
    out["fusion"] = fan_in * config.embed_dim * scale
    out["head"] = config.embed_dim * config.n_classes * scale
    out["total"] = sum(out.values())
    return out


@dataclass
class FlopsCell:
    length_s: float
    frames: int
    mac: int
    two_mac: int
    reconciles: str  # "", "mac", "two_mac", or "mac,two_mac"


@dataclass
class ResourceReport:
    task: str
    n_classes: int
    params: dict[str, int]
    model_bytes: int
    min_frames: int
    min_seconds: float
    rf_reference: dict[int, list[int]]
    rf_exact: dict[int, list[int]]
    flops_grid: list[FlopsCell]
    budget_g: float
    cost_at_full_clip_g: float
    within_budget: bool

    def format_text(self) -> str:
        lines = [
            f"task: {self.task} ({self.n_classes} classes)",
            f"parameters: {self.params['total']:,} "
            f"({self.params['total'] / 1e6:.2f} M, {self.model_bytes / 1e6:.2f} MB float32)",
        ]
        for key, val in self.params.items():
            if key != "total":
                lines.append(f"  {key}: {val:,}")
        lines.append(
            f"minimum input: {self.min_frames} frames = {self.min_seconds:.2f} s at 10 ms hop"
        )
        for k in sorted(self.rf_reference):
            lines.append(
                f"receptive field k={k} (no pooling): reference {self.rf_reference[k]}, "
                f"exact {self.rf_exact[k]}"
            )
        lines.append("compute grid (conv + dense multiply-accumulates):")
        lines.append("  length_s  frames        mac    two_mac  reconciles")
        for cell in self.flops_grid:
            lines.append(
                f"  {cell.length_s:8.1f}  {cell.frames:6d}  {cell.mac / 1e9:9.3f}G"
                f"  {cell.two_mac / 1e9:9.3f}G  {cell.reconciles or '-'}"
            )
        verdict = "within" if self.within_budget else "OVER"
        lines.append(
            f"budget check: {self.cost_at_full_clip_g:.3f} G ops "
            "(two_mac convention, 10 s clip) "
            f"vs {self.budget_g:.2f} G budget -> {verdict}"
        )
        return "\n".join(lines)

    def to_csv(self, path: str) -> None:
        rf = (("rf_reference", self.rf_reference), ("rf_exact", self.rf_exact))
        write_csv(path, ["section", "key", "value"], [
            ["meta", "task", self.task],
            ["meta", "n_classes", self.n_classes],
            *(["params", key, val] for key, val in self.params.items()),
            ["meta", "model_bytes", self.model_bytes],
            ["meta", "min_frames", self.min_frames],
            ["meta", "min_seconds", f"{self.min_seconds:.2f}"],
            *([name, f"k{k}", " ".join(map(str, table[k]))]
              for k in sorted(self.rf_reference) for name, table in rf),
            *(["flops", f"{cell.length_s:g}s",
               f"frames={cell.frames} mac={cell.mac} two_mac={cell.two_mac} "
               f"reconciles={cell.reconciles or '-'}"] for cell in self.flops_grid),
            ["budget", "budget_g", self.budget_g],
            ["budget", "cost_at_full_clip_g", f"{self.cost_at_full_clip_g:.4f}"],
            ["budget", "within_budget", self.within_budget],
        ])


def frames_for_seconds(seconds: float) -> int:
    """Frame count for a clip of the given duration."""
    return num_frames(int(round(seconds * SAMPLE_RATE)))


def build_report(config: ModelConfig) -> ResourceReport:
    params = count_params(config)
    min_frames = min_input_frames(config)
    rf_ref = {
        k: receptive_field(branch_time_specs(config, k, pooled=False), "reference")
        for k in config.kernel_sizes
    }
    rf_exact = {
        k: receptive_field(branch_time_specs(config, k, pooled=False), "exact")
        for k in config.kernel_sizes
    }
    grid: list[FlopsCell] = []
    for length in LENGTH_GRID_S:
        frames = frames_for_seconds(length)
        if frames < min_frames:
            continue
        mac = count_flops(config, frames)["total"]
        two = 2 * mac
        tags = [
            name
            for name, val in (("mac", mac), ("two_mac", two))
            if abs(val / 1e9 - REFERENCE_COST_G) <= 0.10 * REFERENCE_COST_G
        ]
        grid.append(FlopsCell(length, frames, mac, two, ",".join(tags)))
    full_frames = frames_for_seconds(10.0)
    cost_g = 2 * count_flops(config, full_frames)["total"] / 1e9
    return ResourceReport(
        task=config.task,
        n_classes=config.n_classes,
        params=params,
        model_bytes=4 * params["total"],
        min_frames=min_frames,
        min_seconds=min_frames / FRAMES_PER_SECOND,
        rf_reference=rf_ref,
        rf_exact=rf_exact,
        flops_grid=grid,
        budget_g=BUDGET_G,
        cost_at_full_clip_g=cost_g,
        within_budget=cost_g <= BUDGET_G,
    )
