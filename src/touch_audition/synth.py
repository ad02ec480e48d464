"""Deterministic synthetic touch-sound corpus.

Each gesture class gets a distinct acoustic recipe (event rate, spectral
band, envelope); emotion classes are parameterized along the arousal axis
(event rate, loudness) and the valence axis (harmonic tones vs. rough
amplitude-modulated noise). Event grids are spaced <= 1.8 s so any 2 s crop
of a clip contains at least one event. Clips are 10 s, 16 kHz, 16-bit PCM.
"""

from __future__ import annotations

import os

import numpy as np

from . import dsp
from .data import FAMILY_LABELS, ManifestRow, write_manifest

SR = dsp.SAMPLE_RATE
N_PARTICIPANTS = 7


def _fft_bandpass(x: np.ndarray, lo_hz: float, hi_hz: float) -> np.ndarray:
    """Hard FFT-mask bandpass (adequate for synthesis, no filter design)."""
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.shape[0], 1.0 / SR)
    spec[(freqs < lo_hz) | (freqs > hi_hz)] = 0.0
    return np.fft.irfft(spec, n=x.shape[0])


def _event_starts(rng: np.random.Generator, n: int, spacing_s: float, jitter_s: float) -> np.ndarray:
    """Jittered-grid event start samples; grid pitch spacing_s + jitter."""
    grid = np.arange(0.05, n / SR - 0.1, spacing_s)
    times = grid + rng.uniform(0.0, jitter_s, size=grid.shape)
    return (times * SR).astype(int)


def _place(clip: np.ndarray, start: int, event: np.ndarray) -> None:
    end = min(start + event.shape[0], clip.shape[0])
    if end > start >= 0:
        clip[start:end] += event[: end - start]


def _burst(rng: np.random.Generator, dur_s: float, decay: float) -> np.ndarray:
    n = max(8, int(dur_s * SR))
    env = np.exp(-decay * np.arange(n) / SR)
    return rng.standard_normal(n) * env


def _normalize(clip: np.ndarray, peak: float, rng: np.random.Generator) -> np.ndarray:
    clip = clip + 5e-4 * rng.standard_normal(clip.shape[0])
    m = np.abs(clip).max()
    if m > 0:
        clip = clip * (peak / m)
    return np.clip(clip, -1.0, 1.0).astype(np.float32)


# -- gesture recipes ---------------------------------------------------------

def _gesture_tap(rng: np.random.Generator, n: int) -> np.ndarray:
    clip = np.zeros(n)
    for s in _event_starts(rng, n, 0.33, 0.10):
        _place(clip, s, _burst(rng, 0.010, 500.0) * rng.uniform(0.6, 1.0))
    return clip


def _gesture_pat(rng: np.random.Generator, n: int) -> np.ndarray:
    clip = np.zeros(n)
    for s in _event_starts(rng, n, 0.65, 0.15):
        _place(clip, s, _burst(rng, 0.040, 120.0) * rng.uniform(0.5, 0.9))
    return _fft_bandpass(clip, 40.0, 1200.0)


def _gesture_poke(rng: np.random.Generator, n: int) -> np.ndarray:
    clip = np.zeros(n)
    for s in _event_starts(rng, n, 1.50, 0.25):
        _place(clip, s, _burst(rng, 0.004, 1500.0) * rng.uniform(0.8, 1.0))
    return clip


def _gesture_tickle(rng: np.random.Generator, n: int) -> np.ndarray:
    clip = np.zeros(n)
    for s in _event_starts(rng, n, 1.20, 0.30):
        for k in range(rng.integers(4, 9)):
            offset = int(rng.uniform(0.0, 0.45) * SR)
            _place(clip, s + offset, _burst(rng, 0.006, 900.0) * rng.uniform(0.3, 0.6))
    return _fft_bandpass(clip, 2500.0, 7500.0)


def _gesture_hold(rng: np.random.Generator, n: int) -> np.ndarray:
    noise = rng.standard_normal(n)
    t = np.arange(n) / SR
    am = 1.0 + 0.3 * np.sin(2 * np.pi * rng.uniform(0.15, 0.30) * t + rng.uniform(0, 2 * np.pi))
    return _fft_bandpass(noise * am, 30.0, 350.0) * 0.3


def _gesture_rub(rng: np.random.Generator, n: int) -> np.ndarray:
    noise = rng.standard_normal(n)
    t = np.arange(n) / SR
    rate = rng.uniform(0.5, 1.5)
    am = 0.5 * (1.0 + np.sin(2 * np.pi * rate * t + rng.uniform(0, 2 * np.pi)))
    return _fft_bandpass(noise, 500.0, 2000.0) * (0.15 + 0.85 * am)


_GESTURE_FNS = {
    "tap": _gesture_tap,
    "pat": _gesture_pat,
    "poke": _gesture_poke,
    "tickle": _gesture_tickle,
    "hold": _gesture_hold,
    "rub": _gesture_rub,
}

_GESTURE_PEAK = {"hold": 0.25, "rub": 0.40, "pat": 0.55, "tickle": 0.50, "tap": 0.70, "poke": 0.80}


def gesture_clip(label: str, rng: np.random.Generator, seconds: float = 10.0) -> np.ndarray:
    n = int(seconds * SR)
    return _normalize(_GESTURE_FNS[label](rng, n), _GESTURE_PEAK[label], rng)


# -- emotion recipes ---------------------------------------------------------

# rate_hz: event grid density (arousal); harmonic: tonal vs noisy event
# (valence); rough_hz: amplitude-modulation roughness (negative valence);
# f0: fundamental for tonal events.
_EMOTION_PARAMS = {
    "attention": dict(rate=1.2, amp=0.40, harmonic=0.5, f0=500.0, rough=0.0, dur=0.10),
    "happiness": dict(rate=3.0, amp=0.60, harmonic=1.0, f0=330.0, rough=0.0, dur=0.15),
    "surprise":  dict(rate=4.0, amp=0.70, harmonic=1.0, f0=450.0, rough=0.0, dur=0.08),
    "anger":     dict(rate=3.5, amp=0.75, harmonic=0.0, f0=150.0, rough=60.0, dur=0.20),
    "fear":      dict(rate=4.5, amp=0.55, harmonic=0.0, f0=250.0, rough=45.0, dur=0.10),
    "disgust":   dict(rate=2.5, amp=0.50, harmonic=0.0, f0=180.0, rough=70.0, dur=0.25),
    "sadness":   dict(rate=0.8, amp=0.30, harmonic=0.0, f0=220.0, rough=30.0, dur=0.40),
    "confusion": dict(rate=1.0, amp=0.35, harmonic=0.0, f0=260.0, rough=25.0, dur=0.30),
    "comfort":   dict(rate=0.9, amp=0.35, harmonic=1.0, f0=240.0, rough=0.0, dur=0.50),
    "calming":   dict(rate=0.7, amp=0.30, harmonic=1.0, f0=200.0, rough=0.0, dur=0.60),
}


def _tone_event(rng: np.random.Generator, dur_s: float, f0: float) -> np.ndarray:
    n = int(dur_s * SR)
    t = np.arange(n) / SR
    out = np.zeros(n)
    for h in range(1, 5):
        out += np.sin(2 * np.pi * f0 * h * t + rng.uniform(0, 2 * np.pi)) / h
    return out * np.exp(-3.0 * t / dur_s)


def _rough_event(rng: np.random.Generator, dur_s: float, rough_hz: float) -> np.ndarray:
    n = int(dur_s * SR)
    t = np.arange(n) / SR
    noise = _fft_bandpass(rng.standard_normal(n), 200.0, 4000.0)
    mod = 1.0 if rough_hz <= 0 else 0.5 * (1.0 + np.sin(2 * np.pi * rough_hz * t))
    return noise * mod * np.exp(-3.0 * t / dur_s)


def emotion_clip(label: str, rng: np.random.Generator, seconds: float = 10.0) -> np.ndarray:
    p = _EMOTION_PARAMS[label]
    n = int(seconds * SR)
    clip = np.zeros(n)
    spacing = min(1.0 / p["rate"], 1.6)
    for s in _event_starts(rng, n, spacing, 0.2 * spacing):
        if rng.random() < p["harmonic"]:
            ev = _tone_event(rng, p["dur"], p["f0"] * rng.uniform(0.95, 1.05))
        else:
            ev = _rough_event(rng, p["dur"], p["rough"])
        _place(clip, s, ev * rng.uniform(0.7, 1.0))
    return _normalize(clip, p["amp"], rng)


# -- corpus writer ------------------------------------------------------------

def synth_corpus(
    out_dir: str,
    family: str,
    per_class: int,
    seed: int,
    seconds: float = 10.0,
) -> str:
    """Write WAVs plus manifest.csv for one label family; returns manifest path.

    Every clip's RNG is derived from (seed, family, class, index), so output
    bytes are identical for identical arguments regardless of call order.
    """
    recipes = {"gesture": (gesture_clip, 0), "emotion": (emotion_clip, 1)}  # (recipe, seed tag)
    if family not in recipes:
        raise ValueError(f"unknown corpus family {family!r}")
    make, family_id = recipes[family]
    os.makedirs(out_dir, exist_ok=True)
    rows: list[ManifestRow] = []
    for ci, label in enumerate(FAMILY_LABELS[family]):
        for i in range(per_class):
            rng = np.random.default_rng(np.random.SeedSequence([seed, family_id, ci, i]))
            clip = make(label, rng, seconds)
            name = f"{label}_{i:03d}.wav"
            dsp.save_wav(os.path.join(out_dir, name), clip)
            rows.append(
                ManifestRow(
                    path=name,
                    participant=f"p{i % N_PARTICIPANTS:02d}",
                    round=i // N_PARTICIPANTS + 1,
                    task=family,
                    label=label,
                )
            )
    manifest_path = os.path.join(out_dir, "manifest.csv")
    write_manifest(manifest_path, rows)
    return manifest_path
