"""Log-mel spectrogram front-end.

16 kHz mono audio -> framed Hamming-windowed power spectra -> 64-band
triangular mel filterbank -> log. Frame geometry: 512-sample (32 ms) window,
160-sample (10 ms) hop, so a clip of n samples yields
T = 1 + (n - 512) // 160 frames and 10 s of audio yields 997 frames.
"""

from __future__ import annotations

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AudioFormatError, InputTooShortError

SAMPLE_RATE = 16000
WIN_LENGTH = 512          # 32 ms at 16 kHz
HOP_LENGTH = 160          # 10 ms at 16 kHz
N_FFT = 512
N_MELS = 64
FMIN_HZ = 0.0
FMAX_HZ = 8000.0
LOG_FLOOR = 1e-10

MELF_MAGIC = b"MELF"
MELF_VERSION = 1


def load_wav(path: str) -> np.ndarray:
    """Read a 16-bit PCM mono 16 kHz WAV into float32 in [-1, 1)."""
    import wave

    try:
        with wave.open(path, "rb") as w:
            nchan = w.getnchannels()
            width = w.getsampwidth()
            rate = w.getframerate()
            nframes = w.getnframes()
            raw = w.readframes(nframes)
    # OSError: missing or unreadable file; RuntimeError: a chunk header cut
    # short (raised by the chunk reader's seek).
    except (OSError, wave.Error, EOFError, RuntimeError) as e:
        raise AudioFormatError(f"{path}: not a readable WAV file ({e})") from e
    if width != 2:
        raise AudioFormatError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if nchan != 1:
        raise AudioFormatError(f"{path}: expected mono, got {nchan} channels")
    if rate != SAMPLE_RATE:
        raise AudioFormatError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz")
    # The file can end before the data chunk its header declares (a cut-short
    # recording); the reader then returns only what is there.
    if len(raw) != 2 * nframes:
        raise AudioFormatError(f"{path}: data chunk cut short ({len(raw)} of {2 * nframes} bytes)")
    return np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0


def save_wav(path: str, signal: np.ndarray) -> None:
    """Write float audio in [-1, 1] as 16-bit PCM mono at 16 kHz."""
    import wave

    pcm = np.clip(np.round(np.asarray(signal, dtype=np.float64) * 32768.0), -32768, 32767)
    pcm = pcm.astype("<i2")
    with wave.open(path, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(pcm.tobytes())


def num_frames(n_samples: int) -> int:
    """Frame count for a signal of n_samples (0 if shorter than one window)."""
    if n_samples < WIN_LENGTH:
        return 0
    return 1 + (n_samples - WIN_LENGTH) // HOP_LENGTH


def frame_signal(signal: np.ndarray) -> np.ndarray:
    """Overlapping frames of a 1-D signal, shape (T, WIN_LENGTH).

    A read-only strided view: frame i is signal[i*HOP_LENGTH :][:WIN_LENGTH].
    """
    signal = np.asarray(signal)
    t = num_frames(signal.shape[0])
    if t == 0:
        raise InputTooShortError(
            f"signal of {signal.shape[0]} samples is shorter than one "
            f"{WIN_LENGTH}-sample analysis window"
        )
    return sliding_window_view(signal, WIN_LENGTH)[::HOP_LENGTH]


def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    """HTK mel scale."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    """Inverse HTK mel scale."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_mels: int = N_MELS,
    n_fft: int = N_FFT,
    sample_rate: int = SAMPLE_RATE,
    fmin: float = FMIN_HZ,
    fmax: float = FMAX_HZ,
) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft // 2 + 1), peak 1."""
    mel_pts = np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2)
    hz_pts = np.asarray(mel_to_hz(mel_pts))
    bin_hz = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    lo = hz_pts[:-2, None]
    center = hz_pts[1:-1, None]
    hi = hz_pts[2:, None]
    rising = (bin_hz[None, :] - lo) / (center - lo)
    falling = (hi - bin_hz[None, :]) / (hi - center)
    return np.maximum(0.0, np.minimum(rising, falling)).astype(np.float64)


def power_spectrogram(signal: np.ndarray) -> np.ndarray:
    """Hamming-windowed power spectrum per frame, shape (T, n_fft//2 + 1)."""
    # Windowing a float32 signal's frames converts them to float64 in the
    # same pass, with no separate float64 copy.
    spec = np.fft.rfft(frame_signal(signal) * np.hamming(WIN_LENGTH), n=N_FFT, axis=1)
    return (spec.real ** 2 + spec.imag ** 2)


# Frames per log-mel tile. One tile's float64 frames, complex spectrum and
# power rows take under 1 MB, which the allocator hands back tile after tile;
# a 10 s clip's whole-clip intermediates (about 8 MB) had their pages faulted
# in afresh on every call.
_TILE_FRAMES = 64


def log_mel_spectrogram(signal: np.ndarray) -> np.ndarray:
    """Log-mel features, shape (T, N_MELS), float32.

    Runs `power_spectrogram` over one tile of `_TILE_FRAMES` frames at a
    time; each frame's features depend on its own samples only, so the
    result does not depend on the tiling.
    """
    signal = np.asarray(signal)
    t = frame_signal(signal).shape[0]  # raises InputTooShortError below one window
    fb_t = mel_filterbank().T
    out = np.empty((t, N_MELS), dtype=np.float32)
    mel = np.empty((min(_TILE_FRAMES, t), N_MELS))
    for a in range(0, t, _TILE_FRAMES):
        b = min(a + _TILE_FRAMES, t)
        power = power_spectrogram(signal[a * HOP_LENGTH : (b - 1) * HOP_LENGTH + WIN_LENGTH])
        m = np.matmul(power, fb_t, out=mel[: b - a])
        m += LOG_FLOOR
        np.log(m, out=m)
        out[a:b] = m
    return out


def feature_stats(features: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-mel-bin mean and std over a list of (T, F) feature arrays.

    Std is floored at 1e-6 so constant bins do not blow up normalization.
    """
    stacked = np.concatenate([np.asarray(f, dtype=np.float64) for f in features], axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), 1e-6)
    return mean.astype(np.float32), std.astype(np.float32)


def save_melf(path: str, features: np.ndarray) -> None:
    """Write a (T, F) float feature array in the MELF container.

    Layout: magic "MELF", u32 version, u32 T, u32 F, then T*F float32
    little-endian values in row-major order.
    """
    feat = np.ascontiguousarray(np.asarray(features, dtype="<f4"))
    if feat.ndim != 2:
        raise ValueError(f"MELF stores 2-D (T, F) arrays, got shape {feat.shape}")
    with open(path, "wb") as fh:
        fh.write(MELF_MAGIC)
        fh.write(struct.pack("<III", MELF_VERSION, feat.shape[0], feat.shape[1]))
        fh.write(feat.tobytes())


def load_melf(path: str) -> np.ndarray:
    """Read a MELF file back into a (T, F) float32 array."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise AudioFormatError(f"cannot open MELF file {path}: {e}") from e
    with fh:
        magic = fh.read(4)
        if magic != MELF_MAGIC:
            raise AudioFormatError(f"{path}: bad MELF magic {magic!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise AudioFormatError(f"{path}: truncated MELF header")
        version, t, f = struct.unpack("<III", header)
        if version != MELF_VERSION:
            raise AudioFormatError(f"{path}: unsupported MELF version {version}")
        # Read what the file holds rather than what the header claims, so a
        # corrupt header cannot ask for an arbitrarily large buffer.
        data = fh.read()
        if len(data) < 4 * t * f:
            raise AudioFormatError(f"{path}: truncated MELF payload")
    return np.frombuffer(data, dtype="<f4", count=t * f).reshape(t, f).copy()
