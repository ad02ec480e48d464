"""DSP front-end tests: WAV I/O, framing, mel filterbank, MELF container."""

import tracemalloc

import numpy as np
import pytest
from conftest import corrupted
from hypothesis import given, settings
from hypothesis import strategies as st

from touch_audition import dsp
from touch_audition.errors import AudioFormatError, InputTooShortError, TouchAuditionError
from touch_audition.model import ModelConfig, Mtrcnn


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    sig = rng.uniform(-0.9, 0.9, 16000).astype(np.float32)
    path = str(tmp_path / "x.wav")
    dsp.save_wav(path, sig)
    back = dsp.load_wav(path)
    assert back.shape == sig.shape
    assert back.dtype == np.float32
    assert np.abs(back - sig).max() <= 0.5 / 32768 + 1e-7


def test_load_wav_rejects_bad_formats(tmp_path):
    import wave

    bad_rate = str(tmp_path / "rate.wav")
    with wave.open(bad_rate, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(44100)
        w.writeframes(b"\x00\x00" * 100)
    with pytest.raises(AudioFormatError):
        dsp.load_wav(bad_rate)

    stereo = str(tmp_path / "stereo.wav")
    with wave.open(stereo, "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(b"\x00\x00\x00\x00" * 100)
    with pytest.raises(AudioFormatError):
        dsp.load_wav(stereo)

    eight_bit = str(tmp_path / "8bit.wav")
    with wave.open(eight_bit, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(16000)
        w.writeframes(b"\x80" * 100)
    with pytest.raises(AudioFormatError):
        dsp.load_wav(eight_bit)

    not_wav = str(tmp_path / "junk.wav")
    with open(not_wav, "wb") as fh:
        fh.write(b"this is not a wav file")
    with pytest.raises(AudioFormatError):
        dsp.load_wav(not_wav)

    good = str(tmp_path / "good.wav")
    dsp.save_wav(good, np.zeros(40))
    raw = open(good, "rb").read()
    for name, blob in [
        ("odd", raw[:-1]),                            # data chunk ends inside a sample
        ("short", raw[:-2]),                          # data chunk cut at a sample boundary
        ("fmt_size", raw[:16] + b"\x18" + raw[17:]),  # fmt chunk runs past the RIFF chunk
    ]:
        bad = str(tmp_path / f"{name}.wav")
        with open(bad, "wb") as fh:
            fh.write(blob)
        with pytest.raises(AudioFormatError):
            dsp.load_wav(bad)
    with pytest.raises(AudioFormatError):
        dsp.load_wav(str(tmp_path / "missing.wav"))


@pytest.fixture(scope="module")
def small_wav(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "small.wav")
    dsp.save_wav(path, np.linspace(-0.5, 0.5, 40))
    with open(path, "rb") as fh:
        return path, fh.read()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_wav_reader_never_leaks_raw_errors(small_wav, data):
    path, valid = small_wav
    fuzz = path + ".fuzz"
    with open(fuzz, "wb") as fh:
        fh.write(data.draw(corrupted(valid, b"RIFF")))
    try:
        signal = dsp.load_wav(fuzz)
    except TouchAuditionError:
        return
    assert signal.dtype == np.float32 and signal.ndim == 1


def test_frame_geometry_constants():
    # 32 ms window / 10 ms hop at 16 kHz.
    assert dsp.SAMPLE_RATE == 16000
    assert dsp.WIN_LENGTH == 512
    assert dsp.HOP_LENGTH == 160
    assert dsp.N_MELS == 64
    # 10 s of audio -> 997 frames (the 512-sample window trims 3 frames
    # off the 1000 hop positions). 110 frames need 512 + 109*160 samples.
    assert dsp.num_frames(160000) == 997
    assert dsp.num_frames(512 + 109 * 160) == 110
    # A signal of exactly 1.10 s runs 3 frames short of 110 -- the same
    # window-trim deficit the crop slack accounts for.
    assert dsp.num_frames(int(1.10 * 16000)) == 107


def test_num_frames_matches_enumeration():
    # Oracle: count window placements directly.
    rng = np.random.default_rng(1)
    for n in rng.integers(0, 20000, size=50):
        n = int(n)
        expected = len([s for s in range(0, max(n - dsp.WIN_LENGTH + 1, 0), dsp.HOP_LENGTH)])
        if n >= dsp.WIN_LENGTH:
            expected = (n - dsp.WIN_LENGTH) // dsp.HOP_LENGTH + 1
        else:
            expected = 0
        assert dsp.num_frames(n) == expected


def test_frame_signal_contents():
    sig = np.arange(2048, dtype=np.float64)
    frames = dsp.frame_signal(sig)
    assert frames.shape == (dsp.num_frames(2048), dsp.WIN_LENGTH)
    for i in range(frames.shape[0]):
        start = i * dsp.HOP_LENGTH
        assert np.array_equal(frames[i], sig[start : start + dsp.WIN_LENGTH])


@pytest.mark.parametrize(
    "n", [dsp.WIN_LENGTH, dsp.WIN_LENGTH + dsp.HOP_LENGTH - 1, 10 * dsp.SAMPLE_RATE]
)
def test_frame_signal_matches_index_reference(n):
    # One frame at the two shortest lengths; 997 frames at 10 s. The
    # windowed power spectrum stays bitwise equal to one built from an
    # index-gathered copy of the frames.
    sig = np.random.default_rng(n).uniform(-1, 1, n).astype(np.float32)
    starts = dsp.HOP_LENGTH * np.arange(dsp.num_frames(n))
    idx = starts[:, None] + np.arange(dsp.WIN_LENGTH)[None, :]
    want = sig[idx]
    got = dsp.frame_signal(sig)
    assert got.shape == want.shape and np.array_equal(got, want)
    spec = np.fft.rfft(want.astype(np.float64) * np.hamming(dsp.WIN_LENGTH), n=dsp.N_FFT, axis=1)
    assert np.array_equal(dsp.power_spectrogram(sig), spec.real ** 2 + spec.imag ** 2)


def test_frame_signal_too_short():
    with pytest.raises(InputTooShortError):
        dsp.frame_signal(np.zeros(511))
    with pytest.raises(InputTooShortError):
        dsp.log_mel_spectrogram(np.zeros(511))


@pytest.mark.parametrize("t", [1, dsp._TILE_FRAMES + 1, 997])
def test_log_mel_tiles_match_untiled_composition(t):
    # One frame; one tile and a one-frame tail; a 10 s clip. Tiling the
    # frames leaves every bit of the features as the whole-clip composition.
    n = dsp.WIN_LENGTH + (t - 1) * dsp.HOP_LENGTH + dsp.HOP_LENGTH - 1
    sig = np.random.default_rng(t).uniform(-1, 1, n).astype(np.float32)
    assert dsp.num_frames(n) == t
    power = dsp.power_spectrogram(sig)
    want = np.log(power @ dsp.mel_filterbank().T + dsp.LOG_FLOOR).astype(np.float32)
    got = dsp.log_mel_spectrogram(sig)
    assert got.dtype == np.float32 and np.array_equal(got, want)


def test_log_mel_scratch_is_a_fraction_of_the_spectrum():
    # A 10 s clip's features are built a few frames at a time: beyond the
    # output, scratch stays well under the whole clip's complex spectrum
    # (about 0.25 of it here; the whole-clip composition takes about 2).
    sig = np.random.default_rng(5).uniform(-1, 1, 10 * dsp.SAMPLE_RATE).astype(np.float32)
    spectrum = dsp.num_frames(sig.shape[0]) * (dsp.N_FFT // 2 + 1) * 16
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        feats = dsp.log_mel_spectrogram(sig)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - feats.nbytes < 0.5 * spectrum


def test_mel_scale_inverse():
    f = np.linspace(0, 8000, 64)
    assert np.allclose(dsp.mel_to_hz(dsp.hz_to_mel(f)), f, atol=1e-9)


def test_mel_filterbank_shape_and_peaks():
    fb = dsp.mel_filterbank()
    assert fb.shape == (64, 257)
    assert np.all(fb >= 0)
    # Triangles are unnormalized: each filter's max is close to 1 (it is
    # sampled on the FFT grid so the apex may fall between bins).
    assert fb.max(axis=1).min() > 0.5
    assert fb.max() <= 1.0 + 1e-12
    # Centers move strictly up in frequency.
    centers = fb.argmax(axis=1)
    assert np.all(np.diff(centers) >= 1)


def test_mel_filterbank_against_per_filter_loop():
    # Independent construction: one triangle at a time from the edge arrays.
    n_mels, n_fft, sr = 64, 512, 16000
    mel_edges = np.linspace(dsp.hz_to_mel(0.0), dsp.hz_to_mel(8000.0), n_mels + 2)
    hz_edges = np.asarray(dsp.mel_to_hz(mel_edges))
    bin_hz = np.arange(n_fft // 2 + 1) * (sr / n_fft)
    expected = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(n_mels):
        lo, c, hi = hz_edges[m], hz_edges[m + 1], hz_edges[m + 2]
        for k, f in enumerate(bin_hz):
            if lo < f <= c:
                expected[m, k] = (f - lo) / (c - lo)
            elif c < f < hi:
                expected[m, k] = (hi - f) / (hi - c)
    fb = dsp.mel_filterbank()
    # Loop formulation treats boundary bins slightly differently at exact
    # edge hits; compare where either is nonzero with a tight tolerance.
    assert np.abs(fb - expected).max() < 1e-9


def test_log_mel_against_dense_oracle():
    rng = np.random.default_rng(2)
    sig = rng.uniform(-0.5, 0.5, 16000 * 2)
    got = dsp.log_mel_spectrogram(sig)
    # Oracle: frame-by-frame FFT and dense matmul, no shared code path.
    window = np.hamming(512)
    t = dsp.num_frames(sig.shape[0])
    fb = dsp.mel_filterbank()
    expected = np.zeros((t, 64))
    for i in range(t):
        frame = sig[i * 160 : i * 160 + 512] * window
        spec = np.abs(np.fft.rfft(frame, n=512)) ** 2
        expected[i] = np.log(fb @ spec + 1e-10)
    assert got.shape == (t, 64)
    assert got.dtype == np.float32
    assert np.abs(got - expected.astype(np.float32)).max() < 1e-4


def test_hamming_window_is_symmetric_numpy():
    w = np.hamming(512)
    assert w[0] == pytest.approx(0.08)
    assert np.allclose(w, w[::-1])


def _normalizer(mean: np.ndarray, std: np.ndarray) -> Mtrcnn:
    """A model carrying these feature statistics, as training fits them."""
    model = Mtrcnn(ModelConfig())
    model.feature_mean[...] = mean
    model.feature_std[...] = std
    return model


def test_feature_stats_and_standardize():
    rng = np.random.default_rng(3)
    feats = [rng.normal(5.0, 2.0, size=(100, 64)) for _ in range(4)]
    mean, std = dsp.feature_stats(feats)
    assert mean.shape == (64,) and std.shape == (64,)
    model = _normalizer(mean, std)
    stacked = np.concatenate([model.normalize(f) for f in feats])
    assert np.abs(stacked.mean(axis=0)).max() < 1e-3
    assert np.abs(stacked.std(axis=0) - 1.0).max() < 1e-3


def test_feature_stats_floors_constant_bins():
    feats = [np.ones((50, 64))]
    mean, std = dsp.feature_stats(feats)
    assert np.all(std >= 1e-6)
    out = _normalizer(mean, std).normalize(feats[0])
    assert np.all(np.isfinite(out))


def test_melf_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((123, 64)).astype(np.float32)
    path = str(tmp_path / "x.melf")
    dsp.save_melf(path, feats)
    back = dsp.load_melf(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, feats)


def test_melf_rejects_bad_bytes(tmp_path):
    bad = str(tmp_path / "bad.melf")
    with open(bad, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(AudioFormatError):
        dsp.load_melf(bad)
    trunc = str(tmp_path / "trunc.melf")
    feats = np.zeros((10, 64), dtype=np.float32)
    dsp.save_melf(trunc, feats)
    data = open(trunc, "rb").read()
    for blob in (data[: len(data) // 2], data[:10]):  # payload, then header
        with open(trunc, "wb") as fh:
            fh.write(blob)
        with pytest.raises(AudioFormatError):
            dsp.load_melf(trunc)
    with pytest.raises(AudioFormatError):
        dsp.load_melf(str(tmp_path / "missing.melf"))


@pytest.fixture(scope="module")
def small_melf(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fuzz") / "small.melf")
    dsp.save_melf(path, np.arange(40, dtype=np.float32).reshape(10, 4))
    with open(path, "rb") as fh:
        return path, fh.read()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_melf_reader_never_leaks_raw_errors(small_melf, data):
    path, valid = small_melf
    fuzz = path + ".fuzz"
    with open(fuzz, "wb") as fh:
        fh.write(data.draw(corrupted(valid, dsp.MELF_MAGIC)))
    try:
        feats = dsp.load_melf(fuzz)
    except TouchAuditionError:
        return
    assert feats.dtype == np.float32 and feats.ndim == 2
