import json

import numpy as np
import pytest

from stfusion import data as D
from stfusion.errors import ConfigurationError, ContractError, FormatError
from conftest import clip_datasets_equal

TEMPORAL = D.SynthSpec(mode="temporal_only", classes=2, clips_per_class=10,
                       clip_shape=(1, 8, 12, 12), noise_sigma=0.0)
SPATIAL = D.SynthSpec(mode="spatial_only", classes=3, clips_per_class=4,
                      clip_shape=(1, 4, 12, 12), noise_sigma=0.0)
MIXED = D.SynthSpec(mode="mixed", classes=4, clips_per_class=5,
                    clip_shape=(1, 8, 12, 12), noise_sigma=0.05)


class TestSpecValidation:
    def test_too_few_classes(self):
        with pytest.raises(ConfigurationError):
            D.SynthSpec(mode="spatial_only", classes=1, clips_per_class=5, clip_shape=(1, 4, 8, 8))

    def test_temporal_needs_time(self):
        with pytest.raises(ConfigurationError):
            D.SynthSpec(mode="temporal_only", classes=2, clips_per_class=5, clip_shape=(1, 3, 8, 8))

    def test_mixed_needs_product(self):
        with pytest.raises(ConfigurationError, match="k_s"):
            D.SynthSpec(mode="mixed", classes=5, clips_per_class=5, clip_shape=(1, 8, 8, 8))

    def test_mixed_factors(self):
        assert MIXED.mixed_factors() == (2, 2)
        spec6 = D.SynthSpec(mode="mixed", classes=6, clips_per_class=2, clip_shape=(1, 8, 8, 8))
        k_s, k_t = spec6.mixed_factors()
        assert k_s * k_t == 6 and k_s >= 2 and k_t >= 2


class TestGenerate:
    def test_counts_and_balance(self):
        ds = D.generate_synthetic(TEMPORAL, seed=0)
        assert len(ds) == 20
        assert dict(zip(*np.unique(ds.labels, return_counts=True))) == {0: 10, 1: 10}

    def test_determinism(self):
        a = D.generate_synthetic(MIXED, seed=3)
        b = D.generate_synthetic(MIXED, seed=3)
        assert clip_datasets_equal(a, b)

    def test_spatial_class_is_frame_wise(self):
        # class stays recoverable by per-frame template match after any frame permutation
        ds = D.generate_synthetic(SPATIAL, seed=1)
        rng = np.random.default_rng(0)
        for clip, label in zip(ds.clips, ds.labels):
            frames = clip[0][rng.permutation(clip.shape[1])]
            scores = []
            for glyph in D.GLYPHS[:SPATIAL.classes]:
                best = -np.inf
                f = frames[0]
                for y in range(f.shape[0] - 4):
                    for x in range(f.shape[1] - 4):
                        best = max(best, float((f[y:y + 5, x:x + 5] * glyph).sum() - 0.5 * glyph.sum()))
                scores.append(best)
            assert int(np.argmax(scores)) == label

    def test_spatial_frames_constant_over_time(self):
        ds = D.generate_synthetic(SPATIAL, seed=2)
        for clip in ds.clips:
            assert np.array_equal(clip[:, 0], clip[:, 1])

    def test_temporal_profile_recovered_from_frame_means(self):
        ds = D.generate_synthetic(TEMPORAL, seed=5)
        profiles = D.temporal_profiles(TEMPORAL.classes, TEMPORAL.clip_shape[1])
        for clip, label in zip(ds.clips, ds.labels):
            means = clip[0].mean(axis=(1, 2))
            assert np.allclose(means, profiles[label], atol=1e-6)

    def test_temporal_spatial_content_uninformative(self):
        # rescaled frames of different classes share spatial structure up to placement
        ds = D.generate_synthetic(TEMPORAL, seed=5)
        for clip in ds.clips[:4]:
            normalized = clip[0] / clip[0].mean(axis=(1, 2), keepdims=True)
            assert np.allclose(normalized[0], normalized[-1], atol=1e-5)

    def test_temporal_profiles_distinct_permutations(self):
        profiles = D.temporal_profiles(6, 8)
        assert len({tuple(np.argsort(p)) for p in profiles}) == 6
        for p in profiles:
            assert np.allclose(np.sort(p), np.linspace(0.2, 0.8, 8))


class TestSplit:
    def test_stratified_half(self):
        ds = D.generate_synthetic(TEMPORAL, seed=0)
        train, val = D.split(ds, 0.5, seed=1)
        assert len(train) == 10 and len(val) == 10
        for cls in (0, 1):
            assert np.sum(train.labels == cls) == 5
            assert np.sum(val.labels == cls) == 5

    def test_deterministic(self):
        ds = D.generate_synthetic(TEMPORAL, seed=0)
        a = D.split(ds, 0.7, seed=9)
        b = D.split(ds, 0.7, seed=9)
        assert clip_datasets_equal(a[0], b[0]) and clip_datasets_equal(a[1], b[1])

    def test_partition(self):
        ds = D.generate_synthetic(MIXED, seed=4)
        train, val = D.split(ds, 0.6, seed=2)
        combined = np.concatenate([train.clips, val.clips])
        assert len(train) + len(val) == len(ds)
        # every original clip appears exactly once across the splits
        orig = {c.tobytes() for c in ds.clips}
        got = [c.tobytes() for c in combined]
        assert set(got) == orig and len(got) == len(orig)

    def test_class_too_small(self):
        ds = D.generate_synthetic(TEMPORAL, seed=0)
        tiny = D.ClipDataset(clips=ds.clips[:11], labels=ds.labels[:11], manifest=ds.manifest)
        with pytest.raises(ContractError):
            D.split(tiny, 0.5, seed=0)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        ds = D.generate_synthetic(MIXED, seed=7)
        path = tmp_path / "clips.stfd"
        D.save(ds, path)
        loaded = D.load(path)
        assert clip_datasets_equal(loaded, ds)

    def test_truncated_file(self, tmp_path):
        ds = D.generate_synthetic(TEMPORAL, seed=7)
        path = tmp_path / "clips.stfd"
        D.save(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError, match="truncated"):
            D.load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "clips.stfd"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(FormatError, match="magic"):
            D.load(path)

    def test_file_size_formula(self, tmp_path):
        ds = D.generate_synthetic(TEMPORAL, seed=7)
        path = tmp_path / "clips.stfd"
        D.save(ds, path)
        n, c, t, h, w = ds.clips.shape
        manifest_len = len(json.dumps(ds.manifest, sort_keys=True).encode())
        header = 4 + 24  # magic + version/dims
        assert path.stat().st_size == header + 4 * n * c * t * h * w + 4 * n + 4 + manifest_len


class TestBatches:
    def test_single_batch_when_large(self):
        ds = D.generate_synthetic(TEMPORAL, seed=0)
        out = list(D.batches(ds, 100, seed=0, epoch=0))
        assert len(out) == 1 and out[0][0].shape[0] == 20

    def test_deterministic_order(self):
        ds = D.generate_synthetic(TEMPORAL, seed=0)
        a = [lbls.tolist() for _, lbls in D.batches(ds, 7, seed=3, epoch=2)]
        b = [lbls.tolist() for _, lbls in D.batches(ds, 7, seed=3, epoch=2)]
        assert a == b
        c = [lbls.tolist() for _, lbls in D.batches(ds, 7, seed=3, epoch=3)]
        assert a != c

    def test_coverage_is_permutation(self):
        ds = D.generate_synthetic(TEMPORAL, seed=0)
        seen = np.concatenate([clips for clips, _ in D.batches(ds, 6, seed=1, epoch=0)])
        assert sorted(c.tobytes() for c in seen) == sorted(c.astype(np.float64).tobytes() for c in ds.clips)

    def test_partial_last_batch(self):
        ds = D.generate_synthetic(TEMPORAL, seed=0)
        sizes = [clips.shape[0] for clips, _ in D.batches(ds, 6, seed=1, epoch=0)]
        assert sizes == [6, 6, 6, 2]
