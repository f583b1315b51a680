"""Synthetic labeled video clips with controllable spatial/temporal class structure.

Three modes:
  spatial_only  — class is a fixed 5x5 glyph stamped at a random location,
                  constant across frames; frame order carries no class signal.
  temporal_only — every clip shares one glyph; class is a global intensity
                  profile over time. Profiles are distinct permutations of a
                  common level set, so any order-insensitive (per-frame)
                  statistic is class-invariant by construction.
  mixed         — product labeling of one spatial glyph factor and one
                  temporal profile factor.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, FormatError

# 5x5 binary glyph bitmaps compiled into the generator for reproducibility.
_GLYPH_ROWS = [
    ["00100", "00100", "11111", "00100", "00100"],  # cross
    ["11111", "10001", "10001", "10001", "11111"],  # square
    ["10001", "01010", "00100", "01010", "10001"],  # X
    ["11111", "00100", "00100", "00100", "00100"],  # T
    ["10000", "10000", "10000", "10000", "11111"],  # L
    ["00100", "01010", "10001", "01010", "00100"],  # diamond
    ["10001", "10001", "11111", "10001", "10001"],  # H
    ["11111", "00010", "00100", "01000", "11111"],  # Z
    ["01110", "00100", "00100", "00100", "01110"],  # I
    ["00000", "01110", "01110", "01110", "00000"],  # block
    ["10101", "01010", "10101", "01010", "10101"],  # checker
    ["11111", "10000", "11110", "10000", "11111"],  # E
]
GLYPHS = [np.array([[float(ch) for ch in row] for row in rows]) for rows in _GLYPH_ROWS]

_MAGIC = b"STFD"
_VERSION = 1


@dataclass(frozen=True)
class SynthSpec:
    mode: str                    # spatial_only | temporal_only | mixed
    classes: int
    clips_per_class: int
    clip_shape: tuple            # (C, T, H, W)
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.mode not in ("spatial_only", "temporal_only", "mixed"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.classes < 2:
            raise ConfigurationError(f"need at least 2 classes, got {self.classes}")
        if self.clips_per_class < 1:
            raise ConfigurationError(f"clips_per_class must be positive, got {self.clips_per_class}")
        if len(self.clip_shape) != 4 or any(x < 1 for x in self.clip_shape):
            raise ConfigurationError(f"clip_shape must be four positive extents, got {self.clip_shape}")
        c, t, h, w = self.clip_shape
        if self.mode in ("temporal_only", "mixed") and t < 4:
            raise ConfigurationError(f"temporal modes need T >= 4, got T={t}")
        if h < 5 or w < 5:
            raise ConfigurationError(f"spatial extents must fit a 5x5 glyph, got {h}x{w}")
        if self.noise_sigma < 0:
            raise ConfigurationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.mode == "mixed":
            self.mixed_factors()  # raises if classes is not a usable product
        elif self.mode == "spatial_only" and self.classes > len(GLYPHS):
            raise ConfigurationError(f"spatial_only supports at most {len(GLYPHS)} classes")

    def mixed_factors(self):
        """Factor classes = k_s * k_t with both factors >= 2, k_s near sqrt."""
        for d in range(int(self.classes ** 0.5), 1, -1):
            if self.classes % d == 0 and self.classes // d >= 2:
                k_s, k_t = d, self.classes // d
                if k_s > len(GLYPHS):
                    break
                return k_s, k_t
        raise ConfigurationError(
            f"mixed mode requires classes = k_s * k_t with k_s, k_t >= 2, got {self.classes}"
        )

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "classes": self.classes,
            "clips_per_class": self.clips_per_class,
            "clip_shape": list(self.clip_shape),
            "noise_sigma": self.noise_sigma,
        }


@dataclass
class ClipDataset:
    clips: np.ndarray            # (N, C, T, H, W) float32
    labels: np.ndarray           # (N,) int64
    manifest: dict               # {"spec": ..., "seed": int, "split": str}

    def __len__(self):
        return self.clips.shape[0]

    @property
    def clip_shape(self):
        return self.clips.shape[1:]


def temporal_profiles(classes: int, t: int) -> np.ndarray:
    """Distinct per-class intensity profiles: permutations of one level set."""
    levels = np.linspace(0.2, 0.8, t)
    profiles = []
    seen = set()
    for c in range(classes):
        attempt = 0
        while True:
            rng = np.random.default_rng([9173, c, attempt])
            perm = tuple(rng.permutation(t))
            if perm not in seen:
                seen.add(perm)
                profiles.append(levels[list(perm)])
                break
            attempt += 1
    return np.stack(profiles)


def _stamped_pattern(glyph: np.ndarray, h: int, w: int, rng) -> np.ndarray:
    """Glyph placed at a random location on a zero background."""
    frame = np.zeros((h, w))
    gy, gx = glyph.shape
    y = int(rng.integers(0, h - gy + 1))
    x = int(rng.integers(0, w - gx + 1))
    frame[y:y + gy, x:x + gx] = glyph
    return frame


def _mean_one_pattern(glyph_frame: np.ndarray) -> np.ndarray:
    """Spatial pattern with mean exactly 1, so frame mean tracks the profile."""
    return 1.0 + glyph_frame - glyph_frame.mean()


def generate_synthetic(spec: SynthSpec, seed: int) -> ClipDataset:
    rng = np.random.default_rng(seed)
    c_ch, t, h, w = spec.clip_shape
    n = spec.classes * spec.clips_per_class
    clips = np.zeros((n, c_ch, t, h, w))
    labels = np.zeros(n, dtype=np.int64)

    if spec.mode == "mixed":
        _, k_t = spec.mixed_factors()
        profiles = temporal_profiles(k_t, t)
    elif spec.mode == "temporal_only":
        profiles = temporal_profiles(spec.classes, t)

    idx = 0
    for cls in range(spec.classes):
        for _ in range(spec.clips_per_class):
            if spec.mode == "spatial_only":
                frame = _stamped_pattern(GLYPHS[cls], h, w, rng)
                clip = np.broadcast_to(frame, (t, h, w))
            elif spec.mode == "temporal_only":
                pattern = _mean_one_pattern(_stamped_pattern(GLYPHS[0], h, w, rng))
                clip = profiles[cls][:, None, None] * pattern[None, :, :]
            else:  # mixed
                cs, ct = divmod(cls, k_t)
                pattern = _mean_one_pattern(_stamped_pattern(GLYPHS[cs], h, w, rng))
                clip = profiles[ct][:, None, None] * pattern[None, :, :]
            if spec.noise_sigma > 0:
                clip = clip + rng.normal(0.0, spec.noise_sigma, size=(c_ch, t, h, w))
            clips[idx] = clip  # a noiseless (T, H, W) clip repeats over the channels
            labels[idx] = cls
            idx += 1

    manifest = {"spec": spec.to_json(), "seed": seed, "split": "full"}
    return ClipDataset(clips=clips.astype(np.float32), labels=labels, manifest=manifest)


def split(data: ClipDataset, train_frac: float, seed: int):
    """Stratified deterministic train/val split."""
    if not 0.0 < train_frac < 1.0:
        raise ContractError(f"train_frac must lie in (0, 1), got {train_frac}")
    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    for cls in np.unique(data.labels):
        idx = np.flatnonzero(data.labels == cls)
        if len(idx) < 2:
            raise ContractError(f"class {cls} has {len(idx)} clips, cannot split")
        perm = rng.permutation(idx)
        n_tr = int(round(train_frac * len(idx)))
        n_tr = min(max(n_tr, 1), len(idx) - 1)
        train_idx.extend(perm[:n_tr])
        val_idx.extend(perm[n_tr:])
    train_idx = np.sort(np.asarray(train_idx))
    val_idx = np.sort(np.asarray(val_idx))

    def take(idx, tag):
        manifest = dict(data.manifest)
        manifest["split"] = tag
        return ClipDataset(clips=data.clips[idx].copy(), labels=data.labels[idx].copy(), manifest=manifest)

    return take(train_idx, "train"), take(val_idx, "val")


def save(data: ClipDataset, path):
    n, c, t, h, w = data.clips.shape
    mjson = json.dumps(data.manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<6I", _VERSION, n, c, t, h, w))
        f.write(data.clips.astype("<f4").tobytes())
        f.write(data.labels.astype("<u4").tobytes())
        f.write(struct.pack("<I", len(mjson)))
        f.write(mjson)


def load(path) -> ClipDataset:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4 + 24 or raw[:4] != _MAGIC:
        raise FormatError(f"{path}: not a clip dataset file (bad magic)")
    version, n, c, t, h, w = struct.unpack_from("<6I", raw, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    off = 28
    clip_bytes = 4 * n * c * t * h * w
    label_bytes = 4 * n
    if len(raw) < off + clip_bytes + label_bytes + 4:
        raise FormatError(f"{path}: truncated (expected at least {off + clip_bytes + label_bytes + 4} bytes)")
    clips = np.frombuffer(raw, dtype="<f4", count=n * c * t * h * w, offset=off).reshape(n, c, t, h, w).copy()
    off += clip_bytes
    labels = np.frombuffer(raw, dtype="<u4", count=n, offset=off).astype(np.int64)
    off += label_bytes
    (mlen,) = struct.unpack_from("<I", raw, off)
    off += 4
    if len(raw) < off + mlen:
        raise FormatError(f"{path}: truncated manifest")
    manifest = json.loads(raw[off:off + mlen].decode("utf-8"))
    return ClipDataset(clips=clips, labels=labels, manifest=manifest)


def batches(data: ClipDataset, batch_size: int, seed: int, epoch: int):
    """Deterministic per-epoch shuffled minibatches; last partial batch kept."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng([seed, epoch]).permutation(len(data))
    for start in range(0, len(data), batch_size):
        idx = order[start:start + batch_size]
        yield data.clips[idx].astype(np.float64), data.labels[idx]
