"""Equal error rate over a score threshold sweep, plus cosine trial scoring."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


def eer_from_scores(positive, negative) -> float:
    """EER where the false-accept and false-reject curves cross.

    Accept means score >= threshold. FAR/FRR are evaluated at every distinct
    score; the crossing is linearly interpolated between the two bracketing
    thresholds when it falls between evaluation points.
    """
    pos = np.sort(np.asarray(positive, dtype=np.float64))
    neg = np.sort(np.asarray(negative, dtype=np.float64))
    if pos.size == 0 or neg.size == 0:
        raise ConfigError("need at least one positive and one negative trial score")
    if not (np.isfinite(pos).all() and np.isfinite(neg).all()):
        raise ConfigError("trial scores must be finite")

    hi = max(pos[-1], neg[-1])
    thresholds = np.unique(np.concatenate([pos, neg, [np.nextafter(hi, np.inf)]]))
    far = 1.0 - np.searchsorted(neg, thresholds, side="left") / neg.size
    frr = np.searchsorted(pos, thresholds, side="left") / pos.size

    diff = far - frr
    idx = int(np.argmax(diff <= 0))  # first threshold at/past the crossing
    if diff[idx] == 0:
        return float(far[idx])
    if idx == 0:
        return float((far[0] + frr[0]) / 2)
    lam = diff[idx - 1] / (diff[idx - 1] - diff[idx])
    return float(far[idx - 1] + lam * (far[idx] - far[idx - 1]))


def cosine_scores(embeddings: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs cosine trials: returns (target scores, nontarget scores)."""
    labels = np.asarray(labels)
    if not np.isfinite(embeddings).all():
        raise ConfigError("embeddings must be finite")
    norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
    if not (norms > 0).all():
        raise ConfigError(f"embedding row {int(norms.argmin())} has zero norm")
    e = embeddings / norms
    sim = e @ e.T
    n = len(labels)
    iu = np.triu_indices(n, k=1)
    same = labels[iu[0]] == labels[iu[1]]
    scores = sim[iu]
    return scores[same], scores[~same]


def _data_lines(path) -> list[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line of a text file."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return [(ln, line.strip()) for ln, line in enumerate(lines, 1) if line.strip()]


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: non-finite value {text!r}")
    return value


def read_score_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse `label score` lines, label in {target, nontarget}."""
    pos, neg = [], []
    for ln, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("target", "nontarget"):
            raise ConfigError(f"{path}:{ln}: expected 'target|nontarget <score>'")
        (pos if parts[0] == "target" else neg).append(_finite(parts[1], f"{path}:{ln}"))
    return np.asarray(pos), np.asarray(neg)


def read_embedding_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse `label,v0,v1,...` lines; returns (embeddings, integer labels).

    Every row must hold the same number of finite values, not all zero,
    since cosine scoring needs each row's direction.
    """
    labels, vecs = [], []
    for ln, line in _data_lines(path):
        label, *values = line.split(",")
        try:
            labels.append(int(label))
        except ValueError:
            raise ConfigError(f"{path}:{ln}: label must be an integer, got {label!r}") from None
        vec = [_finite(v, f"{path}:{ln}") for v in values]
        if not vec:
            raise ConfigError(f"{path}:{ln}: expected 'label,v0,v1,...'")
        if vecs and len(vec) != len(vecs[0]):
            raise ConfigError(f"{path}:{ln}: expected {len(vecs[0])} values after the "
                              f"label, got {len(vec)}")
        if not any(vec):
            raise ConfigError(f"{path}:{ln}: embedding is all zeros")
        vecs.append(vec)
    if not vecs:
        raise ConfigError(f"no embeddings found in {path}")
    return np.asarray(vecs), np.asarray(labels)
