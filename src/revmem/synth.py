"""Synthetic speaker batches: per-class means in feature space plus noise.

Class means are drawn once per seed with unit scale, far apart relative to
the noise, so a toy run has real training signal and can reach near-zero
verification error. Batches are label-balanced and fully determined by the
seed and the batch index.
"""

from __future__ import annotations

import numpy as np


class SynthDataset:
    def __init__(self, n_classes: int, frames: int = 8, noise: float = 0.1,
                 seed: int = 0, dtype=np.float32):
        self.n_classes = n_classes
        self.frames = frames
        self.noise = noise
        self.dtype = np.dtype(dtype)
        self._rng = np.random.default_rng(seed)
        self.means = self._rng.normal(0.0, 1.0, (n_classes, 1, 80, frames)).astype(self.dtype)

    def batch(self, size: int):
        """Returns (x, labels) with labels cycling over classes."""
        labels = np.arange(size) % self.n_classes
        noise = self._rng.normal(0.0, self.noise, (size, 1, 80, self.frames))
        return self.means[labels] + noise.astype(self.dtype), labels
