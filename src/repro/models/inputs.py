"""Synthetic input generation for recommendation inference.

A recommendation query for a user carries a batch of candidate items; each
sample has continuous (dense) features and one multi-hot index list per
embedding table.  :class:`RecommendationBatch` is the runnable input format
consumed by :meth:`repro.models.base.RecommendationModel.forward`, and
:func:`generate_batch` produces synthetic but structurally faithful inputs
(power-law-ish index popularity, unit-normal dense features).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.models.config import ModelConfig
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import Batch, check_batch, check_positive


@dataclass
class RecommendationBatch:
    """One inference batch (a slice of a user query).

    Attributes
    ----------
    dense:
        ``(batch, dense_input_dim)`` continuous features; an empty second
        dimension when the model has no dense inputs.
    sparse:
        One ``(batch, lookups)`` int array per embedding table.
    """

    dense: np.ndarray
    sparse: List[np.ndarray]

    def __post_init__(self) -> None:
        if self.dense.ndim != 2:
            raise ValueError(f"dense must be 2-D, got shape {self.dense.shape}")
        batch = self.dense.shape[0]
        for table_idx, indices in enumerate(self.sparse):
            if indices.ndim != 2 or indices.shape[0] != batch:
                raise ValueError(
                    f"sparse[{table_idx}] must be (batch={batch}, lookups), "
                    f"got {indices.shape}"
                )

    @property
    def batch_size(self) -> int:
        """Number of candidate items in this batch."""
        return self.dense.shape[0]

    @property
    def num_tables(self) -> int:
        """Number of embedding tables this batch feeds."""
        return len(self.sparse)

    def input_bytes(self) -> int:
        """Bytes needed to transfer this batch to an accelerator (FP32 + int64)."""
        dense_bytes = self.dense.size * 4
        sparse_bytes = sum(indices.size * 8 for indices in self.sparse)
        return int(dense_bytes + sparse_bytes)

    def slice(self, start: int, stop: int) -> "RecommendationBatch":
        """Return the sub-batch covering samples ``[start, stop)``."""
        if not 0 <= start < stop <= self.batch_size:
            raise ValueError(
                f"invalid slice [{start}, {stop}) for batch of {self.batch_size}"
            )
        return RecommendationBatch(
            dense=self.dense[start:stop],
            sparse=[indices[start:stop] for indices in self.sparse],
        )


def _popularity_skewed_indices(
    rng: np.random.Generator, num_rows: int, shape: tuple
) -> np.ndarray:
    """Sample indices with a Zipf-like popularity skew, clipped to the table."""
    # A Pareto draw maps most mass onto small indices, mimicking the hot-item
    # skew of production categorical features.
    raw = rng.pareto(1.2, size=shape)
    scaled = np.floor(raw / (raw.max() + 1e-9) * (num_rows - 1)).astype(np.int64)
    return np.clip(scaled, 0, num_rows - 1)


def generate_batch(
    config: ModelConfig,
    batch_size: int,
    rng: SeedLike = None,
) -> RecommendationBatch:
    """Generate a synthetic :class:`RecommendationBatch` for ``config``.

    Dense features are standard normal; sparse indices follow a heavy-tailed
    popularity distribution within each table.
    """
    check_positive("batch_size", batch_size)
    generator = derive_rng(rng)
    dense_dim = config.dense_input_dim
    dense = (
        generator.normal(size=(batch_size, dense_dim))
        if dense_dim
        else np.zeros((batch_size, 0))
    )
    sparse = []
    emb = config.embedding
    for _ in range(emb.num_tables):
        sparse.append(
            _popularity_skewed_indices(
                generator, emb.rows_per_table, (batch_size, emb.lookups_per_table)
            )
        )
    return RecommendationBatch(dense=dense, sparse=sparse)


def query_input_bytes(config: ModelConfig, query_size: Batch):
    """Analytic input footprint of a query of ``query_size`` candidate items.

    Used by the GPU engine for PCIe transfer-time estimation without having to
    materialise an actual batch.  ``query_size`` may be a float64 vector of
    sizes (the GPU latency table prices a whole column in one call).
    """
    size = check_batch(query_size, "query_size")
    dense_bytes = size * config.dense_input_dim * 4
    emb = config.embedding
    sparse_bytes = size * emb.num_tables * emb.lookups_per_table * 8
    return dense_bytes + sparse_bytes
