"""Generalised neural recommendation model (Fig. 2).

:class:`RecommendationModel` instantiates, from a :class:`ModelConfig`, both

* an **analytic operator graph** — the per-operator FLOPs / DRAM-traffic
  costs used by the execution engines and the roofline placement, and
* an **executable NumPy network** — a real forward pass producing
  click-through-rate probabilities, used by tests and examples.

The structure follows the paper exactly: continuous features flow through an
optional dense-FC stack; categorical features index embedding tables whose
gathered vectors are pooled (sum, concat, attention, or attention+GRU); the
two branches are combined by a feature-interaction operator; and one or more
predictor-FC stacks emit CTRs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.models.config import InteractionType, ModelConfig, PoolingType
from repro.models.inputs import RecommendationBatch, generate_batch, query_input_bytes
from repro.models.layers import MLP, AttentionPooling, EmbeddingTable, GRU
from repro.models.ops import (
    AttentionUnit,
    Concat,
    ElementwiseSum,
    EmbeddingGather,
    FullyConnected,
    GRULayer,
    Operator,
    OperatorCategory,
    OperatorCost,
    mlp_operators,
)
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.validation import Batch


class RecommendationModel:
    """A runnable + analysable instance of the generalised architecture."""

    def __init__(
        self,
        config: ModelConfig,
        rng: SeedLike = None,
        materialized_rows: int = 4096,
        build_executable: bool = True,
    ) -> None:
        self._config = config
        self._operators = self._build_operator_graph(config)
        self._executable_built = False
        self._materialized_rows = materialized_rows
        if build_executable:
            self._build_executable(derive_rng(rng))

    # ------------------------------------------------------------------ #
    # Analytic operator graph
    # ------------------------------------------------------------------ #

    @staticmethod
    def _build_operator_graph(config: ModelConfig) -> List[Operator]:
        operators: List[Operator] = []
        emb = config.embedding

        if config.has_dense_stack:
            dense_dims = [config.dense_input_dim, *config.dense_fc]
            operators.extend(mlp_operators("dense", dense_dims))

        operators.append(
            EmbeddingGather(
                name="embedding",
                num_tables=emb.num_tables,
                rows_per_table=emb.rows_per_table,
                embedding_dim=emb.embedding_dim,
                lookups_per_table=emb.lookups_per_table,
            )
        )

        if config.pooling is PoolingType.SUM:
            operators.append(
                ElementwiseSum(
                    name="sparse_pool_sum",
                    elements_per_sample=emb.embedding_dim,
                    num_inputs=emb.num_tables,
                )
            )
        elif config.pooling is PoolingType.CONCAT:
            operators.append(
                Concat(
                    name="sparse_pool_concat",
                    elements_per_sample=emb.num_tables * emb.embedding_dim,
                )
            )
        elif config.pooling is PoolingType.ATTENTION:
            operators.append(
                AttentionUnit(
                    name="attention",
                    embedding_dim=emb.embedding_dim,
                    sequence_length=config.sequence_length,
                    hidden_units=config.attention_hidden,
                )
            )
            operators.append(
                Concat(
                    name="sparse_pool_concat",
                    elements_per_sample=emb.num_tables * emb.embedding_dim,
                )
            )
        else:  # ATTENTION_RNN
            operators.append(
                AttentionUnit(
                    name="attention",
                    embedding_dim=emb.embedding_dim,
                    sequence_length=config.sequence_length,
                    hidden_units=config.attention_hidden,
                )
            )
            operators.append(
                GRULayer(
                    name="interest_gru",
                    input_dim=emb.embedding_dim,
                    hidden_dim=config.gru_hidden_dim,
                    sequence_length=config.sequence_length,
                )
            )
            operators.append(
                Concat(
                    name="sparse_pool_concat",
                    elements_per_sample=config.sparse_output_dim,
                )
            )

        interaction_width = config.interaction_output_dim
        if config.interaction is InteractionType.CONCAT:
            operators.append(
                Concat(name="feature_interaction", elements_per_sample=interaction_width)
            )
        else:
            operators.append(
                ElementwiseSum(
                    name="feature_interaction",
                    elements_per_sample=interaction_width,
                    num_inputs=2,
                )
            )

        predict_dims = [interaction_width, *config.predict_fc]
        for task in range(config.num_tasks):
            prefix = "predict" if config.num_tasks == 1 else f"predict_task{task}"
            operators.extend(mlp_operators(prefix, predict_dims))
        return operators

    # ------------------------------------------------------------------ #
    # Executable network
    # ------------------------------------------------------------------ #

    def _build_executable(self, rng: np.random.Generator) -> None:
        config = self._config
        emb = config.embedding

        self._dense_mlp: Optional[MLP] = None
        if config.has_dense_stack:
            self._dense_mlp = MLP(
                [config.dense_input_dim, *config.dense_fc], rng=rng
            )

        self._tables = [
            EmbeddingTable(
                num_rows=emb.rows_per_table,
                embedding_dim=emb.embedding_dim,
                materialized_rows=self._materialized_rows,
                rng=rng,
            )
            for _ in range(emb.num_tables)
        ]

        self._attention: Optional[AttentionPooling] = None
        self._gru: Optional[GRU] = None
        if config.pooling in (PoolingType.ATTENTION, PoolingType.ATTENTION_RNN):
            self._attention = AttentionPooling(
                emb.embedding_dim, config.attention_hidden, rng=rng
            )
        if config.pooling is PoolingType.ATTENTION_RNN:
            self._gru = GRU(emb.embedding_dim, config.gru_hidden_dim, rng=rng)

        predict_dims = [config.interaction_output_dim, *config.predict_fc]
        self._predictors = [
            MLP(predict_dims, final_activation="sigmoid", rng=rng)
            for _ in range(config.num_tasks)
        ]
        self._executable_built = True

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> ModelConfig:
        """The architectural configuration this model was built from."""
        return self._config

    @property
    def name(self) -> str:
        """Zoo key of the model."""
        return self._config.name

    def operators(self) -> List[Operator]:
        """The analytic operator graph (a copy of the list)."""
        return list(self._operators)

    def cost(self, batch_size: Batch) -> OperatorCost:
        """Aggregate FLOPs / DRAM traffic of one inference at ``batch_size``.

        ``batch_size`` may be a float64 vector of batch sizes (see
        :meth:`Operator.cost <repro.models.ops.Operator.cost>`).
        """
        total = OperatorCost(flops=0.0, regular_bytes=0.0, irregular_bytes=0.0)
        for op in self._operators:
            total = total + op.cost(batch_size)
        return total

    def cost_by_category(self, batch_size: int) -> Dict[OperatorCategory, OperatorCost]:
        """Per-category aggregate costs (feeds the Fig. 3 breakdown)."""
        breakdown: Dict[OperatorCategory, OperatorCost] = {}
        for op in self._operators:
            cost = op.cost(batch_size)
            if op.category in breakdown:
                breakdown[op.category] = breakdown[op.category] + cost
            else:
                breakdown[op.category] = cost
        return breakdown

    def flops(self, batch_size: int) -> float:
        """Total FLOPs of one inference at ``batch_size``."""
        return self.cost(batch_size).flops

    def dram_bytes(self, batch_size: int) -> float:
        """Total DRAM traffic of one inference at ``batch_size``."""
        return self.cost(batch_size).total_bytes

    def operational_intensity(self, batch_size: int) -> float:
        """FLOPs per byte at ``batch_size`` (the x-axis of Fig. 1)."""
        return self.cost(batch_size).operational_intensity

    def model_storage_bytes(self) -> float:
        """Nominal parameter storage (dominated by embedding tables)."""
        return sum(op.weight_bytes() for op in self._operators)

    def input_bytes(self, batch_size: Batch):
        """Input footprint of a batch (or a vector of sizes), for transfer estimates."""
        return query_input_bytes(self._config, batch_size)

    # -- runnable inference -------------------------------------------- #

    def sample_batch(self, batch_size: int, rng: SeedLike = None) -> RecommendationBatch:
        """Generate a synthetic input batch shaped for this model."""
        return generate_batch(self._config, batch_size, rng=rng)

    def forward(self, batch: RecommendationBatch) -> np.ndarray:
        """Run inference; returns ``(batch, num_tasks)`` CTR probabilities."""
        if not self._executable_built:
            raise RuntimeError(
                "model was constructed with build_executable=False; "
                "rebuild with build_executable=True to run inference"
            )
        config = self._config
        if batch.num_tables != config.embedding.num_tables:
            raise ValueError(
                f"batch has {batch.num_tables} sparse inputs, model expects "
                f"{config.embedding.num_tables}"
            )

        dense_out = self._dense_branch(batch)
        sparse_out = self._sparse_branch(batch)
        interaction = self._interact(dense_out, sparse_out)
        outputs = [predictor.forward(interaction) for predictor in self._predictors]
        return np.concatenate(outputs, axis=1)

    def predict_ctr(self, batch: RecommendationBatch) -> np.ndarray:
        """Primary-task CTR probabilities, ``(batch,)``."""
        return self.forward(batch)[:, 0]

    # -- forward-pass internals ----------------------------------------- #

    def _dense_branch(self, batch: RecommendationBatch) -> np.ndarray:
        config = self._config
        if config.dense_input_dim == 0:
            return np.zeros((batch.batch_size, 0))
        if self._dense_mlp is not None:
            return self._dense_mlp.forward(batch.dense)
        return batch.dense

    def _sparse_branch(self, batch: RecommendationBatch) -> np.ndarray:
        config = self._config
        pooling = config.pooling
        if pooling is PoolingType.SUM:
            pooled = np.zeros((batch.batch_size, config.embedding.embedding_dim))
            for table, indices in zip(self._tables, batch.sparse):
                pooled = pooled + table.pooled_lookup(indices)
            return pooled
        if pooling is PoolingType.CONCAT:
            pooled = [
                table.pooled_lookup(indices)
                for table, indices in zip(self._tables, batch.sparse)
            ]
            return np.concatenate(pooled, axis=1)
        if pooling is PoolingType.ATTENTION:
            return self._attention_branch(batch)
        return self._attention_rnn_branch(batch)

    def _behaviour_sequence(self, batch: RecommendationBatch) -> np.ndarray:
        """History embeddings ``(batch, seq, dim)`` from the first (largest) table."""
        seq_len = self._config.sequence_length
        history_table = self._tables[0]
        indices = batch.sparse[0]
        # Re-use (and tile if necessary) the multi-hot indices as the
        # behaviour sequence of length ``sequence_length``.
        if indices.shape[1] >= seq_len:
            seq_indices = indices[:, :seq_len]
        else:
            repeats = int(np.ceil(seq_len / indices.shape[1]))
            seq_indices = np.tile(indices, (1, repeats))[:, :seq_len]
        return history_table.lookup(seq_indices)

    def _candidate_embedding(self, batch: RecommendationBatch) -> np.ndarray:
        candidate_table = self._tables[-1]
        return candidate_table.pooled_lookup(batch.sparse[-1][:, :1])

    def _attention_branch(self, batch: RecommendationBatch) -> np.ndarray:
        history = self._behaviour_sequence(batch)
        candidate = self._candidate_embedding(batch)
        attended = self._attention.forward(candidate, history)
        others = [
            table.pooled_lookup(indices)
            for table, indices in zip(self._tables[1:], batch.sparse[1:])
        ]
        return np.concatenate([attended, *others], axis=1)

    def _attention_rnn_branch(self, batch: RecommendationBatch) -> np.ndarray:
        history = self._behaviour_sequence(batch)
        candidate = self._candidate_embedding(batch)
        attended = self._attention.forward(candidate, history)
        # Interest evolution: the GRU consumes the history sequence modulated
        # by the attended interest vector.
        modulated = history * attended[:, None, :]
        evolved = self._gru.forward(modulated)
        others = [
            table.pooled_lookup(indices)
            for table, indices in zip(self._tables[1:], batch.sparse[1:])
        ]
        return np.concatenate([evolved, *others], axis=1)

    def _interact(self, dense_out: np.ndarray, sparse_out: np.ndarray) -> np.ndarray:
        config = self._config
        if config.interaction is InteractionType.CONCAT:
            return np.concatenate([dense_out, sparse_out], axis=1)
        width = config.interaction_output_dim

        def pad(x: np.ndarray) -> np.ndarray:
            if x.shape[1] == width:
                return x
            padded = np.zeros((x.shape[0], width))
            padded[:, : x.shape[1]] = x
            return padded

        return pad(dense_out) + pad(sparse_out)
