"""Operator-level cost descriptions.

Every recommendation model in the zoo lowers to a sequence of operators
(fully-connected layers, embedding-table gathers, pooling, feature
interaction, attention, recurrent cells).  Each operator reports, for a given
batch size, how many FLOPs it performs and how many bytes of DRAM traffic it
generates — split into *regular* (streaming) and *irregular* (gather) traffic
because the execution engines derate bandwidth for irregular access.

These analytic costs drive the roofline placement (Fig. 1), the operator time
breakdown (Fig. 3), and the latency model used by the serving simulator.
Each cost is one formula over the batch, which may be a number or a float64
vector of batch sizes: the latency tables price every batch size of a column
in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence

from repro.utils.validation import Batch, check_batch, check_positive

BYTES_PER_ELEMENT = 4  # FP32 activations and weights throughout.


class OperatorCategory(str, Enum):
    """Buckets used for the Fig. 3 operator time breakdown."""

    FC = "fc"
    EMBEDDING = "embedding"
    ATTENTION = "attention"
    RECURRENT = "recurrent"
    CONCAT = "concat"
    SUM = "sum"
    OTHER = "other"


@dataclass(frozen=True)
class OperatorCost:
    """FLOPs and DRAM traffic of one operator at one batch size.

    Priced over a batch vector, each field is a float64 vector (or a float
    that holds for every batch, such as an FC layer's zero gather traffic).
    """

    flops: float
    regular_bytes: float
    irregular_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        """All DRAM traffic, regular plus irregular."""
        return self.regular_bytes + self.irregular_bytes

    @property
    def operational_intensity(self) -> float:
        """FLOPs per byte of DRAM traffic (0 when traffic-free)."""
        if self.total_bytes == 0:
            return 0.0
        return self.flops / self.total_bytes

    def __add__(self, other: "OperatorCost") -> "OperatorCost":
        return OperatorCost(
            flops=self.flops + other.flops,
            regular_bytes=self.regular_bytes + other.regular_bytes,
            irregular_bytes=self.irregular_bytes + other.irregular_bytes,
        )


class Operator:
    """Base class for analytic operators.

    Subclasses implement :meth:`cost` and expose a human-readable ``name`` and
    a breakdown ``category``.

    ``cost`` is the operator's only pricing formula: the engines call it on a
    float64 vector of batch sizes to build their latency tables, and on a
    one-element vector for the per-operator breakdown.  A custom operator's
    ``cost`` must therefore accept a float64 vector as well as a number:
    plain arithmetic on the batch already does, and a ``max``/``min``/``if``
    that touches the batch must be written as ``np.maximum``/``np.minimum``/
    ``np.where``.  Validate the batch with
    :func:`~repro.utils.validation.check_batch` first: it returns a float or a
    float64 vector, and every FLOP and byte count stays far below 2**53, so
    pricing in float64 is exact.
    """

    def __init__(self, name: str, category: OperatorCategory) -> None:
        self._name = name
        self._category = category

    @property
    def name(self) -> str:
        """Operator instance name (unique within one model)."""
        return self._name

    @property
    def category(self) -> OperatorCategory:
        """Breakdown bucket this operator contributes to."""
        return self._category

    def cost(self, batch_size: Batch) -> OperatorCost:
        """Return FLOPs and DRAM traffic at ``batch_size`` (a number or a vector)."""
        raise NotImplementedError

    def weight_bytes(self) -> float:
        """Bytes of model parameters owned by this operator."""
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}(name={self._name!r})"


class FullyConnected(Operator):
    """Dense (matrix-multiply) layer: ``y = act(x W + b)``."""

    def __init__(self, name: str, in_features: int, out_features: int) -> None:
        super().__init__(name, OperatorCategory.FC)
        self.in_features = int(check_positive("in_features", in_features))
        self.out_features = int(check_positive("out_features", out_features))

    def weight_bytes(self) -> float:
        return (self.in_features * self.out_features + self.out_features) * BYTES_PER_ELEMENT

    def cost(self, batch_size: Batch) -> OperatorCost:
        batch = check_batch(batch_size)
        flops = 2.0 * batch * self.in_features * self.out_features
        activation_bytes = batch * (self.in_features + self.out_features) * BYTES_PER_ELEMENT
        return OperatorCost(
            flops=flops, regular_bytes=self.weight_bytes() + activation_bytes
        )


class EmbeddingGather(Operator):
    """Multi-hot embedding-table lookup followed by on-the-fly pooling.

    Each of the ``num_tables`` tables is indexed ``lookups_per_table`` times
    per sample; the gathered rows are summed (the pooling FLOPs are included
    here because production implementations fuse the reduction into the
    gather, cf. ``SparseLengthsSum``).
    """

    def __init__(
        self,
        name: str,
        num_tables: int,
        rows_per_table: int,
        embedding_dim: int,
        lookups_per_table: int,
    ) -> None:
        super().__init__(name, OperatorCategory.EMBEDDING)
        self.num_tables = int(check_positive("num_tables", num_tables))
        self.rows_per_table = int(check_positive("rows_per_table", rows_per_table))
        self.embedding_dim = int(check_positive("embedding_dim", embedding_dim))
        self.lookups_per_table = int(check_positive("lookups_per_table", lookups_per_table))

    def weight_bytes(self) -> float:
        return (
            float(self.num_tables)
            * self.rows_per_table
            * self.embedding_dim
            * BYTES_PER_ELEMENT
        )

    def cost(self, batch_size: Batch) -> OperatorCost:
        batch = check_batch(batch_size)
        rows_read = batch * self.num_tables * self.lookups_per_table
        gather_bytes = rows_read * self.embedding_dim * BYTES_PER_ELEMENT
        output_bytes = batch * self.num_tables * self.embedding_dim * BYTES_PER_ELEMENT
        index_bytes = rows_read * 8  # int64 indices streamed in.
        pooling_flops = (
            batch
            * self.num_tables
            * max(0, self.lookups_per_table - 1)
            * self.embedding_dim
        )
        return OperatorCost(
            flops=pooling_flops,
            regular_bytes=output_bytes + index_bytes,
            irregular_bytes=gather_bytes,
        )


class Concat(Operator):
    """Concatenation of feature vectors (pure data movement)."""

    def __init__(self, name: str, elements_per_sample: int) -> None:
        super().__init__(name, OperatorCategory.CONCAT)
        self.elements_per_sample = int(check_positive("elements_per_sample", elements_per_sample))

    def cost(self, batch_size: Batch) -> OperatorCost:
        batch = check_batch(batch_size)
        moved = 2.0 * batch * self.elements_per_sample * BYTES_PER_ELEMENT
        return OperatorCost(flops=0.0, regular_bytes=moved)


class ElementwiseSum(Operator):
    """Elementwise reduction of ``num_inputs`` feature vectors."""

    def __init__(self, name: str, elements_per_sample: int, num_inputs: int = 2) -> None:
        super().__init__(name, OperatorCategory.SUM)
        self.elements_per_sample = int(check_positive("elements_per_sample", elements_per_sample))
        self.num_inputs = int(check_positive("num_inputs", num_inputs))

    def cost(self, batch_size: Batch) -> OperatorCost:
        batch = check_batch(batch_size)
        flops = batch * self.elements_per_sample * max(1, self.num_inputs - 1)
        moved = batch * self.elements_per_sample * (self.num_inputs + 1) * BYTES_PER_ELEMENT
        return OperatorCost(flops=flops, regular_bytes=moved)


class AttentionUnit(Operator):
    """DIN-style local activation unit over a user-behaviour sequence.

    For each of ``sequence_length`` history items the unit concatenates the
    candidate and history embeddings, runs a small MLP to produce a scalar
    weight, and finally computes the weighted sum of history embeddings.
    """

    def __init__(
        self,
        name: str,
        embedding_dim: int,
        sequence_length: int,
        hidden_units: Sequence[int] = (36,),
    ) -> None:
        super().__init__(name, OperatorCategory.ATTENTION)
        self.embedding_dim = int(check_positive("embedding_dim", embedding_dim))
        self.sequence_length = int(check_positive("sequence_length", sequence_length))
        self.hidden_units = tuple(int(check_positive("hidden_units", h)) for h in hidden_units)

    def _mlp_dims(self) -> List[int]:
        # Input: candidate emb, history emb, their difference and product.
        return [4 * self.embedding_dim, *self.hidden_units, 1]

    def weight_bytes(self) -> float:
        dims = self._mlp_dims()
        weights = sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))
        return weights * BYTES_PER_ELEMENT

    def cost(self, batch_size: Batch) -> OperatorCost:
        batch = check_batch(batch_size)
        dims = self._mlp_dims()
        mlp_flops_per_item = 2.0 * sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1))
        flops = batch * self.sequence_length * mlp_flops_per_item
        # Weighted-sum reduction of the history embeddings.
        flops += 2.0 * batch * self.sequence_length * self.embedding_dim
        activation_bytes = (
            batch
            * self.sequence_length
            * (dims[0] + sum(self.hidden_units) + 1)
            * BYTES_PER_ELEMENT
        )
        history_bytes = batch * self.sequence_length * self.embedding_dim * BYTES_PER_ELEMENT
        return OperatorCost(
            flops=flops,
            regular_bytes=self.weight_bytes() + activation_bytes + history_bytes,
        )


class GRULayer(Operator):
    """Gated recurrent unit unrolled over a behaviour sequence (DIEN)."""

    def __init__(
        self, name: str, input_dim: int, hidden_dim: int, sequence_length: int
    ) -> None:
        super().__init__(name, OperatorCategory.RECURRENT)
        self.input_dim = int(check_positive("input_dim", input_dim))
        self.hidden_dim = int(check_positive("hidden_dim", hidden_dim))
        self.sequence_length = int(check_positive("sequence_length", sequence_length))

    def weight_bytes(self) -> float:
        weights = 3 * (self.input_dim * self.hidden_dim + self.hidden_dim * self.hidden_dim)
        biases = 3 * 2 * self.hidden_dim
        return (weights + biases) * BYTES_PER_ELEMENT

    def cost(self, batch_size: Batch) -> OperatorCost:
        batch = check_batch(batch_size)
        per_step_flops = 2.0 * 3 * (
            self.input_dim * self.hidden_dim + self.hidden_dim * self.hidden_dim
        ) + 7.0 * self.hidden_dim
        flops = batch * self.sequence_length * per_step_flops
        activation_bytes = (
            batch
            * self.sequence_length
            * (self.input_dim + self.hidden_dim)
            * BYTES_PER_ELEMENT
        )
        # The recurrent weights are re-read every timestep and rarely stay
        # resident across a large batch, which is what makes DIEN
        # recurrent-dominated on CPU.
        weight_traffic = self.weight_bytes() * self.sequence_length
        return OperatorCost(flops=flops, regular_bytes=activation_bytes + weight_traffic)


def mlp_operators(name_prefix: str, layer_dims: Sequence[int]) -> List[FullyConnected]:
    """Build a chain of :class:`FullyConnected` ops from a dims list.

    ``layer_dims`` is ``[input, hidden..., output]``; ``len(layer_dims) - 1``
    operators are produced.
    """
    if len(layer_dims) < 2:
        raise ValueError(f"layer_dims needs >= 2 entries, got {list(layer_dims)}")
    ops = []
    for idx in range(len(layer_dims) - 1):
        ops.append(
            FullyConnected(
                name=f"{name_prefix}_fc{idx}",
                in_features=layer_dims[idx],
                out_features=layer_dims[idx + 1],
            )
        )
    return ops
