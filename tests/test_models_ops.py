"""Tests for the analytic operator cost models."""

import numpy as np
import pytest

from repro.models.ops import (
    AttentionUnit,
    Concat,
    ElementwiseSum,
    EmbeddingGather,
    FullyConnected,
    GRULayer,
    OperatorCategory,
    OperatorCost,
    mlp_operators,
)


class TestOperatorCost:
    def test_total_bytes(self):
        cost = OperatorCost(flops=10.0, regular_bytes=4.0, irregular_bytes=6.0)
        assert cost.total_bytes == 10.0

    def test_operational_intensity(self):
        cost = OperatorCost(flops=20.0, regular_bytes=10.0)
        assert cost.operational_intensity == pytest.approx(2.0)

    def test_zero_traffic_intensity(self):
        assert OperatorCost(flops=5.0, regular_bytes=0.0).operational_intensity == 0.0

    def test_addition(self):
        a = OperatorCost(1.0, 2.0, 3.0)
        b = OperatorCost(10.0, 20.0, 30.0)
        total = a + b
        assert total.flops == 11.0
        assert total.regular_bytes == 22.0
        assert total.irregular_bytes == 33.0


class TestFullyConnected:
    def test_flops_formula(self):
        op = FullyConnected("fc", 128, 64)
        assert op.cost(10).flops == pytest.approx(2 * 10 * 128 * 64)

    def test_flops_scale_linearly_with_batch(self):
        op = FullyConnected("fc", 128, 64)
        assert op.cost(20).flops == pytest.approx(2 * op.cost(10).flops)

    def test_weight_bytes(self):
        op = FullyConnected("fc", 128, 64)
        assert op.weight_bytes() == (128 * 64 + 64) * 4

    def test_no_irregular_traffic(self):
        assert FullyConnected("fc", 8, 8).cost(4).irregular_bytes == 0.0

    def test_category(self):
        assert FullyConnected("fc", 8, 8).category is OperatorCategory.FC

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            FullyConnected("fc", 8, 8).cost(0)
        with pytest.raises(ValueError):
            FullyConnected("fc", 8, 8).cost(-1)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_vector_with_a_bad_batch_rejected(self, bad):
        # A latency table's entry 0 is NaN and entry -1 its last one, so a
        # bad batch must fail before it could index anything.
        with pytest.raises(ValueError):
            FullyConnected("fc", 8, 8).cost(np.array([1.0, bad, 3.0]))

    def test_vector_cost_matches_scalar_costs(self):
        op = EmbeddingGather("emb", num_tables=4, rows_per_table=1000,
                             embedding_dim=32, lookups_per_table=10)
        batch = np.arange(1, 9, dtype=np.float64)
        vector = op.cost(batch)
        for index, size in enumerate(range(1, 9)):
            scalar = op.cost(size)
            assert vector.flops[index] == scalar.flops
            assert vector.regular_bytes[index] == scalar.regular_bytes
            assert vector.irregular_bytes[index] == scalar.irregular_bytes

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            FullyConnected("fc", 0, 8)


class TestEmbeddingGather:
    def test_irregular_bytes_formula(self):
        op = EmbeddingGather("emb", num_tables=4, rows_per_table=1000,
                             embedding_dim=32, lookups_per_table=10)
        cost = op.cost(8)
        assert cost.irregular_bytes == pytest.approx(8 * 4 * 10 * 32 * 4)

    def test_weight_bytes_is_table_storage(self):
        op = EmbeddingGather("emb", 4, 1000, 32, 10)
        assert op.weight_bytes() == 4 * 1000 * 32 * 4

    def test_pooling_flops(self):
        op = EmbeddingGather("emb", 2, 100, 16, 5)
        assert op.cost(3).flops == pytest.approx(3 * 2 * 4 * 16)

    def test_one_lookup_no_pooling_flops(self):
        op = EmbeddingGather("emb", 2, 100, 16, 1)
        assert op.cost(3).flops == 0.0

    def test_memory_dominated_intensity(self):
        op = EmbeddingGather("emb", 8, 1_000_000, 32, 80)
        assert op.cost(64).operational_intensity < 1.0

    def test_category(self):
        assert EmbeddingGather("emb", 1, 1, 1, 1).category is OperatorCategory.EMBEDDING


class TestDataMovementOps:
    def test_concat_zero_flops(self):
        cost = Concat("c", 128).cost(4)
        assert cost.flops == 0.0
        assert cost.regular_bytes == 2 * 4 * 128 * 4

    def test_sum_flops(self):
        cost = ElementwiseSum("s", 64, num_inputs=3).cost(2)
        assert cost.flops == pytest.approx(2 * 64 * 2)

    def test_categories(self):
        assert Concat("c", 1).category is OperatorCategory.CONCAT
        assert ElementwiseSum("s", 1).category is OperatorCategory.SUM


class TestAttentionUnit:
    def test_flops_scale_with_sequence_length(self):
        short = AttentionUnit("a", 32, sequence_length=10).cost(4).flops
        long = AttentionUnit("a", 32, sequence_length=20).cost(4).flops
        assert long == pytest.approx(2 * short)

    def test_flops_scale_with_batch(self):
        op = AttentionUnit("a", 32, sequence_length=10)
        assert op.cost(8).flops == pytest.approx(2 * op.cost(4).flops)

    def test_weight_bytes_positive(self):
        assert AttentionUnit("a", 32, 10).weight_bytes() > 0

    def test_category(self):
        assert AttentionUnit("a", 32, 10).category is OperatorCategory.ATTENTION


class TestGRULayer:
    def test_flops_scale_with_sequence(self):
        short = GRULayer("g", 32, 64, sequence_length=5).cost(4).flops
        long = GRULayer("g", 32, 64, sequence_length=10).cost(4).flops
        assert long == pytest.approx(2 * short)

    def test_weight_traffic_per_timestep(self):
        op = GRULayer("g", 32, 64, sequence_length=10)
        cost = op.cost(1)
        assert cost.regular_bytes >= op.weight_bytes() * 10

    def test_category(self):
        assert GRULayer("g", 8, 8, 4).category is OperatorCategory.RECURRENT


class TestMlpOperators:
    def test_chain_dimensions(self):
        ops = mlp_operators("p", [128, 64, 32, 1])
        assert len(ops) == 3
        assert ops[0].in_features == 128 and ops[0].out_features == 64
        assert ops[-1].in_features == 32 and ops[-1].out_features == 1

    def test_names_are_unique(self):
        ops = mlp_operators("p", [8, 8, 8])
        assert len({op.name for op in ops}) == len(ops)

    def test_too_few_dims_raises(self):
        with pytest.raises(ValueError):
            mlp_operators("p", [8])
