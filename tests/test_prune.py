import json
import sys

import numpy as np
import pytest

from hegcn import costmodel
from hegcn.adjacency import AdjacencySet
from hegcn.model import random_stgcn, reference_stgcn3
from hegcn.prune import (
    CommandEvaluator,
    EvaluatorError,
    TableEvaluator,
    rank_activations,
    search,
    variant_key,
)


def small_spec(seed=0):
    adj = AdjacencySet.from_edges(4, [[(0, 1), (1, 2), (2, 3)]])
    return random_stgcn((1, 2, 8, 4), widths=[2], adjacency=adj, classes=2, kernel=3, seed=seed)


def three_act_spec():
    adj = AdjacencySet.from_edges(4, [[(0, 1), (1, 2), (2, 3)]])
    spec = random_stgcn((1, 2, 8, 4), widths=[2], adjacency=adj, classes=2, kernel=3, seed=1)
    # splice in a third activation after pooling is not legal; use a deeper stack
    return random_stgcn(
        (1, 2, 8, 4), widths=[2, 2], adjacency=adj, classes=2, kernel=3, seed=1
    )  # 4 activations


class TestRankActivations:
    def test_sorted_by_descending_drop_one_accuracy(self):
        spec = three_act_spec()
        table = TableEvaluator({0: 0.74, 1: 0.70, 2: 0.73, 3: 0.71}, {})
        assert rank_activations(spec, table) == [0, 2, 3, 1]

    def test_three_activation_reference_ordering(self):
        # drop-one accuracies 0.74 / 0.70 / 0.73 rank as [0, 2, 1]
        spec = three_act_spec().prune_activations([3])
        table = TableEvaluator({0: 0.74, 1: 0.70, 2: 0.73}, {})
        assert rank_activations(spec, table) == [0, 2, 1]

    def test_equal_accuracies_tie_break_by_index(self):
        spec = three_act_spec()
        table = TableEvaluator({i: 0.5 for i in range(4)}, {})
        assert rank_activations(spec, table) == [0, 1, 2, 3]

    def test_single_activation(self):
        adj = AdjacencySet.from_edges(4, [[(0, 1)]])
        spec = random_stgcn((1, 2, 8, 4), widths=[2], adjacency=adj, classes=2, kernel=3, seed=2)
        spec = spec.prune_activations([1])  # leave one live activation
        table = TableEvaluator({0: 0.9}, {})
        assert rank_activations(spec, table) == [0]

    def test_evaluator_failure_names_variant(self):
        spec = three_act_spec()
        table = TableEvaluator({0: 0.74}, {})
        with pytest.raises(EvaluatorError, match="variant"):
            rank_activations(spec, table)

    def test_type_error_inside_evaluator_is_not_retried(self):
        calls = []

        def faulty(spec, pruned, stage="search"):
            calls.append(stage)
            raise TypeError("bug inside the evaluator")

        with pytest.raises(EvaluatorError) as info:
            rank_activations(three_act_spec(), faulty)
        assert calls == ["rank"]
        assert isinstance(info.value.__cause__, TypeError)
        assert str(info.value.__cause__) == "bug inside the evaluator"


class TestSearch:
    def paper_like_table(self, ranking_first: int):
        # baseline / one pruned / two pruned accuracy ladder
        drop_one = {0: 0.70, 1: 0.74, 2: 0.73, 3: 0.69}
        sets = {
            "": 0.7425,
            str(ranking_first): 0.7312,
            variant_key({1, 2}): 0.7021,
        }
        return TableEvaluator(drop_one, sets)

    def test_same_polynomial_degree_keeps_highest_accuracy(self):
        # at shallow depths every variant fits the same parameters, so the
        # unpruned baseline (best accuracy) wins
        spec = three_act_spec()
        table = self.paper_like_table(ranking_first=1)
        results, best = search(spec, table, max_prune=2)
        assert [r.levels for r in results] == [15, 13, 11]
        assert len({r.params.poly_degree for r in results}) == 1
        assert best.variant_id == "baseline"

    def test_reference_network_level_ladder(self):
        spec = reference_stgcn3()
        acts = spec.activation_indices()
        drop_one = {i: 0.70 + 0.01 * i for i in acts}
        sets = {"": 0.7425, "5": 0.7312, "4,5": 0.7021}
        results, best = search(spec, TableEvaluator(drop_one, sets), max_prune=2)
        assert [r.levels for r in results] == [21, 19, 17]
        assert [r.params.poly_degree for r in results] == [2**15, 2**14, 2**14]
        assert [r.params.modulus_bits for r in results] == [740, 680, 600]
        # N drops at one prune; pruning further cannot shrink it, so the
        # higher-accuracy single-prune variant wins
        assert best.pruned == (5,)
        assert best.accuracy == 0.7312

    def test_max_prune_zero_returns_baseline_only(self):
        spec = three_act_spec()
        results, best = search(spec, TableEvaluator({}, {"": 0.9}), max_prune=0)
        assert len(results) == 1
        assert best.variant_id == "baseline"

    def test_monotone_stub_gives_nonincreasing_accuracy(self):
        spec = three_act_spec()
        drop_one = {0: 0.80, 1: 0.79, 2: 0.78, 3: 0.77}
        sets = {"": 0.9, "0": 0.85, "0,1": 0.8, "0,1,2": 0.75, "0,1,2,3": 0.7}
        results, _ = search(spec, TableEvaluator(drop_one, sets), max_prune=4)
        accs = [r.accuracy for r in results]
        assert accs == sorted(accs, reverse=True)

    def test_level_bookkeeping_matches_depth(self):
        spec = three_act_spec()
        base_depth = costmodel.depth(spec)
        drop_one = {i: 0.5 for i in range(4)}
        sets = {"": 0.9, "0": 0.8, "0,1": 0.7}
        results, _ = search(spec, TableEvaluator(drop_one, sets), max_prune=2)
        for i, r in enumerate(results):
            assert r.levels == base_depth - 2 * i
            assert r.levels == costmodel.depth(spec.prune_activations(r.pruned))

    def test_pareto_filter_never_picks_dominated_variant(self):
        spec = three_act_spec()
        drop_one = {i: 0.5 for i in range(4)}
        sets = {"": 0.9, "0": 0.88, "0,1": 0.895}
        results, best = search(spec, TableEvaluator(drop_one, sets), max_prune=2)
        for other in results:
            dominated = (
                other.accuracy > best.accuracy
                and other.params.poly_degree <= best.params.poly_degree
            )
            assert not dominated

    def test_bad_max_prune(self):
        spec = three_act_spec()
        with pytest.raises(ValueError):
            search(spec, TableEvaluator({}, {}), max_prune=9)


class TestEvaluators:
    def test_table_round_trip_from_json(self):
        text = json.dumps({"drop_one": {"0": 0.7, "1": 0.6}, "pruned_sets": {"": 0.8, "0": 0.7}})
        table = TableEvaluator.from_json(text)
        spec = three_act_spec()
        assert table(spec, ()) == 0.8
        assert table(spec, (1,)) == 0.6  # falls back to the drop-one entry

    def test_external_command_evaluator(self):
        spec = three_act_spec()
        code = (
            "import json,sys; doc=json.load(sys.stdin); "
            "print(json.dumps({'accuracy': 0.5 + 0.01 * len(doc['pruned_activations'])}))"
        )
        ev = CommandEvaluator([sys.executable, "-c", code])
        assert ev(spec, (0, 2)) == pytest.approx(0.52)

    def test_external_command_failure_wrapped(self):
        ev = CommandEvaluator([sys.executable, "-c", "raise SystemExit(3)"])
        with pytest.raises(EvaluatorError):
            ev(three_act_spec(), (0,))
