"""Unit tests for evaluation triples and the evaluation function E."""

import pytest

from repro.similarity.triple import EvalTriple, SimilarityConfig
from tests.span_oracle import best


class TestArithmetic:
    def test_addition(self):
        total = EvalTriple(1, 2, 3) + EvalTriple(4, 5, 6)
        assert total == EvalTriple(5, 7, 9)

    def test_incremental_adders(self):
        triple = EvalTriple().add_plus(2).add_minus(1).add_common(5)
        assert triple == EvalTriple(2, 1, 5)

    def test_is_full(self):
        assert EvalTriple(0, 0, 10).is_full
        assert EvalTriple(0, 0, 0).is_full
        assert not EvalTriple(1, 0, 10).is_full
        assert not EvalTriple(0, 1, 10).is_full


class TestEvaluationFunction:
    def test_perfect_match_is_one(self):
        config = SimilarityConfig()
        assert EvalTriple(0, 0, 5).evaluate(config) == 1.0

    def test_empty_match_is_one(self):
        """E(0,0,0): nothing required, nothing extra — a perfect match."""
        assert EvalTriple().evaluate(SimilarityConfig()) == 1.0

    def test_no_common_is_zero(self):
        assert EvalTriple(3, 2, 0).evaluate(SimilarityConfig()) == 0.0

    def test_value_in_unit_interval(self):
        config = SimilarityConfig()
        for p in range(4):
            for m in range(4):
                for c in range(4):
                    value = EvalTriple(p, m, c).evaluate(config)
                    assert 0.0 <= value <= 1.0

    def test_alpha_discounts_plus(self):
        lenient = SimilarityConfig(alpha=0.5)
        strict = SimilarityConfig(alpha=2.0)
        triple = EvalTriple(plus=2, minus=0, common=2)
        assert triple.evaluate(lenient) > triple.evaluate(strict)

    def test_beta_discounts_minus(self):
        lenient = SimilarityConfig(beta=0.5)
        strict = SimilarityConfig(beta=2.0)
        triple = EvalTriple(plus=0, minus=2, common=2)
        assert triple.evaluate(lenient) > triple.evaluate(strict)

    def test_example1_value(self):
        """Figure 2: common 4 (a, b, text, c), plus 1 (data in c), minus 1
        (missing d) → 4/6."""
        assert EvalTriple(1, 1, 4).evaluate(SimilarityConfig()) == pytest.approx(2 / 3)


class TestScoreAndBest:
    def test_score_is_linear(self):
        config = SimilarityConfig(alpha=1.0, beta=2.0)
        assert EvalTriple(1, 1, 5).score(config) == 5 - 1 - 2

    def test_best_picks_highest_score(self):
        config = SimilarityConfig()
        candidates = [EvalTriple(2, 0, 1), EvalTriple(0, 0, 2), EvalTriple(1, 1, 5)]
        assert best(candidates, config) == EvalTriple(1, 1, 5)

    def test_best_breaks_ties_toward_first(self):
        config = SimilarityConfig()
        first = EvalTriple(0, 0, 1)
        second = EvalTriple(1, 0, 2)  # same score
        assert best([first, second], config) is first

    def test_best_requires_candidates(self):
        with pytest.raises(ValueError):
            best([], SimilarityConfig())
