"""Evaluation triples and the evaluation function ``E``.

Section 3.1: "The evaluation is represented by means of triples
``(p, m, c)`` in which ``p``, ``m``, ``c`` are the evaluation of plus,
minus, and common components, respectively.  Starting from these
triples, an evaluation function ``E`` [2] is then used for computing the
global and local similarity."

- *common* — structure present in both the document and the DTD;
- *plus*   — structure present in the document but not captured by the
  DTD (the paper's plus elements);
- *minus*  — structure the DTD requires but the document misses (the
  paper's minus elements).

``E(p, m, c) = c / (c + alpha*p + beta*m)``, with ``E(0, 0, 0) = 1``
(nothing required, nothing extra: a perfect match).  ``alpha`` and
``beta`` weight how much extra and missing structure hurt; both default
to 1 so that plus and minus components count like common ones, which
gives the properties the paper states (validity ⇔ similarity 1,
rank in ``[0, 1]``).

Triples combine *additively* while the matcher walks the two trees, so
the matcher maximises the linear score ``c - alpha*p - beta*m`` (which
has optimal substructure) and only converts to the ratio ``E`` at the
end.  Maximising the score also maximises ``E`` for fixed totals and
keeps the DP sound.
"""

from __future__ import annotations

from typing import NamedTuple


class SimilarityConfig(NamedTuple):
    """Tunable knobs of the similarity measure.

    Parameters
    ----------
    alpha:
        Weight of plus components (document structure the DTD misses).
    beta:
        Weight of minus components (DTD structure the document misses).
    max_depth:
        Recursion guard for pathological (cyclic) declaration chains.
    """

    alpha: float = 1.0
    beta: float = 1.0
    max_depth: int = 64


class EvalTriple(NamedTuple):
    """An additive (plus, minus, common) evaluation."""

    plus: float = 0.0
    minus: float = 0.0
    common: float = 0.0

    def __add__(self, other: "EvalTriple") -> "EvalTriple":  # type: ignore[override]
        return EvalTriple(
            self.plus + other.plus,
            self.minus + other.minus,
            self.common + other.common,
        )

    def add_plus(self, amount: float) -> "EvalTriple":
        return EvalTriple(self.plus + amount, self.minus, self.common)

    def add_minus(self, amount: float) -> "EvalTriple":
        return EvalTriple(self.plus, self.minus + amount, self.common)

    def add_common(self, amount: float) -> "EvalTriple":
        return EvalTriple(self.plus, self.minus, self.common + amount)

    def score(self, config: SimilarityConfig) -> float:
        """The linear objective the matcher maximises."""
        return self.common - config.alpha * self.plus - config.beta * self.minus

    def evaluate(self, config: SimilarityConfig) -> float:
        """The evaluation function ``E`` — a similarity in ``[0, 1]``."""
        denominator = (
            self.common + config.alpha * self.plus + config.beta * self.minus
        )
        if denominator <= 0:
            return 1.0
        return self.common / denominator

    @property
    def is_full(self) -> bool:
        """True when the match is perfect (no plus, no minus)."""
        return self.plus == 0 and self.minus == 0

    def __repr__(self) -> str:
        return f"(p={self.plus:g}, m={self.minus:g}, c={self.common:g})"


ZERO = EvalTriple()

