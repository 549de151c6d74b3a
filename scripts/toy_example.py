#!/usr/bin/env python3
"""Walk through the two-feature color/shape example step by step.

Twelve training samples over (color, shape), seven labeled + and five
labeled -. Prints the estimated priors, the class-conditionals for the
query (blue, square), and the unnormalized posteriors, then shows how
forcing uniform priors flips the decision.
"""

import math

from nbtext.models import (
    CategoricalModel,
    ClassPriors,
    fit_categorical,
    posterior_scores,
)

POSITIVE = [
    ("blue", "square"), ("blue", "square"), ("blue", "circle"),
    ("green", "square"), ("green", "square"),
    ("red", "square"), ("red", "circle"),
]
NEGATIVE = [
    ("blue", "square"), ("blue", "square"), ("blue", "circle"),
    ("green", "square"), ("red", "circle"),
]
QUERY = ("blue", "square")


def main() -> None:
    samples = POSITIVE + NEGATIVE
    labels = ["+"] * len(POSITIVE) + ["-"] * len(NEGATIVE)
    model = fit_categorical(samples, labels, alpha=0.0)

    print(f"query: {QUERY}")
    for label in ("+", "-"):
        prior = model.priors.probabilities[label]
        likelihood = math.exp(model.log_likelihood(QUERY, label))
        print(f"  P({label}) = {prior:.2f}   "
              f"P(x|{label}) = {likelihood:.2f}   "
              f"product = {prior * likelihood:.2f}")
    report = posterior_scores(model, QUERY)
    print(f"decision: {report.predicted}")

    flat = CategoricalModel(
        ClassPriors({"+": 0.5, "-": 0.5}),
        model.value_counts, model.class_counts, model.alpha,
    )
    print(f"decision under uniform priors: {posterior_scores(flat, QUERY).predicted}")


if __name__ == "__main__":
    main()
