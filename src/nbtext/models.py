"""Naive Bayes variants over shared priors and log-space scoring.

Four model families: categorical (feature tuples over finite value sets),
multi-variate Bernoulli (per-token presence bits), multinomial (token
counts, optionally fractional), and Gaussian (continuous features). All
models store raw counts or sufficient statistics; probabilities are
derived on demand. Scoring is done in log space throughout, with zero
conditionals mapping to -inf rather than raising.
"""

import math
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property, reduce
from operator import add

from .record import Record
from .vectorize import SparseVector, Vocabulary

__all__ = [
    "ClassPriors",
    "CategoricalModel",
    "BernoulliModel",
    "MultinomialModel",
    "GaussianModel",
    "PosteriorReport",
    "NaiveBayesModel",
    "check_alpha",
    "fit_priors",
    "fit_categorical",
    "fit_bernoulli",
    "fit_multinomial",
    "bernoulli_from_entries",
    "multinomial_from_entries",
    "fit_gaussian",
    "gaussian_log_density",
    "posterior_scores",
    "classify",
]

_PRIOR_SUM_TOL = 1e-12


# Text models are linear (McCallum & Nigam 1998): log P(x | c) = base_c + sum_i
# w_i * theta_c(i, unseen_c) over the ids in x, theta_c giving unseen_c for an id
# it does not hold; tables cost O(entries) once.
LinearForm = tuple[float, Callable[[int, float], float], float]


def _log(p: float) -> float:
    return math.log(p) if p > 0 else -math.inf


def check_alpha(alpha, totals=(), size: int = 0) -> None:
    """Additive smoothing's rule: ``alpha`` is a finite int or float >= 0, and
    every smoothed denominator ``total + alpha * size`` stays finite."""
    if type(alpha) not in (int, float) or not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be a finite number >= 0, got {alpha!r}")
    try:
        finite = math.isfinite(max(totals, default=0) + alpha * size)
    except OverflowError:  # an int total past the float range
        finite = False
    if not finite:
        raise ValueError(f"alpha {alpha!r} is too large: a smoothed denominator overflows")


def _check_labels(record: Record, labels) -> None:
    """Every dict field of ``record``, and each dict in a tuple field, is keyed
    by ``labels``: ValueError naming the first field that is not."""
    for name in record._fields:
        value = getattr(record, name)
        for table in value if isinstance(value, tuple) else (value,):
            if isinstance(table, dict) and table.keys() != labels:
                raise ValueError(f"{name} has labels {sorted(table)}, not {sorted(labels)}")


class ClassPriors(Record):
    """Per-class prior probabilities, with sample counts kept alongside
    when the priors were estimated from data."""

    _shapes = {"probabilities": dict[str, float], "counts": dict[str, int] | None,
               "total": int | None}
    _defaults = {"counts": None, "total": None}

    def _check(self):
        if not self.probabilities:
            raise ValueError("at least one class is required")
        for label, p in self.probabilities.items():
            if not 0.0 < p <= 1.0:
                raise ValueError(f"prior for {label!r} outside (0, 1]: {p}")
        if abs(sum(self.probabilities.values()) - 1.0) > _PRIOR_SUM_TOL:
            raise ValueError("priors must sum to 1")
        if (self.counts is None) != (self.total is None):
            raise ValueError("counts and total must be supplied together")
        # counts are those from_counts takes, the rest exactly what it computes
        if self.counts is not None:
            _check_labels(self, self.probabilities.keys())
            if min(self.counts.values()) < 1:
                raise ValueError("class sample counts must be >= 1")
            if self.total != sum(self.counts.values()):
                raise ValueError(f"priors total {self.total!r} is not the sum of the counts")
            if any(p != self.counts[c] / self.total for c, p in self.probabilities.items()):
                raise ValueError("each prior must be its class count over the total")

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "ClassPriors":
        """Estimate P(class) as the class's share of the samples; every count
        must be an int >= 1 (TypeError for any other type, bools included)."""
        if not set(map(type, counts.values())) <= {int}:
            raise TypeError("class sample counts must be ints")
        if min(counts.values(), default=1) < 1:
            raise ValueError("class sample counts must be >= 1")
        total = sum(counts.values())
        return cls({lab: n / total for lab, n in counts.items()}, dict(counts), total)

    @property
    def labels(self) -> list[str]:
        return list(self.probabilities)

    @cached_property
    def log_probabilities(self) -> dict[str, float]:
        return {c: math.log(p) for c, p in self.probabilities.items()}


def fit_priors(labels: Sequence[str]) -> ClassPriors:
    """Estimate P(class) as the class frequency among the labels."""
    return ClassPriors.from_counts(Counter(labels))


def _row_width(rows: Sequence[Sequence], labels: Sequence[str]) -> int:
    """The width every row shares; ValueError unless one row pairs with each label."""
    if len(rows) != len(labels):
        raise ValueError("rows and labels must have equal length")
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("all rows must have the same width")
    return width


class CategoricalModel(Record):
    """Per-position value-count tables with additive smoothing.

    value_counts[i][class][value] is the number of class samples showing
    ``value`` at position i; class_counts[class] is the class sample count.
    The smoothed conditional for value v at position i under class j is
    (count + alpha) / (class_count + alpha * K) where K is the number of
    distinct values at position i, counting the queried value if unseen.
    """

    _shapes = {"priors": ClassPriors, "value_counts": tuple[dict[str, dict[str, int]], ...],
               "class_counts": dict[str, int], "alpha": object}  # check_alpha owns alpha

    def _check(self):
        _check_labels(self, self.priors.probabilities.keys())
        for label, n in self.class_counts.items():
            if n < 0:
                raise ValueError(f"class_counts[{label!r}] must be an int >= 0")
        for i, table in enumerate(self.value_counts):
            for label, counts in table.items():
                values = counts.values()
                if min(values, default=0) < 0:
                    raise ValueError(f"value_counts[{i}][{label!r}] must hold ints >= 0")
                if sum(values) != self.class_counts.get(label):
                    raise ValueError(
                        f"value_counts[{i}][{label!r}] must sum to class_counts[{label!r}]"
                    )
        if self.priors.counts is not None and self.class_counts != self.priors.counts:
            raise ValueError("class_counts must be the class sizes the priors count")
        # a value a position never saw adds one to the size of its domain
        size = max(map(len, self.domains), default=0) + 1
        check_alpha(self.alpha, self.class_counts.values(), size)

    @property
    def n_positions(self) -> int:
        return len(self.value_counts)

    @cached_property
    def domains(self) -> tuple[frozenset, ...]:
        out = []
        for table in self.value_counts:
            values = set()
            for per_class in table.values():
                values.update(per_class)
            out.append(frozenset(values))
        return tuple(out)

    def conditional(self, position: int, label: str, value: str) -> float:
        """Smoothed P(value at position | label)."""
        count = self.value_counts[position][label].get(value, 0)
        k = len(self.domains[position])
        if value not in self.domains[position]:
            k += 1
        num = count + self.alpha
        den = self.class_counts[label] + self.alpha * k
        return num / den

    def log_likelihood(self, values: Sequence[str], label: str) -> float:
        if isinstance(values, SparseVector):
            raise TypeError("categorical model expects a sequence of feature values")
        if len(values) != self.n_positions:
            raise ValueError(
                f"expected {self.n_positions} feature values, got {len(values)}"
            )
        return sum(_log(self.conditional(i, label, v)) for i, v in enumerate(values))


def fit_categorical(
    samples: Sequence[Sequence[str]], labels: Sequence[str], alpha: float = 0.0
) -> CategoricalModel:
    n_positions = _row_width(samples, labels)
    priors = fit_priors(labels)
    tables = [{lab: {} for lab in priors.labels} for _ in range(n_positions)]
    for row, lab in zip(samples, labels):
        for i, value in enumerate(row):
            cell = tables[i][lab]
            cell[value] = cell.get(value, 0) + 1
    return CategoricalModel(priors, tuple(tables), dict(priors.counts), alpha)


def _text_log_likelihood(model, vec: SparseVector, label: str) -> float:
    if not isinstance(vec, SparseVector):
        raise TypeError("text model expects a SparseVector")
    base, theta, unseen = model.linear_form[label]
    terms = [w * theta(i, unseen) for i, w in vec.entries.items()]
    # fsum rounds once, whatever the order of its terms, so token order cannot matter
    try:
        return base + math.fsum(terms)
    except OverflowError:
        # finite terms past the float range; a multinomial's are all <= 0, so -inf
        return base + sum(terms)


def _by_count(table: dict[int, float], counts: list[int]) -> Callable[[int, float], float]:
    """id i -> table[counts[i]]; ids outside ``counts`` give the default."""
    n = len(counts)
    return lambda i, default: table[counts[i]] if 0 <= i < n else default


class BernoulliModel(Record):
    """Presence/absence model: P(token | class) = (df + 1) / (class_docs + 2).

    doc_counts[class][i] is the number of class documents containing token
    id i; class_doc_counts[class] is the number of documents in the class.
    The +1/+2 correction keeps every estimate strictly inside (0, 1).
    """

    _shapes = {"priors": ClassPriors, "doc_counts": dict[str, list[int]],
               "class_doc_counts": dict[str, int], "vocab_size": int}

    def _check(self):
        _check_labels(self, self.priors.probabilities.keys())
        # each row's distinct counts, found once for the range check and linear_form
        self.__dict__["_distinct_counts"] = distinct = {}
        for label, row in self.doc_counts.items():
            docs = self.class_doc_counts[label]
            if docs < 0:
                raise ValueError(f"class_doc_counts[{label!r}] must be an int >= 0")
            if len(row) != self.vocab_size:
                raise ValueError("doc_counts rows must have vocab_size entries")
            distinct[label] = counts = set(row)
            if counts and not 0 <= min(counts) <= max(counts) <= docs:
                raise ValueError(f"doc_counts[{label!r}] must lie between 0 and {docs}")
        if self.priors.counts is not None and self.class_doc_counts != self.priors.counts:
            raise ValueError("class_doc_counts must be the class sizes the priors count")

    def conditional(self, label: str, token_id: int) -> float:
        return (self.doc_counts[label][token_id] + 1) / (
            self.class_doc_counts[label] + 2
        )

    log_likelihood = _text_log_likelihood

    @cached_property
    def linear_form(self) -> dict[str, LinearForm]:
        """Per class: (sum_i log(1 - p_i), id i -> log p_i - log(1 - p_i), 0.0)."""
        # p_i depends only on df_i, so the logs are taken once per distinct
        # count, and an id's delta is read through its count when it is scored
        out = {}
        for label in self.priors.labels:
            df, counts = self.doc_counts[label], self._distinct_counts[label]
            den = self.class_doc_counts[label] + 2
            log_q = {n: math.log((den - n - 1) / den) for n in counts}
            delta = {n: math.log((n + 1) / den) - q for n, q in log_q.items()}
            out[label] = (math.fsum(map(log_q.get, df)), _by_count(delta, df), 0.0)
        return out


def bernoulli_from_entries(
    tables: Iterable[dict[int, float]], labels: Sequence[str], vocab_size: int
) -> BernoulliModel:
    """Count, per class, the documents that hold each token id; ``tables`` gives
    each document's id -> weight table, whose weights are not read, one per label."""
    priors = fit_priors(labels)
    doc_counts = {lab: [0] * vocab_size for lab in priors.labels}
    for table, lab in zip(tables, labels, strict=True):
        row = doc_counts[lab]
        for token_id in table:
            row[token_id] += 1
    return BernoulliModel(priors, doc_counts, dict(priors.counts), vocab_size)


def fit_bernoulli(
    binary_vectors: Sequence[SparseVector],
    labels: Sequence[str],
    vocab: Vocabulary,
) -> BernoulliModel:
    for vec in binary_vectors:
        if any(v != 1 for v in vec.entries.values()):
            raise ValueError("bernoulli fitting requires binary vectors")
    return bernoulli_from_entries((v.entries for v in binary_vectors), labels, len(vocab))


class MultinomialModel(Record):
    """Token-count model with additive smoothing over the vocabulary.

    tf_sums[class][i] is the summed term weight of token id i across class
    documents (float: normalized tf and tf-idf produce fractional counts);
    class_totals[class] is the sum of all stored weights for the class.
    """

    _shapes = {"priors": ClassPriors, "tf_sums": dict[str, dict[int, float]],
               "class_totals": dict[str, float], "vocab_size": int, "alpha": object}

    def _check(self):
        _check_labels(self, self.priors.probabilities.keys())
        if self.vocab_size < 0:
            raise ValueError("vocab_size must be an int >= 0")
        for label, sums in self.tf_sums.items():
            if sums and not (0 <= min(sums) and max(sums) < self.vocab_size):
                raise ValueError(f"tf_sums[{label!r}] ids must lie in range(vocab_size)")
            try:
                exact = math.fsum(sums.values())
            except (OverflowError, ValueError):  # past the float range, or inf - inf
                exact = math.nan
            if not math.isfinite(exact) or min(sums.values(), default=0) < 0:
                raise ValueError(f"tf_sums[{label!r}] must hold finite weights >= 0")
            # training adds the totals with += in document order, so they
            # match the exact sum only to rounding
            if not math.isclose(self.class_totals[label], exact, rel_tol=1e-9):
                raise ValueError(
                    f"class_totals[{label!r}] must be the sum of tf_sums[{label!r}]"
                )
        check_alpha(self.alpha, self.class_totals.values(), self.vocab_size)

    def conditional(self, label: str, token_id: int) -> float:
        """Smoothed P(token | class) per the additive estimator; 0/0 gives 0."""
        return self._estimate(label, self.tf_sums[label].get(token_id, 0.0))

    def _estimate(self, label: str, tf: float) -> float:
        den = self.class_totals[label] + self.alpha * self.vocab_size
        return (tf + self.alpha) / den if den else 0.0

    log_likelihood = _text_log_likelihood

    @cached_property
    def linear_form(self) -> dict[str, LinearForm]:
        """Per class: (0.0, {seen id: log P(id | class)}, log P(unseen id | class))."""
        out = {}
        for label in self.priors.labels:
            sums = self.tf_sums[label]
            log_p = {tf: _log(self._estimate(label, tf)) for tf in {0.0, *sums.values()}}
            theta = dict(zip(sums, map(log_p.get, sums.values())))
            out[label] = (0.0, theta.get, log_p[0.0])
        return out


def multinomial_from_entries(
    tables: Iterable[dict[int, float]],
    labels: Sequence[str],
    vocab_size: int,
    alpha: float,
) -> MultinomialModel:
    """Sum, per class, the weight of each token id over the documents, in
    document then entry order; ``tables`` gives each document's id -> weight
    table, one per label."""
    priors = fit_priors(labels)
    tf_sums: dict[str, dict[int, float]] = {lab: {} for lab in priors.labels}
    class_totals: dict[str, float] = {lab: 0.0 for lab in priors.labels}
    for table, lab in zip(tables, labels, strict=True):
        sums = tf_sums[lab]
        total = class_totals[lab]
        for token_id, weight in table.items():
            sums[token_id] = sums.get(token_id, 0.0) + weight
            total += weight
        class_totals[lab] = total
    return MultinomialModel(priors, tf_sums, class_totals, vocab_size, alpha)


def fit_multinomial(
    count_vectors: Sequence[SparseVector],
    labels: Sequence[str],
    vocab: Vocabulary,
    alpha: float = 1.0,
) -> MultinomialModel:
    tables = (v.entries for v in count_vectors)
    return multinomial_from_entries(tables, labels, len(vocab), alpha)


class GaussianModel(Record):
    """Per-class, per-feature normal densities (population sigma)."""

    _shapes = {"priors": ClassPriors, "means": dict[str, list[float]],
               "stds": dict[str, list[float]], "n_features": int}

    def _check(self):
        _check_labels(self, self.priors.probabilities.keys())
        rows = [*self.means.values(), *self.stds.values()]
        if any(len(row) != self.n_features for row in rows):
            raise ValueError("means and stds rows must have n_features entries")
        if not all(math.isfinite(x) for row in rows for x in row):
            raise ValueError("means and stds must be finite numbers")
        if not all(sd > 0 for row in self.stds.values() for sd in row):
            raise ValueError("stds must be > 0")

    def log_likelihood(self, row: Sequence[float], label: str) -> float:
        if isinstance(row, SparseVector):
            raise TypeError("gaussian model expects a sequence of real features")
        if len(row) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {len(row)}")
        mu, sd = self.means[label], self.stds[label]
        return sum(gaussian_log_density(x, mu[k], sd[k]) for k, x in enumerate(row))


_SIGMA_FLOOR = 1e-9


def fit_gaussian(
    feature_rows: Sequence[Sequence[float]], labels: Sequence[str]
) -> GaussianModel:
    n_features = _row_width(feature_rows, labels)
    priors = fit_priors(labels)
    by_class: dict[str, list[Sequence[float]]] = {lab: [] for lab in priors.labels}
    for row, lab in zip(feature_rows, labels):
        by_class[lab].append(row)
    means: dict[str, list[float]] = {}
    stds: dict[str, list[float]] = {}
    for lab, rows in by_class.items():
        n = len(rows)
        if n < 2:
            raise ValueError(f"class {lab!r} has fewer than 2 samples")
        # added left to right on every interpreter: since 3.12 sum() compensates
        mu = [reduce(add, (r[k] for r in rows), 0) / n for k in range(n_features)]
        var = [reduce(add, ((r[k] - mu[k]) ** 2 for r in rows), 0) / n
               for k in range(n_features)]
        means[lab] = mu
        stds[lab] = [max(math.sqrt(v), _SIGMA_FLOOR) for v in var]
    return GaussianModel(priors, means, stds, n_features)


def gaussian_log_density(x: float, mu: float, sigma: float) -> float:
    z = (x - mu) / sigma
    return -0.5 * z * z - math.log(sigma * math.sqrt(2.0 * math.pi))


NaiveBayesModel = CategoricalModel | BernoulliModel | MultinomialModel | GaussianModel


class PosteriorReport(Record):
    """Per-class log-scores and normalized posteriors for one input.

    degenerate_evidence is set when every class scored -inf; posteriors
    are then reported uniform and the prediction falls back to the prior.
    """

    _shapes = dict.fromkeys(("log_scores", "posteriors", "predicted", "degenerate_evidence"),
                            object)  # posterior_scores alone builds a report
    _defaults = {"degenerate_evidence": False}


def posterior_scores(model: NaiveBayesModel, x) -> PosteriorReport:
    """Log prior + log likelihood per class, normalized by shifted
    exponentiation. All-(-inf) inputs yield uniform posteriors with the
    degenerate flag set, and the prediction falls back to the prior."""
    priors = model.priors
    log_priors = priors.log_probabilities
    scores = {
        label: log_priors[label] + model.log_likelihood(x, label)
        for label in priors.labels
    }
    best = max(scores.values())
    if best == -math.inf:
        n = len(scores)
        posteriors = {label: 1.0 / n for label in scores}
        degenerate = True
    else:
        shifted = {label: math.exp(s - best) for label, s in scores.items()}
        z = sum(shifted.values())
        posteriors = {label: v / z for label, v in shifted.items()}
        degenerate = False
    predicted = min(
        scores,
        key=lambda label: (-scores[label], -priors.probabilities[label], label),
    )
    return PosteriorReport(scores, posteriors, predicted, degenerate)


def classify(model: NaiveBayesModel, x) -> str:
    """Argmax-posterior label; ties broken toward the larger prior, then
    the lexicographically smallest label."""
    return posterior_scores(model, x).predicted
