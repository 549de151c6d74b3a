"""Model fitting, log-space scoring, and the decision rule.

Golden values come from the color/shape toy dataset (exact fractions) and
hand-evaluated estimator formulas; distributional invariants are checked
with hypothesis; categorical posteriors are cross-validated against a
brute-force oracle that never leaves plain probability space.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbtext.models import (
    BernoulliModel,
    CategoricalModel,
    ClassPriors,
    GaussianModel,
    MultinomialModel,
    classify,
    fit_bernoulli,
    fit_categorical,
    fit_gaussian,
    fit_multinomial,
    fit_priors,
    gaussian_log_density,
    posterior_scores,
)
from nbtext.vectorize import (
    BINARY,
    NORMALIZED_TF,
    RAW_COUNT,
    TFIDF,
    SparseVector,
    build_vocabulary,
    vectorize,
)
from oracles import (
    bernoulli_log_likelihood_oracle,
    categorical_posteriors_oracle,
    gaussian_density_oracle,
    multinomial_log_likelihood_oracle,
)

EXACT = 1e-12


class TestPriors:
    def test_toy_priors(self, toy_shapes):
        _, labels = toy_shapes
        priors = fit_priors(labels)
        assert priors.probabilities["+"] == pytest.approx(7 / 12, abs=EXACT)
        assert priors.probabilities["-"] == pytest.approx(5 / 12, abs=EXACT)
        # rounded presentation
        assert priors.probabilities["+"] == pytest.approx(0.58, abs=5e-3)
        assert priors.probabilities["-"] == pytest.approx(0.42, abs=5e-3)

    def test_single_class(self):
        assert fit_priors(["s", "s"]).probabilities == {"s": 1.0}

    def test_simple_frequencies(self):
        priors = fit_priors(["spam", "ham", "ham", "ham"])
        assert priors.probabilities == {"spam": 0.25, "ham": 0.75}
        assert priors.counts == {"spam": 1, "ham": 3}
        assert priors.total == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_priors([])

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassPriors({"a": 0.6, "b": 0.6})
        with pytest.raises(ValueError):
            ClassPriors({"a": 0.0, "b": 1.0})
        with pytest.raises(ValueError):
            ClassPriors({})
        with pytest.raises(ValueError, match="counts and total must be supplied together"):
            ClassPriors({"a": 1.0}, {"a": 1})

    @pytest.mark.parametrize("probabilities,counts,total,message", [
        ({"a": 0.5, "b": 0.5}, {"a": 1, "b": 3}, 4,
         "each prior must be its class count over the total"),
        ({"a": 1.0}, {"a": 3}, 5, "priors total 5 is not the sum of the counts"),
        ({"a": 1.0}, {"a": 2}, 2.0, r"^ClassPriors\.total must be int \| None$"),
        ({"a": 1.0}, {"a": 1.5}, 1.5, r"^ClassPriors\.counts must be dict\[str, int\] \| None$"),
        ({"a": 1.0}, {"a": True}, 1, r"^ClassPriors\.counts must be dict\[str, int\] \| None$"),
        ({"a": 0.5, "b": 0.5}, {"a": -1, "b": -1}, -2, "class sample counts must be >= 1"),
        ({"a": 1.0}, {"b": 1}, 1, r"counts has labels \['b'\], not \['a'\]"),
        ({"a": 0.5, "b": 0.5}, {"a": 1}, 1, r"counts has labels \['a'\], not \['a', 'b'\]"),
    ], ids=["shares-disagree", "total-not-sum", "total-float", "count-fractional",
            "count-true", "counts-negative", "label-other", "label-missing"])
    def test_counts_must_be_what_the_probabilities_count(
        self, probabilities, counts, total, message
    ):
        with pytest.raises(ValueError, match=message):
            ClassPriors(probabilities, counts, total)

    def test_counted_priors_are_what_from_counts_computes(self):
        counted = ClassPriors({"a": 0.25, "b": 0.75}, {"a": 1, "b": 3}, 4)
        assert counted == ClassPriors.from_counts({"a": 1, "b": 3})

    def test_forced_probabilities_have_no_counts(self):
        priors = ClassPriors({"a": 0.5, "b": 0.5})
        assert priors.counts is None and priors.total is None


class TestCategorical:
    def test_toy_conditionals(self, toy_shapes):
        model = fit_categorical(*toy_shapes, alpha=0.0)
        assert model.conditional(0, "+", "blue") == pytest.approx(3 / 7, abs=EXACT)
        assert model.conditional(1, "+", "square") == pytest.approx(5 / 7, abs=EXACT)
        assert model.conditional(0, "-", "blue") == pytest.approx(3 / 5, abs=EXACT)
        assert model.conditional(1, "-", "square") == pytest.approx(3 / 5, abs=EXACT)

    def test_toy_likelihoods(self, toy_shapes):
        model = fit_categorical(*toy_shapes, alpha=0.0)
        lik_pos = math.exp(model.log_likelihood(("blue", "square"), "+"))
        lik_neg = math.exp(model.log_likelihood(("blue", "square"), "-"))
        assert lik_pos == pytest.approx(15 / 49, abs=EXACT)
        assert lik_neg == pytest.approx(9 / 25, abs=EXACT)
        assert lik_pos == pytest.approx(0.31, abs=5e-3)
        assert lik_neg == pytest.approx(0.36, abs=5e-3)

    def test_unseen_value_unsmoothed_zeroes_both_classes(self, toy_shapes):
        model = fit_categorical(*toy_shapes, alpha=0.0)
        report = posterior_scores(model, ("yellow", "square"))
        assert report.log_scores["+"] == -math.inf
        assert report.log_scores["-"] == -math.inf
        assert math.exp(report.log_scores["+"]) == 0.0
        assert report.degenerate_evidence

    def test_smoothed_two_value_position(self):
        model = fit_categorical([("a",), ("a",), ("b",)], ["c", "c", "c"], alpha=1.0)
        assert model.conditional(0, "c", "a") == pytest.approx(0.6, abs=EXACT)
        assert model.conditional(0, "c", "b") == pytest.approx(0.4, abs=EXACT)

    def test_smoothed_unseen_value_extends_domain(self):
        model = fit_categorical([("a",), ("a",), ("b",)], ["c", "c", "c"], alpha=1.0)
        # unseen value: numerator alpha, denominator counts it as a third value
        assert model.conditional(0, "c", "z") == pytest.approx(1 / 6, abs=EXACT)

    def test_inconsistent_arity_rejected(self):
        with pytest.raises(ValueError):
            fit_categorical([("a", "b"), ("a",)], ["x", "y"])

    def test_negative_alpha_rejected(self, toy_shapes):
        with pytest.raises(ValueError):
            fit_categorical(*toy_shapes, alpha=-0.1)

    def test_conditionals_sum_to_one_over_domain(self, toy_shapes):
        for alpha in (0.0, 0.5, 1.0):
            model = fit_categorical(*toy_shapes, alpha=alpha)
            for pos in range(model.n_positions):
                for label in model.priors.labels:
                    total = sum(
                        model.conditional(pos, label, v)
                        for v in model.domains[pos]
                    )
                    assert total == pytest.approx(1.0, abs=1e-9)


class TestToyDecision:
    def test_unnormalized_posteriors_and_prediction(self, toy_shapes):
        model = fit_categorical(*toy_shapes, alpha=0.0)
        report = posterior_scores(model, ("blue", "square"))
        assert math.exp(report.log_scores["+"]) == pytest.approx(5 / 28, abs=EXACT)
        assert math.exp(report.log_scores["-"]) == pytest.approx(3 / 20, abs=EXACT)
        assert math.exp(report.log_scores["+"]) == pytest.approx(0.18, abs=5e-3)
        assert math.exp(report.log_scores["-"]) == pytest.approx(0.15, abs=5e-3)
        assert report.predicted == "+"
        assert not report.degenerate_evidence

    def test_normalized_posteriors(self, toy_shapes):
        model = fit_categorical(*toy_shapes, alpha=0.0)
        post = posterior_scores(model, ("blue", "square")).posteriors
        expected_pos = (5 / 28) / (5 / 28 + 3 / 20)
        assert post["+"] == pytest.approx(expected_pos, abs=1e-12)
        assert post["+"] == pytest.approx(0.5435, abs=5e-4)
        assert sum(post.values()) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_priors_flip_the_decision(self, toy_shapes):
        model = fit_categorical(*toy_shapes, alpha=0.0)
        flipped = CategoricalModel(
            ClassPriors({"+": 0.5, "-": 0.5}),
            model.value_counts, model.class_counts, model.alpha,
        )
        assert classify(model, ("blue", "square")) == "+"
        assert classify(flipped, ("blue", "square")) == "-"

    def test_exact_tie_breaks_lexicographically(self):
        samples = [("x",), ("y",), ("x",), ("y",)]
        labels = ["a", "a", "b", "b"]
        model = fit_categorical(samples, labels, alpha=0.0)
        report = posterior_scores(model, ("x",))
        assert report.log_scores["a"] == report.log_scores["b"]
        assert report.predicted == "a"

    def test_degenerate_tie_prefers_larger_prior(self):
        samples = [("x",)] * 3 + [("x",)]
        labels = ["b"] * 3 + ["a"]
        model = fit_categorical(samples, labels, alpha=0.0)
        report = posterior_scores(model, ("unseen",))
        assert report.degenerate_evidence
        assert set(report.posteriors.values()) == {0.5}
        assert report.predicted == "b"


class TestBernoulli:
    def _fit(self, docs, labels, words):
        streams = [d.split() for d in docs]
        vocab = build_vocabulary([words.split()])
        vecs = [vectorize(s, vocab, BINARY) for s in streams]
        return fit_bernoulli(vecs, labels, vocab), vocab

    def test_two_of_three_documents(self):
        model, vocab = self._fit(
            ["hit", "hit", "miss"], ["j", "j", "j"], "hit miss"
        )
        assert model.conditional("j", vocab.token_to_id["hit"]) == pytest.approx(
            0.6, abs=EXACT
        )

    def test_absent_word_stays_positive(self):
        model, vocab = self._fit(["a", "a", "a"], ["j"] * 3, "a ghost")
        assert model.conditional("j", vocab.token_to_id["ghost"]) == pytest.approx(
            1 / 5, abs=EXACT
        )

    def test_ubiquitous_word_stays_below_one(self):
        model, vocab = self._fit(["a", "a", "a"], ["j"] * 3, "a ghost")
        assert model.conditional("j", vocab.token_to_id["a"]) == pytest.approx(
            4 / 5, abs=EXACT
        )

    def test_presence_and_absence_terms(self):
        # single word with estimate 0.6: present -> log 0.6, absent -> log 0.4
        model, vocab = self._fit(["w", "w", ""], ["j", "j", "j"], "w")
        present = SparseVector({0: 1}, 1)
        absent = SparseVector({}, 0)
        assert model.log_likelihood(present, "j") == pytest.approx(
            math.log(0.6), abs=EXACT
        )
        assert model.log_likelihood(absent, "j") == pytest.approx(
            math.log(0.4), abs=EXACT
        )

    def test_non_binary_vector_rejected(self):
        vocab = build_vocabulary([["w"]])
        with pytest.raises(ValueError):
            fit_bernoulli([SparseVector({0: 2}, 2)], ["j"], vocab)


class TestMultinomial:
    def test_hand_smoothed_conditionals(self):
        vocab = build_vocabulary([["t0", "t1", "t2"]])
        vecs = [SparseVector({0: 5, 1: 3}, 8)]
        model = fit_multinomial(vecs, ["c"], vocab, alpha=1.0)
        assert model.conditional("c", 0) == pytest.approx(6 / 11, abs=EXACT)
        assert model.conditional("c", 1) == pytest.approx(4 / 11, abs=EXACT)
        assert model.conditional("c", 2) == pytest.approx(1 / 11, abs=EXACT)

    def test_unsmoothed_zero(self):
        vocab = build_vocabulary([["t0", "t1"]])
        model = fit_multinomial([SparseVector({0: 2}, 2)], ["c"], vocab, alpha=0.0)
        assert model.conditional("c", 1) == 0.0
        vec = SparseVector({1: 1}, 1)
        assert model.log_likelihood(vec, "c") == -math.inf

    def test_tiny_alpha_keeps_an_unseen_token_finite(self):
        # the unseen token's estimate is ~5e-306: tiny, but its log is finite
        vocab = build_vocabulary([["t0", "t1"]])
        model = fit_multinomial([SparseVector({0: 2}, 2)], ["c"], vocab, alpha=1e-305)
        p = model.conditional("c", 1)
        assert 0.0 < p < 1e-300
        score = model.log_likelihood(SparseVector({1: 1}, 1), "c")
        assert score == math.log(p) and math.isfinite(score)

    def test_spam_likelihood_product(self):
        # stored counts 20/100 and 2/100 give the "hello world" likelihood 0.004
        vocab = build_vocabulary([["hello", "world", "filler"]])
        spam_doc = SparseVector({0: 20, 1: 2, 2: 78}, 100)
        model = fit_multinomial([spam_doc], ["spam"], vocab, alpha=0.0)
        assert model.conditional("spam", 0) == pytest.approx(0.2, abs=EXACT)
        assert model.conditional("spam", 1) == pytest.approx(0.02, abs=EXACT)
        query = SparseVector({0: 1, 1: 1}, 2)
        likelihood = math.exp(model.log_likelihood(query, "spam"))
        assert likelihood == pytest.approx(0.004, abs=EXACT)

    def test_empty_input_scores_zero(self):
        vocab = build_vocabulary([["w"]])
        model = fit_multinomial([SparseVector({0: 1}, 1)], ["c"], vocab, alpha=1.0)
        assert model.log_likelihood(SparseVector({}, 0), "c") == 0.0

    def test_negative_alpha_rejected(self):
        vocab = build_vocabulary([["w"]])
        with pytest.raises(ValueError):
            fit_multinomial([SparseVector({0: 1}, 1)], ["c"], vocab, alpha=-1.0)

    def test_fractional_counts_accepted(self):
        vocab = build_vocabulary([["a", "b"]])
        vecs = [SparseVector({0: 0.5, 1: 0.5}, 2)]
        model = fit_multinomial(vecs, ["c"], vocab, alpha=0.5)
        total = model.conditional("c", 0) + model.conditional("c", 1)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestGaussian:
    def test_mean_and_population_std(self):
        model = fit_gaussian([[4.0], [6.0]], ["c", "c"])
        assert model.means["c"] == [5.0]
        assert model.stds["c"] == [1.0]

    def test_zero_variance_floored(self):
        model = fit_gaussian([[3.0], [3.0]], ["c", "c"])
        assert model.stds["c"][0] == 1e-9
        assert math.isfinite(model.log_likelihood([3.0], "c"))

    def test_density_peak(self):
        peak = math.exp(gaussian_log_density(5.0, 5.0, 1.0))
        assert peak == pytest.approx(1 / math.sqrt(2 * math.pi), abs=EXACT)

    def test_density_agrees_with_direct_formula(self):
        for x, mu, sigma in [(0.4, 0.0, 1.0), (-2.0, 1.5, 0.7), (9.0, 9.0, 3.0)]:
            direct = gaussian_density_oracle(x, mu, sigma)
            assert math.exp(gaussian_log_density(x, mu, sigma)) == pytest.approx(
                direct, rel=1e-12
            )

    def test_under_two_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_gaussian([[1.0], [2.0], [3.0]], ["a", "a", "b"])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_gaussian([[1.0, 2.0], [1.0]], ["a", "a"])

    def test_quadrature_integrates_to_one(self):
        from scipy.integrate import quad

        for mu, sigma in [(0.0, 1.0), (3.5, 0.25), (-7.0, 4.0)]:
            area, _ = quad(
                lambda x: math.exp(gaussian_log_density(x, mu, sigma)),
                mu - 8 * sigma,
                mu + 8 * sigma,
            )
            assert area == pytest.approx(1.0, abs=1e-6)


class TestInputValidation:
    def test_variant_input_mismatch(self, toy_shapes):
        cat = fit_categorical(*toy_shapes, alpha=0.0)
        vocab = build_vocabulary([["w"]])
        multi = fit_multinomial([SparseVector({0: 1}, 1)], ["c"], vocab, alpha=1.0)
        with pytest.raises(TypeError):
            cat.log_likelihood(SparseVector({0: 1}, 1), "+")
        with pytest.raises(TypeError):
            multi.log_likelihood(("blue", "square"), "c")

    def test_wrong_arity_query(self, toy_shapes):
        model = fit_categorical(*toy_shapes, alpha=0.0)
        with pytest.raises(ValueError):
            model.log_likelihood(("blue",), "+")

    @pytest.mark.parametrize("row,error,message", [
        (SparseVector({0: 1}, 1), TypeError, "sequence of real features"),
        ([1.0, 2.0], ValueError, "expected 1 features, got 2"),
    ], ids=["sparse-vector", "wrong-width"])
    def test_gaussian_query_shape(self, row, error, message):
        model = fit_gaussian([[4.0], [6.0]], ["c", "c"])
        with pytest.raises(error, match=message):
            model.log_likelihood(row, "c")

    @pytest.mark.parametrize("fit", [fit_bernoulli, fit_multinomial])
    @pytest.mark.parametrize("labels", [[], ["a"], ["a", "b", "a"]],
                             ids=["none", "fewer", "more"])
    def test_vectors_and_labels_must_pair_up(self, fit, labels):
        vocab = build_vocabulary([["w", "v"]])
        vecs = [vectorize(["w"], vocab, BINARY), vectorize(["v"], vocab, BINARY)]
        with pytest.raises(ValueError):
            fit(vecs, labels, vocab)


class TestAlphaRule:
    """Every smoothed model holds one rule: alpha is a finite int or float >= 0
    and no smoothed denominator overflows, whoever builds the model."""

    BAD = [math.nan, math.inf, -1.0, -1, "1", True, None]

    @pytest.mark.parametrize("alpha", BAD)
    def test_fit_multinomial_refuses(self, alpha):
        vocab = build_vocabulary([["w"]])
        with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
            fit_multinomial([SparseVector({0: 1}, 1)], ["c"], vocab, alpha=alpha)

    @pytest.mark.parametrize("alpha", BAD)
    def test_fit_categorical_refuses(self, toy_shapes, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
            fit_categorical(*toy_shapes, alpha=alpha)

    @pytest.mark.parametrize("alpha", BAD)
    def test_models_refuse_when_built_directly(self, alpha):
        priors = ClassPriors.from_counts({"c": 1})
        with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
            MultinomialModel(priors, {"c": {0: 1.0}}, {"c": 1.0}, 1, alpha)
        with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
            CategoricalModel(priors, ({"c": {"a": 1}},), {"c": 1}, alpha)

    def test_an_overflowing_denominator_is_refused(self, toy_shapes):
        # class total + 1e308 * 2 is inf: every estimate would be 0 and every
        # class would score -inf, leaving only the prior
        vocab = build_vocabulary([["a", "b"]])
        with pytest.raises(ValueError, match="alpha 1e\\+308 is too large"):
            fit_multinomial([SparseVector({0: 1}, 2)], ["c"], vocab, alpha=1e308)
        with pytest.raises(ValueError, match="alpha 1e\\+308 is too large"):
            fit_categorical(*toy_shapes, alpha=1e308)

    def test_the_largest_alpha_that_fits_is_kept(self):
        vocab = build_vocabulary([["a"]])
        model = fit_multinomial([SparseVector({0: 1}, 1)], ["c"], vocab, alpha=1e308)
        assert model.conditional("c", 0) == pytest.approx(1.0)


class TestLabelRule:
    """Every table a model keeps per class is keyed by its priors' labels, so a
    model that builds can score every class and its archive loads."""

    PRIORS = ClassPriors.from_counts({"a": 2, "b": 2})

    @pytest.mark.parametrize("build,message", [
        (lambda p: MultinomialModel(p, {"a": {0: 1.0}}, {"a": 1.0, "b": 0.0}, 1, 1.0),
         r"tf_sums has labels \['a'\], not \['a', 'b'\]"),
        (lambda p: MultinomialModel(
            p, {"a": {0: 1.0}, "b": {}}, {"a": 1.0, "b": 0.0, "c": 0.0}, 1, 1.0),
         r"class_totals has labels \['a', 'b', 'c'\], not \['a', 'b'\]"),
        (lambda p: BernoulliModel(p, {"a": [1], "b": [0]}, {"a": 2}, 1),
         r"class_doc_counts has labels \['a'\], not \['a', 'b'\]"),
        (lambda p: GaussianModel(p, {"a": [0.0]}, {"a": [1.0], "b": [1.0]}, 1),
         r"means has labels \['a'\], not \['a', 'b'\]"),
        (lambda p: CategoricalModel(
            p, ({"a": {"x": 2}, "b": {"x": 2}}, {"a": {"x": 2}}), {"a": 2, "b": 2}, 0.0),
         r"value_counts has labels \['a'\], not \['a', 'b'\]"),
        (lambda p: CategoricalModel(p, ({"a": {"x": 2}, "b": {"x": 2}},), {"a": 2}, 0.0),
         r"class_counts has labels \['a'\], not \['a', 'b'\]"),
    ], ids=["tf_sums", "class_totals", "class_doc_counts", "means", "value_counts",
            "class_counts"])
    def test_a_table_not_keyed_by_the_prior_labels_is_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build(self.PRIORS)

    def test_forced_priors_hold_tables_to_their_labels_too(self):
        with pytest.raises(ValueError, match="stds has labels"):
            GaussianModel(ClassPriors({"a": 1.0}), {"a": [0.0]}, {"b": [1.0]}, 1)


WORDS = [f"w{i}" for i in range(8)]
CLASSES = ["c1", "c2", "c3"]


@st.composite
def text_corpus(draw, min_docs=1, max_docs=10):
    n = draw(st.integers(min_docs, max_docs))
    streams = [
        draw(st.lists(st.sampled_from(WORDS), max_size=12)) for _ in range(n)
    ]
    labels = [draw(st.sampled_from(CLASSES)) for _ in range(n)]
    return streams, labels


@st.composite
def gaussian_corpus(draw):
    n_features = draw(st.integers(1, 3))
    rows, labels = [], []
    for c in range(draw(st.integers(2, 3))):
        for _ in range(draw(st.integers(2, 4))):
            rows.append(
                [draw(st.floats(-5, 5, allow_nan=False)) for _ in range(n_features)]
            )
            labels.append(f"g{c}")
    return rows, labels, n_features


def _posterior_argmax(report, priors):
    return min(
        report.posteriors,
        key=lambda c: (-report.posteriors[c], -priors.probabilities[c], c),
    )


class TestDistributionalInvariants:
    @settings(max_examples=150, deadline=None)
    @given(text_corpus(), st.sampled_from([0.1, 0.5, 1.0]))
    def test_multinomial_conditionals_normalize(self, corpus, alpha):
        streams, labels = corpus
        vocab = build_vocabulary(streams)
        vecs = [vectorize(s, vocab, RAW_COUNT) for s in streams]
        model = fit_multinomial(vecs, labels, vocab, alpha)
        for label in model.priors.labels:
            total = sum(
                model.conditional(label, i) for i in range(len(vocab))
            )
            if len(vocab) > 0:
                assert total == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(text_corpus())
    def test_bernoulli_estimates_strictly_inside_unit_interval(self, corpus):
        streams, labels = corpus
        vocab = build_vocabulary(streams)
        vecs = [vectorize(s, vocab, BINARY) for s in streams]
        model = fit_bernoulli(vecs, labels, vocab)
        for label in model.priors.labels:
            for i in range(len(vocab)):
                assert 0.0 < model.conditional(label, i) < 1.0

    @settings(max_examples=150, deadline=None)
    @given(text_corpus(), st.lists(st.sampled_from(WORDS), max_size=10))
    def test_evidence_cancellation_multinomial(self, corpus, query):
        streams, labels = corpus
        vocab = build_vocabulary(streams)
        vecs = [vectorize(s, vocab, RAW_COUNT) for s in streams]
        model = fit_multinomial(vecs, labels, vocab, alpha=1.0)
        report = posterior_scores(model, vectorize(query, vocab, RAW_COUNT))
        assert report.predicted == _posterior_argmax(report, model.priors)
        assert sum(report.posteriors.values()) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(text_corpus(), st.lists(st.sampled_from(WORDS), max_size=10))
    def test_evidence_cancellation_bernoulli(self, corpus, query):
        streams, labels = corpus
        vocab = build_vocabulary(streams)
        vecs = [vectorize(s, vocab, BINARY) for s in streams]
        model = fit_bernoulli(vecs, labels, vocab)
        report = posterior_scores(model, vectorize(query, vocab, BINARY))
        assert report.predicted == _posterior_argmax(report, model.priors)

    @settings(max_examples=150, deadline=None)
    @given(gaussian_corpus(), st.data())
    def test_evidence_cancellation_gaussian(self, corpus, data):
        rows, labels, n_features = corpus
        model = fit_gaussian(rows, labels)
        query = [
            data.draw(st.floats(-6, 6, allow_nan=False)) for _ in range(n_features)
        ]
        report = posterior_scores(model, query)
        assert report.predicted == _posterior_argmax(report, model.priors)

    @settings(max_examples=100, deadline=None)
    @given(text_corpus(min_docs=2), st.lists(st.sampled_from(WORDS), max_size=8))
    def test_prior_monotonicity_two_class(self, corpus, query):
        streams, labels = corpus
        # collapse to exactly two classes
        labels = ["c1" if lab == "c1" else "c2" for lab in labels]
        if len(set(labels)) < 2:
            labels[0] = "c1"
            labels[-1] = "c2"
        vocab = build_vocabulary(streams)
        vecs = [vectorize(s, vocab, RAW_COUNT) for s in streams]
        model = fit_multinomial(vecs, labels, vocab, alpha=1.0)
        vec = vectorize(query, vocab, RAW_COUNT)
        grid = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95]
        decisions = []
        for p in grid:
            shifted = MultinomialModel(
                ClassPriors({"c1": p, "c2": 1 - p}),
                model.tf_sums, model.class_totals, model.vocab_size, model.alpha,
            )
            decisions.append(classify(shifted, vec))
        # once c1 wins at some prior it must keep winning at larger priors
        first_c1 = decisions.index("c1") if "c1" in decisions else len(decisions)
        assert all(d == "c1" for d in decisions[first_c1:])

    @settings(max_examples=100, deadline=None)
    @given(
        text_corpus(min_docs=1, max_docs=6),
        st.lists(st.sampled_from(WORDS), min_size=0, max_size=5),
    )
    def test_log_space_matches_direct_product(self, corpus, query):
        streams, labels = corpus
        vocab = build_vocabulary(streams)
        vecs = [vectorize(s, vocab, RAW_COUNT) for s in streams]
        model = fit_multinomial(vecs, labels, vocab, alpha=1.0)
        vec = vectorize(query, vocab, RAW_COUNT)
        report = posterior_scores(model, vec)
        for label in model.priors.labels:
            direct = model.priors.probabilities[label]
            for token_id, weight in vec.entries.items():
                direct *= model.conditional(label, token_id) ** weight
            assert math.exp(report.log_scores[label]) == pytest.approx(
                direct, rel=1e-9
            )

    @settings(max_examples=150, deadline=None)
    @given(
        text_corpus(),
        st.lists(st.sampled_from(WORDS), max_size=10),
        st.randoms(use_true_random=False),
    )
    def test_token_order_never_matters(self, corpus, query, rng):
        streams, labels = corpus
        vocab = build_vocabulary(streams)
        shuffled = list(query)
        rng.shuffle(shuffled)
        multi = fit_multinomial(
            [vectorize(s, vocab, RAW_COUNT) for s in streams], labels, vocab, 1.0
        )
        bern = fit_bernoulli(
            [vectorize(s, vocab, BINARY) for s in streams], labels, vocab
        )
        for model, mode in ((multi, RAW_COUNT), (bern, BINARY)):
            a = posterior_scores(model, vectorize(query, vocab, mode))
            b = posterior_scores(model, vectorize(shuffled, vocab, mode))
            assert a.log_scores == b.log_scores
            assert a.predicted == b.predicted


@st.composite
def categorical_domain(draw):
    n_positions = draw(st.integers(1, 3))
    domains = [
        [f"v{p}{i}" for i in range(draw(st.integers(1, 4)))]
        for p in range(n_positions)
    ]
    n = draw(st.integers(1, 20))
    samples = [
        tuple(draw(st.sampled_from(domains[p])) for p in range(n_positions))
        for _ in range(n)
    ]
    labels = [draw(st.sampled_from(["k1", "k2"])) for _ in range(n)]
    query = tuple(
        draw(st.sampled_from(domains[p] + ["zz"])) for p in range(n_positions)
    )
    return samples, labels, query


class TestCategoricalOracle:
    @settings(max_examples=200, deadline=None)
    @given(categorical_domain(), st.sampled_from([0.0, 0.5, 1.0]))
    def test_posteriors_match_brute_force(self, setup, alpha):
        samples, labels, query = setup
        model = fit_categorical(samples, labels, alpha)
        expected = categorical_posteriors_oracle(samples, labels, alpha, query)
        got = posterior_scores(model, query).posteriors
        assert set(got) == set(expected)
        for label in got:
            assert got[label] == pytest.approx(expected[label], abs=1e-12)


def _bernoulli_oracle(model, vec, label):
    return bernoulli_log_likelihood_oracle(
        model.doc_counts[label], model.class_doc_counts[label], set(vec.entries)
    )


def _large_bernoulli_model(seed, vocab_size=30_000):
    # skewed document frequencies, as a Zipf vocabulary gives
    rng = random.Random(seed)
    class_docs = {"ham": 17_300, "spam": 2_700}
    doc_counts = {
        label: [int(n * rng.random() ** 12) for _ in range(vocab_size)]
        for label, n in class_docs.items()
    }
    priors = ClassPriors(
        {label: n / 20_000 for label, n in class_docs.items()}, class_docs, 20_000
    )
    return BernoulliModel(priors, doc_counts, class_docs, vocab_size), rng


def _large_multinomial_model(seed, vocab_size=30_000):
    # fractional weights, as normalized tf and tf-idf give, on a share of the ids
    rng = random.Random(seed)
    class_docs = {"ham": 17_300, "spam": 2_700}
    tf_sums = {
        label: {i: 50 * rng.random() ** 6 for i in rng.sample(range(vocab_size), n // 2)}
        for label, n in class_docs.items()
    }
    totals = {label: math.fsum(sums.values()) for label, sums in tf_sums.items()}
    priors = ClassPriors(
        {label: n / 20_000 for label, n in class_docs.items()}, class_docs, 20_000
    )
    return MultinomialModel(priors, tf_sums, totals, vocab_size, 0.01), rng


class TestBernoulliScoring:
    """The per-class base term plus present-token log-odds, checked against a
    term-by-term sum over the whole vocabulary."""

    @settings(max_examples=150, deadline=None)
    @given(text_corpus(), st.lists(st.sampled_from(WORDS + ["oov"]), max_size=10))
    def test_matches_oracle(self, corpus, query):
        streams, labels = corpus
        vocab = build_vocabulary(streams)
        vecs = [vectorize(s, vocab, BINARY) for s in streams]
        model = fit_bernoulli(vecs, labels, vocab)
        vec = vectorize(query, vocab, BINARY)
        for label in model.priors.labels:
            assert model.log_likelihood(vec, label) == pytest.approx(
                _bernoulli_oracle(model, vec, label), abs=1e-9
            )

    def test_large_vocabulary_matches_oracle(self):
        model, rng = _large_bernoulli_model(seed=3)
        for _ in range(10):
            ids = rng.sample(range(model.vocab_size), rng.randint(0, 40))
            vec = SparseVector(dict.fromkeys(ids, 1), len(ids))
            for label in model.priors.labels:
                assert model.log_likelihood(vec, label) == pytest.approx(
                    _bernoulli_oracle(model, vec, label), abs=1e-9
                )

    @pytest.mark.parametrize(
        "make_model",
        [_large_bernoulli_model, _large_multinomial_model],
        ids=["bernoulli", "multinomial"],
    )
    def test_token_permutation_is_bit_identical(self, make_model):
        model, rng = make_model(seed=8)
        for _ in range(20):
            ids = rng.sample(range(model.vocab_size), 30)
            first = posterior_scores(model, SparseVector(dict.fromkeys(ids, 1), 30))
            for _ in range(5):
                rng.shuffle(ids)
                again = posterior_scores(model, SparseVector(dict.fromkeys(ids, 1), 30))
                assert again.log_scores == first.log_scores

    def test_ids_outside_the_vocabulary_add_nothing(self):
        model, _ = _large_bernoulli_model(seed=1, vocab_size=50)
        inside = SparseVector({0: 1, 7: 1, 49: 1}, 3)
        outside = SparseVector({-1: 1, 0: 1, 7: 1, 49: 1, 50: 1, 10**6: 1, -50: 1}, 7)
        for label in model.priors.labels:
            assert model.log_likelihood(outside, label) == model.log_likelihood(inside, label)

    @pytest.mark.parametrize("doc_counts,class_docs", [
        ({"j": [-5, 0]}, {"j": 3}),
        ({"j": [4, 0]}, {"j": 3}),
        ({"j": [1.0, 0]}, {"j": 3}),
        ({"j": [1, 0]}, {"j": -1}),
        ({"j": [1, 0]}, {"j": 3.0}),
    ], ids=["negative", "above-class-docs", "float", "negative-docs", "float-docs"])
    def test_counts_out_of_range_rejected(self, doc_counts, class_docs):
        priors = ClassPriors({"j": 1.0}, {"j": 3}, 3)
        with pytest.raises(ValueError, match="doc_counts"):
            BernoulliModel(priors, doc_counts, class_docs, 2)


class TestMultinomialScoring:
    """The per-class table of log estimates, checked against a term-by-term
    sum over dense count rows."""

    @settings(max_examples=150, deadline=None)
    @given(
        text_corpus(),
        st.lists(st.sampled_from(WORDS + ["oov"]), max_size=10),
        st.sampled_from([RAW_COUNT, NORMALIZED_TF, TFIDF]),
        st.sampled_from([0.0, 0.01, 1.0]),
    )
    def test_matches_oracle(self, corpus, query, mode, alpha):
        streams, labels = corpus
        vocab = build_vocabulary(streams)
        vecs = [vectorize(s, vocab, mode) for s in streams]
        model = fit_multinomial(vecs, labels, vocab, alpha)
        vec = vectorize(query, vocab, mode)

        def dense(v):
            return [v.entries.get(i, 0.0) for i in range(len(vocab))]

        rows = [dense(v) for v in vecs]
        for label in model.priors.labels:
            expected = multinomial_log_likelihood_oracle(
                rows, labels, alpha, dense(vec), label
            )
            assert model.log_likelihood(vec, label) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_ids_outside_the_vocabulary_score_as_unseen(self, alpha):
        vocab = build_vocabulary([["a", "b", "c"]])
        model = fit_multinomial([SparseVector({0: 3, 1: 1}, 4)], ["j"], vocab, alpha)
        den = 4 + 3 * alpha
        for i in (2, 3, 10**6, -1):  # 2 is in the vocabulary but never seen
            got = model.log_likelihood(SparseVector({0: 1, i: 2.5}, 4), "j")
            if alpha == 0:
                assert got == -math.inf
            else:
                expected = math.log((3 + alpha) / den) + 2.5 * math.log(alpha / den)
                assert got == pytest.approx(expected, abs=EXACT)

    def test_stored_zero_weight_scores_minus_inf_at_alpha_zero(self):
        priors = ClassPriors({"j": 1.0}, {"j": 2}, 2)
        model = MultinomialModel(priors, {"j": {0: 2.0, 1: 0.0}}, {"j": 2.0}, 2, 0.0)
        assert model.conditional("j", 1) == 0.0
        assert model.log_likelihood(SparseVector({1: 0.5}, 1), "j") == -math.inf
        assert model.log_likelihood(SparseVector({0: 3}, 3), "j") == 0.0

    def test_class_without_weight_or_smoothing_scores_minus_inf(self):
        # total + alpha * V is 0, so every estimate is 0/0, taken as zero
        vocab = build_vocabulary([["a", "b"], []])
        vecs = [SparseVector({0: 1, 1: 1}, 2), SparseVector({}, 0)]
        model = fit_multinomial(vecs, ["ham", "spam"], vocab, alpha=0.0)
        assert model.conditional("spam", 0) == 0.0
        assert model.log_likelihood(SparseVector({0: 1}, 1), "spam") == -math.inf
        assert model.log_likelihood(SparseVector({}, 0), "spam") == 0.0
        report = posterior_scores(model, SparseVector({0: 1}, 1))
        assert report.predicted == "ham" and report.posteriors["ham"] == 1.0

    def test_terms_past_the_float_range_score_minus_inf(self):
        # math.fsum raises OverflowError here rather than returning -inf
        vocab = build_vocabulary([["a", "b", "c"]])
        model = fit_multinomial([SparseVector({0: 1, 1: 1, 2: 1}, 3)], ["c"], vocab, 1.0)
        vec = SparseVector({0: 1e308, 1: 1e308}, 2)
        assert model.log_likelihood(vec, "c") == -math.inf
