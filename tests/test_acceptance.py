"""Release gate: thirteen end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get exactly one
pass/fail line per criterion. Expected values come from worked examples
verified by hand or from the independent oracles in oracles.py; tolerances
are stated inline. The SMS check skips with download instructions when the
public corpus is not present.
"""

import math
import os
import random
import time
from pathlib import Path

import pytest
from scipy.integrate import quad

from nbtext.archive import ModelArchive, load_archive, save_archive
from nbtext.evaluation import evaluate, load_corpus, split
from nbtext.models import (
    ClassPriors,
    classify,
    fit_bernoulli,
    fit_categorical,
    fit_gaussian,
    fit_multinomial,
    gaussian_log_density,
    posterior_scores,
)
from nbtext.pipeline import PipelineConfig, build_stop_list, run_pipeline, tokenize
from nbtext.porter import porter_stem
from nbtext.vectorize import (
    BINARY,
    RAW_COUNT,
    TFIDF,
    SparseVector,
    build_vocabulary,
    vectorize,
)

from oracles import categorical_posteriors_oracle

REPO_ROOT = Path(__file__).resolve().parents[1]

# Held-out accuracy measured on the first full run against the real corpus;
# None until that run has happened on this machine. Once set, reruns must
# land within +/- 0.02 of it.
PINNED_SMS_ACCURACY = None

QUERY = ("blue", "square")


def _force_priors(model, probabilities):
    rest = (getattr(model, name) for name in model._fields[1:])
    return type(model)(ClassPriors(probabilities), *rest)


def test_criterion_01_worked_example_golden_values(toy_shapes):
    started = time.perf_counter()
    samples, labels = toy_shapes
    model = fit_categorical(samples, labels, alpha=0.0)
    report = posterior_scores(model, QUERY)

    prior_pos = model.priors.probabilities["+"]
    prior_neg = model.priors.probabilities["-"]
    lik_pos = math.exp(model.log_likelihood(QUERY, "+"))
    lik_neg = math.exp(model.log_likelihood(QUERY, "-"))
    joint_pos = math.exp(report.log_scores["+"])
    joint_neg = math.exp(report.log_scores["-"])

    assert abs(prior_pos - 7 / 12) <= 1e-12
    assert abs(prior_neg - 5 / 12) <= 1e-12
    assert abs(lik_pos - 15 / 49) <= 1e-12
    assert abs(lik_neg - 9 / 25) <= 1e-12
    assert abs(joint_pos - 5 / 28) <= 1e-12
    assert abs(joint_neg - 3 / 20) <= 1e-12
    assert report.predicted == "+"

    # the two-decimal figures printed alongside the worked example
    for got, printed in [
        (prior_pos, 0.58),
        (prior_neg, 0.42),
        (lik_pos, 0.31),
        (lik_neg, 0.36),
        (joint_pos, 0.18),
        (joint_neg, 0.15),
    ]:
        assert abs(got - printed) <= 5e-3

    assert time.perf_counter() - started < 1.0


def test_criterion_02_uniform_priors_flip_prediction(toy_shapes):
    samples, labels = toy_shapes
    model = fit_categorical(samples, labels, alpha=0.0)
    assert classify(model, QUERY) == "+"
    flat = _force_priors(model, {"+": 0.5, "-": 0.5})
    assert classify(flat, QUERY) == "-"


def test_criterion_03_two_token_spam_likelihood():
    vocab = build_vocabulary([["hello", "world", "padding"]])
    training = SparseVector({0: 20, 1: 2, 2: 78}, 100)
    model = fit_multinomial([training], ["spam"], vocab, alpha=0.0)
    assert abs(model.conditional("spam", 0) - 20 / 100) <= 1e-12
    assert abs(model.conditional("spam", 1) - 2 / 100) <= 1e-12
    message = SparseVector({0: 1, 1: 1}, 2)
    likelihood = math.exp(model.log_likelihood(message, "spam"))
    assert abs(likelihood - 0.004) <= 1e-12


def test_criterion_04_bag_of_words_table():
    config = PipelineConfig()
    d1 = tokenize("Each state has its own laws.", config)
    d2 = tokenize("Every country has its own culture.", config)
    vocab = build_vocabulary([d1, d2])

    header = ["each", "state", "has", "its", "own",
              "laws", "every", "country", "culture"]
    assert vocab.tokens == header

    def dense(stream):
        vec = vectorize(stream, vocab, RAW_COUNT)
        return [int(vec.entries.get(i, 0)) for i in range(len(vocab))]

    row1 = dense(d1)
    row2 = dense(d2)
    assert row1 == [1, 1, 1, 1, 1, 1, 0, 0, 0]
    assert row2 == [0, 0, 1, 1, 1, 0, 1, 1, 1]
    aggregate = [a + b for a, b in zip(row1, row2)]
    assert aggregate == [1, 1, 2, 2, 2, 1, 1, 1, 1]


def test_criterion_05_stemmer_conformance(data_dir):
    assert porter_stem("swimming") == "swim"
    assert porter_stem("thus") == "thu"
    assert porter_stem("likes") == "like"
    assert porter_stem("swimmer") == "swimmer"

    pairs = []
    with open(data_dir / "porter_reference.tsv", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            word, stem = line.split("\t")
            pairs.append((word, stem))
    assert len(pairs) >= 100

    for word, stem in pairs:
        assert porter_stem(word) == stem, word
        assert porter_stem(stem) == stem, stem


def test_criterion_06_smoothed_conditionals_normalize():
    rng = random.Random(60006)
    for _ in range(200):
        pool = [f"t{i}" for i in range(rng.randint(2, 50))]
        n_docs = rng.randint(1, 8)
        streams = [
            [rng.choice(pool) for _ in range(rng.randint(1, 30))]
            for _ in range(n_docs)
        ]
        labels = [rng.choice("ab") for _ in range(n_docs)]
        vocab = build_vocabulary(streams)
        vectors = [vectorize(s, vocab, RAW_COUNT) for s in streams]
        alpha = rng.choice([0.1, 0.5, 1])
        model = fit_multinomial(vectors, labels, vocab, alpha=alpha)
        for label in model.priors.labels:
            total = sum(model.conditional(label, i) for i in range(len(vocab)))
            assert abs(total - 1.0) <= 1e-9


def test_criterion_07_presence_estimates_inside_unit_interval():
    rng = random.Random(70007)
    for _ in range(200):
        pool = [f"t{i}" for i in range(rng.randint(2, 30))]
        n_docs = rng.randint(1, 10)
        streams = [
            [rng.choice(pool) for _ in range(rng.randint(1, 15))]
            for _ in range(n_docs)
        ]
        labels = [rng.choice("ab") for _ in range(n_docs)]
        vocab = build_vocabulary(streams)
        vectors = [vectorize(s, vocab, BINARY) for s in streams]
        model = fit_bernoulli(vectors, labels, vocab)
        for label in model.priors.labels:
            for token_id in range(len(vocab)):
                p = model.conditional(label, token_id)
                assert 0.0 < p < 1.0


def _argmax(scores):
    return min(scores, key=lambda label: (-scores[label], label))


def test_criterion_08_decision_invariant_to_normalization():
    rng = random.Random(80008)
    pool = [f"t{i}" for i in range(25)]
    streams = [
        [rng.choice(pool) for _ in range(rng.randint(2, 20))] for _ in range(40)
    ]
    labels = [rng.choice(("ham", "spam", "junk")) for _ in range(40)]
    vocab = build_vocabulary(streams)

    multinomial = fit_multinomial(
        [vectorize(s, vocab, RAW_COUNT) for s in streams], labels, vocab, alpha=1.0
    )
    bernoulli = fit_bernoulli(
        [vectorize(s, vocab, BINARY) for s in streams], labels, vocab
    )
    cat_rows = [
        [rng.choice("xyz"), rng.choice("pq"), rng.choice("lmn")] for _ in range(30)
    ]
    cat_labels = [rng.choice(("a", "b")) for _ in range(30)]
    categorical = fit_categorical(cat_rows, cat_labels, alpha=1.0)
    gauss_rows = [
        [rng.gauss(0, 2), rng.gauss(1, 1)] for _ in range(30)
    ]
    gauss_labels = [rng.choice(("lo", "hi")) for _ in range(30)]
    gaussian = fit_gaussian(gauss_rows, gauss_labels)

    def random_input(variant):
        if variant is multinomial:
            stream = [rng.choice(pool + ["oov"]) for _ in range(rng.randint(1, 15))]
            return vectorize(stream, vocab, RAW_COUNT)
        if variant is bernoulli:
            stream = [rng.choice(pool + ["oov"]) for _ in range(rng.randint(1, 15))]
            return vectorize(stream, vocab, BINARY)
        if variant is categorical:
            return [rng.choice("xyzw"), rng.choice("pqr"), rng.choice("lmno")]
        return [rng.gauss(0, 3), rng.gauss(0, 3)]

    for model in (categorical, bernoulli, multinomial, gaussian):
        for _ in range(1000):
            report = posterior_scores(model, random_input(model))
            assert _argmax(report.log_scores) == _argmax(report.posteriors)


def test_criterion_09_higher_prior_never_flips_away():
    rng = random.Random(90009)
    grid = [i / 20 for i in range(1, 20)]

    def monotone_under_prior_sweep(model, inputs):
        for x in inputs:
            was_first = False
            for p in grid:
                swept = _force_priors(model, {"w1": p, "w2": 1.0 - p})
                is_first = classify(swept, x) == "w1"
                assert not (was_first and not is_first), (x, p)
                was_first = is_first

    for _ in range(3):
        pool = [f"t{i}" for i in range(15)]
        streams = [
            [rng.choice(pool) for _ in range(rng.randint(2, 12))] for _ in range(24)
        ]
        labels = [rng.choice(("w1", "w2")) for _ in range(24)]
        vocab = build_vocabulary(streams)
        vectors = [vectorize(s, vocab, RAW_COUNT) for s in streams]
        model = fit_multinomial(vectors, labels, vocab, alpha=1.0)
        inputs = [
            vectorize([rng.choice(pool) for _ in range(rng.randint(1, 10))],
                      vocab, RAW_COUNT)
            for _ in range(100)
        ]
        monotone_under_prior_sweep(model, inputs)

    for _ in range(2):
        rows = [[rng.gauss(0, 2), rng.gauss(0, 2)] for _ in range(30)]
        labels = [rng.choice(("w1", "w2")) for _ in range(30)]
        model = fit_gaussian(rows, labels)
        inputs = [[rng.gauss(0, 3), rng.gauss(0, 3)] for _ in range(100)]
        monotone_under_prior_sweep(model, inputs)


def test_criterion_10_matches_direct_probability_evaluation():
    started = time.perf_counter()
    rng = random.Random(100010)
    for _ in range(500):
        n_positions = rng.randint(1, 3)
        domains = [
            [f"v{k}" for k in range(rng.randint(1, 4))] for _ in range(n_positions)
        ]
        class_names = ["a", "b", "c"][: rng.randint(2, 3)]
        n_rows = rng.randint(len(class_names), 12)
        labels = class_names + [
            rng.choice(class_names) for _ in range(n_rows - len(class_names))
        ]
        samples = [
            [rng.choice(domains[i]) for i in range(n_positions)] for _ in range(n_rows)
        ]
        alpha = rng.choice([0.0, 0.5, 1.0])
        model = fit_categorical(samples, labels, alpha=alpha)
        query = [
            "zz" if rng.random() < 0.1 else rng.choice(domains[i])
            for i in range(n_positions)
        ]
        got = posterior_scores(model, query).posteriors
        want = categorical_posteriors_oracle(samples, labels, alpha, query)
        assert set(got) == set(want)
        for label in want:
            assert abs(got[label] - want[label]) <= 1e-12, (label, query, alpha)
    assert time.perf_counter() - started < 10.0


def test_criterion_11_density_peak_and_total_mass():
    rng = random.Random(110011)
    rows = [[rng.gauss(2, 1.5), rng.gauss(-1, 0.6)] for _ in range(40)]
    labels = [rng.choice(("lo", "hi")) for _ in range(40)]
    model = fit_gaussian(rows, labels)
    for label in model.priors.labels:
        for k in range(model.n_features):
            mu = model.means[label][k]
            sigma = model.stds[label][k]
            density = lambda x: math.exp(gaussian_log_density(x, mu, sigma))
            peak = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
            assert abs(density(mu) - peak) <= 1e-12
            mass, _ = quad(density, mu - 8 * sigma, mu + 8 * sigma)
            assert abs(mass - 1.0) <= 1e-6


def _sms_corpus_path():
    env = os.environ.get("NBTEXT_SMS_CORPUS")
    if env:
        return Path(env)
    return REPO_ROOT / "data" / "SMSSpamCollection"


def test_criterion_12_sms_corpus_end_to_end():
    path = _sms_corpus_path()
    if not path.exists():
        pytest.skip(
            "SMS Spam Collection not found. Run scripts/fetch_sms_corpus.py "
            "on a machine with network access, or download "
            "https://archive.ics.uci.edu/static/public/228/sms+spam+collection.zip "
            "and place the extracted SMSSpamCollection file at "
            f"{path} (or point NBTEXT_SMS_CORPUS at it)."
        )
    started = time.perf_counter()
    corpus = load_corpus(path)
    assert len(corpus) == 5574
    train, test = split(corpus, test_fraction=0.2, seed=42)
    config = PipelineConfig()
    streams = [run_pipeline(text, config) for _, text in train]
    vocab = build_vocabulary(streams)
    vectors = [vectorize(s, vocab, RAW_COUNT) for s in streams]
    model = fit_multinomial(
        vectors, [label for label, _ in train], vocab, alpha=1.0
    )
    report = evaluate(
        ModelArchive("multinomial", model, config, vocab, RAW_COUNT), test
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    assert report.accuracy >= 0.90, f"accuracy {report.accuracy:.4f}"
    if PINNED_SMS_ACCURACY is not None:
        assert abs(report.accuracy - PINNED_SMS_ACCURACY) <= 0.02


def test_criterion_13_archive_round_trip_fidelity(tmp_path, data_dir):
    corpus = load_corpus(data_dir / "sample_messages.tsv")
    config = PipelineConfig(stemming=True, stop_word_mode="frequency",
                            frequency_top_n=5)
    raw_streams = [
        tokenize(text, config) for _, text in corpus
    ]
    stops = build_stop_list(raw_streams, 5)
    streams = [run_pipeline(text, config, stops) for _, text in corpus]
    vocab = build_vocabulary(streams)
    vectors = [vectorize(s, vocab, TFIDF) for s in streams]
    model = fit_multinomial(
        vectors, [label for label, _ in corpus], vocab, alpha=0.5
    )
    original = ModelArchive("multinomial", model, config, vocab, TFIDF, stops)
    path = tmp_path / "model.json"
    save_archive(original, path)
    loaded = load_archive(path)

    rng = random.Random(130013)
    words = sorted({w for _, text in corpus for w in text.lower().split()})
    words += ["zebra", "quux", "xylophone"]
    for _ in range(1000):
        probe = " ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
        before = posterior_scores(original.model, original.encode_text(probe))
        after = posterior_scores(loaded.model, loaded.encode_text(probe))
        assert before.predicted == after.predicted
        for label, score in before.log_scores.items():
            other = after.log_scores[label]
            if math.isinf(score) or math.isinf(other):
                assert score == other
            else:
                assert abs(score - other) <= 1e-12
