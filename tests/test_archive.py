"""Save/load fidelity: identical decisions and log-scores after a round trip."""

import copy
import io
import json
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbtext.archive import (
    FORMAT_VERSION,
    VARIANTS,
    ArchiveError,
    ModelArchive,
    Variant,
    load_archive,
    save_archive,
    train,
)
from nbtext.evaluation import load_corpus
from nbtext.models import (
    BernoulliModel,
    CategoricalModel,
    ClassPriors,
    GaussianModel,
    MultinomialModel,
    fit_bernoulli,
    fit_categorical,
    fit_gaussian,
    fit_multinomial,
    posterior_scores,
)
from nbtext.pipeline import (
    PipelineConfig,
    StopList,
    build_stop_list,
    run_pipeline,
    tokenize,
)
from nbtext.vectorize import (
    BINARY,
    RAW_COUNT,
    TFIDF,
    Vocabulary,
    build_vocabulary,
    vectorize,
)


def _text_archive(data_dir, variant, weighting, config=None, stops=None):
    corpus = load_corpus(data_dir / "sample_messages.tsv")
    config = config or PipelineConfig()
    labels = [label for label, _ in corpus]
    streams = [run_pipeline(text, config, stops) for _, text in corpus]
    vocab = build_vocabulary(streams)
    vecs = [vectorize(s, vocab, weighting) for s in streams]
    if variant == "bernoulli":
        model = fit_bernoulli(vecs, labels, vocab)
    else:
        model = fit_multinomial(vecs, labels, vocab, alpha=1.0)
    return ModelArchive(variant, model, config, vocab, weighting, stops), corpus


def _assert_same_scores(report_a, report_b):
    assert report_a.predicted == report_b.predicted
    for label, score in report_a.log_scores.items():
        other = report_b.log_scores[label]
        if math.isinf(score):
            assert math.isinf(other)
        else:
            assert abs(score - other) <= 1e-12


@pytest.mark.parametrize("variant,weighting", [
    ("multinomial", RAW_COUNT),
    ("multinomial", TFIDF),
    ("bernoulli", BINARY),
])
def test_text_round_trip(tmp_path, data_dir, variant, weighting):
    archive, corpus = _text_archive(data_dir, variant, weighting)
    path = tmp_path / "model.json"
    save_archive(archive, path)
    loaded = load_archive(path)
    assert loaded.variant == variant
    assert loaded.weighting == weighting
    assert loaded.pipeline_config == archive.pipeline_config
    assert loaded.vocab == archive.vocab
    rng = random.Random(11)
    words = list(archive.vocab.token_to_id) + ["notinvocab"]
    for _ in range(200):
        probe = " ".join(rng.choices(words, k=rng.randint(0, 12)))
        a = posterior_scores(archive.model, archive.encode_text(probe))
        b = posterior_scores(loaded.model, loaded.encode_text(probe))
        _assert_same_scores(a, b)


def test_stop_list_round_trip(tmp_path, data_dir):
    stops = StopList(frozenset({"the", "a", "to", "you"}), origin="dictionary")
    config = PipelineConfig(stop_word_mode="dictionary", stemming=True, ngram_size=2)
    archive, _ = _text_archive(data_dir, "multinomial", RAW_COUNT, config, stops)
    path = tmp_path / "model.json"
    save_archive(archive, path)
    loaded = load_archive(path)
    assert loaded.stops.words == stops.words
    text = "You have won a free prize, call the hotline now!"
    assert loaded.encode_text(text) == archive.encode_text(text)


def test_categorical_round_trip(tmp_path, toy_shapes):
    samples, labels = toy_shapes
    model = fit_categorical(samples, labels, alpha=0.5)
    path = tmp_path / "model.json"
    save_archive(ModelArchive("categorical", model), path)
    loaded = load_archive(path)
    rng = random.Random(5)
    for _ in range(200):
        query = (
            rng.choice(["blue", "green", "red", "yellow"]),
            rng.choice(["square", "circle", "triangle"]),
        )
        _assert_same_scores(
            posterior_scores(model, query), posterior_scores(loaded.model, query)
        )


def test_gaussian_round_trip(tmp_path):
    rng = random.Random(9)
    rows = [[rng.gauss(0, 1), rng.gauss(5, 2)] for _ in range(20)]
    labels = ["a" if i % 2 else "b" for i in range(20)]
    model = fit_gaussian(rows, labels)
    path = tmp_path / "model.json"
    save_archive(ModelArchive("gaussian", model), path)
    loaded = load_archive(path)
    for _ in range(200):
        query = [rng.uniform(-4, 4), rng.uniform(0, 10)]
        _assert_same_scores(
            posterior_scores(model, query), posterior_scores(loaded.model, query)
        )


def test_format_version_written(tmp_path, toy_shapes):
    model = fit_categorical(*toy_shapes, alpha=0.0)
    path = tmp_path / "model.json"
    save_archive(ModelArchive("categorical", model), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format_version"] == FORMAT_VERSION


def test_counts_not_probabilities_stored(tmp_path, toy_shapes):
    model = fit_categorical(*toy_shapes, alpha=0.0)
    path = tmp_path / "model.json"
    save_archive(ModelArchive("categorical", model), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["priors"]["counts"] == [7, 5]
    blue_counts = doc["parameters"]["value_counts"][0]
    assert blue_counts["+"]["blue"] == 3 and blue_counts["-"]["blue"] == 3


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not json at all{", encoding="utf-8")
    with pytest.raises(ArchiveError, match="JSON"):
        load_archive(path)


def test_wrong_version_rejected(tmp_path, toy_shapes):
    model = fit_categorical(*toy_shapes, alpha=0.0)
    path = tmp_path / "model.json"
    save_archive(ModelArchive("categorical", model), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["format_version"] = 99
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ArchiveError, match="format_version"):
        load_archive(path)


def test_missing_field_rejected(tmp_path, toy_shapes):
    model = fit_categorical(*toy_shapes, alpha=0.0)
    path = tmp_path / "model.json"
    save_archive(ModelArchive("categorical", model), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["priors"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ArchiveError, match="missing"):
        load_archive(path)


def test_unknown_variant_rejected(tmp_path, toy_shapes):
    model = fit_categorical(*toy_shapes, alpha=0.0)
    path = tmp_path / "model.json"
    save_archive(ModelArchive("categorical", model), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["variant"] = "quantum"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ArchiveError, match="variant"):
        load_archive(path)


def test_forced_priors_cannot_be_archived(tmp_path, toy_shapes):
    model = fit_categorical(*toy_shapes, alpha=0.0)
    forced = CategoricalModel(
        ClassPriors({"+": 0.5, "-": 0.5}),
        model.value_counts, model.class_counts, model.alpha,
    )
    with pytest.raises(ArchiveError, match="counts"):
        save_archive(ModelArchive("categorical", forced), tmp_path / "m.json")


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_model_that_has_scored_pickles_and_copies(data_dir, toy_shapes, variant):
    """Scoring caches what a model derives from its counts (a Bernoulli model's
    linear_form holds a closure, which pickle cannot take); a copy is rebuilt
    from the fields and scores alike."""
    if VARIANTS[variant].text:
        documents = load_corpus(data_dir / "sample_messages.tsv")
        query = "free prize call now"
    elif variant == "categorical":
        documents = _training_data(variant, data_dir, toy_shapes)
        query = "blue,square"
    else:
        documents, query = [("a", [0.0]), ("a", [1.0]), ("b", [5.0]), ("b", [6.0])], "2.5"
    archive = train(variant, documents)
    x = archive.encode(query)
    scores = posterior_scores(archive.model, x).log_scores
    for copied in (pickle.loads(pickle.dumps(archive)), copy.deepcopy(archive)):
        assert copied == archive and copied.model == archive.model
        assert posterior_scores(copied.model, x).log_scores == scores


def test_encode_text_requires_text_variant(toy_shapes):
    model = fit_categorical(*toy_shapes, alpha=0.0)
    archive = ModelArchive("categorical", model)
    with pytest.raises(ValueError):
        archive.encode_text("blue square")


def test_text_variant_requires_vocab(toy_shapes):
    model = fit_categorical(*toy_shapes, alpha=0.0)
    with pytest.raises(ValueError):
        ModelArchive("multinomial", model)


STEM_TOP5_BIGRAMS = PipelineConfig(
    stemming=True, stop_word_mode="frequency", frequency_top_n=5, ngram_size=2
)


@pytest.mark.parametrize("variant,weighting,config", [
    ("multinomial", TFIDF, STEM_TOP5_BIGRAMS),
    ("bernoulli", BINARY, PipelineConfig(lowercase=False)),
])
def test_train_matches_hand_built_archive(
    tmp_path, data_dir, variant, weighting, config
):
    corpus = load_corpus(data_dir / "sample_messages.tsv")
    stops = None
    if config.stop_word_mode == "frequency":
        tokenized = [tokenize(text, config) for _, text in corpus]
        stops = build_stop_list(tokenized, config.frequency_top_n)
    expected, _ = _text_archive(data_dir, variant, weighting, config, stops)
    trained = train(variant, corpus, 1.0, config, weighting)
    save_archive(expected, tmp_path / "expected.json")
    save_archive(trained, tmp_path / "trained.json")
    assert (tmp_path / "trained.json").read_bytes() == (
        tmp_path / "expected.json"
    ).read_bytes()


def _training_data(variant, data_dir, toy_shapes):
    """The variant's (label, input) pairs."""
    if variant == "categorical":
        samples, labels = toy_shapes
        return list(zip(labels, samples))
    if variant == "gaussian":
        rng = random.Random(9)
        return [("a" if i % 2 else "b", [rng.gauss(0, 1), rng.gauss(5, 2)]) for i in range(20)]
    return load_corpus(data_dir / "sample_messages.tsv")


@pytest.mark.parametrize("variant,weighting", [
    ("categorical", None),
    ("bernoulli", BINARY),
    ("multinomial", TFIDF),
    ("gaussian", None),
])
def test_save_load_save_is_byte_identical(
    tmp_path, data_dir, toy_shapes, variant, weighting
):
    documents = _training_data(variant, data_dir, toy_shapes)
    archive = train(variant, documents, 0.5, STEM_TOP5_BIGRAMS, weighting)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_archive(archive, first)
    save_archive(load_archive(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_train_rejects_unknown_variant(toy_shapes):
    with pytest.raises(ValueError, match="variant"):
        train("quantum", _training_data("categorical", None, toy_shapes))


@pytest.mark.parametrize("section", ["pipeline_config", "vocab", "stops"])
def test_row_archive_refuses_a_pipeline_vocabulary_or_stop_list(toy_shapes, section):
    carried = {"pipeline_config": PipelineConfig(), "vocab": build_vocabulary([["x"]]),
               "stops": StopList()}
    models = {"categorical": fit_categorical(*toy_shapes, alpha=0.0),
              "gaussian": fit_gaussian([[0.0], [1.0], [5.0], [6.0]], ["a", "a", "b", "b"])}
    for variant, model in models.items():
        with pytest.raises(ValueError, match=f"^{variant} archives carry no pipeline "
                                             "config, vocabulary or stop list$"):
            ModelArchive(variant, model, **{section: carried[section]})


def test_model_must_match_variant(toy_shapes):
    model = fit_categorical(*toy_shapes, alpha=0.0)
    with pytest.raises(ValueError, match="GaussianModel"):
        ModelArchive("gaussian", model)


def test_archive_refuses_a_weighting_its_variant_does_not_take(data_dir):
    # a Bernoulli model scores binary vectors only, and a row model takes none
    archive, _ = _text_archive(data_dir, "bernoulli", BINARY)
    with pytest.raises(ValueError, match="bernoulli takes binary weighting, not 'tfidf'"):
        ModelArchive(archive.variant, archive.model, archive.pipeline_config, archive.vocab,
                     TFIDF, archive.stops)
    model = fit_gaussian([[0.0], [1.0], [5.0], [6.0]], ["a", "a", "b", "b"])
    with pytest.raises(ValueError, match="gaussian takes no weighting, not 'raw_count'"):
        ModelArchive("gaussian", model, weighting=RAW_COUNT)


def test_archive_refuses_stop_word_removal_without_a_stop_list(data_dir):
    # the text step would refuse every document; the archive is refused first
    archive = train("multinomial", load_corpus(data_dir / "sample_messages.tsv"), 1.0,
                    STEM_TOP5_BIGRAMS)
    with pytest.raises(ValueError, match="stop_word_mode='frequency' requires a stop list"):
        ModelArchive(archive.variant, archive.model, archive.pipeline_config, archive.vocab,
                     archive.weighting)


def test_train_resolves_the_default_weighting(tmp_path, data_dir):
    documents = _training_data("multinomial", data_dir, None)
    save_archive(train("multinomial", documents), tmp_path / "default.json")
    save_archive(
        train("multinomial", documents, weighting=RAW_COUNT),
        tmp_path / "explicit.json",
    )
    assert (tmp_path / "default.json").read_bytes() == (
        tmp_path / "explicit.json"
    ).read_bytes()


@pytest.mark.parametrize("variant,weighting", [
    ("multinomial", BINARY),
    ("bernoulli", RAW_COUNT),
    ("bernoulli", TFIDF),
    ("categorical", BINARY),
    ("gaussian", RAW_COUNT),
])
def test_train_rejects_a_weighting_the_variant_does_not_take(
    data_dir, toy_shapes, variant, weighting
):
    documents = _training_data(variant, data_dir, toy_shapes)
    with pytest.raises(ValueError, match="weighting"):
        train(variant, documents, weighting=weighting)


@pytest.mark.parametrize("variant", ["categorical", "multinomial"])
@pytest.mark.parametrize("alpha", [-0.5, math.inf, math.nan, "1", True, None])
def test_train_rejects_alpha_that_is_not_a_finite_number(
    data_dir, toy_shapes, variant, alpha
):
    documents = _training_data(variant, data_dir, toy_shapes)
    with pytest.raises(ValueError, match="alpha"):
        train(variant, documents, alpha)


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("pair", [
    lambda label, x: (x,),
    lambda label, x: (label,),
], ids=["fewer-labels", "fewer-inputs"])
def test_train_refuses_inputs_and_labels_of_different_lengths(
    data_dir, toy_shapes, variant, pair
):
    """A document that lacks its label or its input is no (label, input) pair."""
    documents = _training_data(variant, data_dir, toy_shapes)
    with pytest.raises(ValueError):
        train(variant, documents[:-1] + [pair(*documents[-1])])


@pytest.mark.parametrize("variant", ["bernoulli", "gaussian"])
def test_unsmoothed_variants_ignore_alpha(tmp_path, data_dir, toy_shapes, variant):
    documents = _training_data(variant, data_dir, toy_shapes)
    save_archive(train(variant, documents, 1.0), tmp_path / "one.json")
    save_archive(train(variant, documents, math.inf), tmp_path / "inf.json")
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "inf.json").read_bytes()


def test_train_parses_row_cells_as_encode_does(tmp_path):
    archive = train("categorical", [("a", [1, 2]), ("a", [1, 3]), ("b", [4, 2]), ("b", [4, 4])],
                    0.5)
    save_archive(archive, tmp_path / "m.json")
    loaded = load_archive(tmp_path / "m.json")
    for row in ([1, 2], [4, 3], "1,3"):
        a = posterior_scores(archive.model, archive.encode(row))
        b = posterior_scores(loaded.model, loaded.encode(row))
        assert a.predicted == b.predicted and a.log_scores == b.log_scores
    rows = [("a", [0.0, 1.0]), ("a", [0.5, 1.5]), ("b", [5.0, 5.0]), ("b", [float("nan"), 6.0])]
    with pytest.raises(ValueError, match="finite"):
        train("gaussian", rows)


@pytest.mark.parametrize("variant,weighting", [
    ("bernoulli", BINARY),
    ("multinomial", TFIDF),
])
def test_bernoulli_round_trip_reproduces_log_scores_exactly(
    tmp_path, data_dir, variant, weighting
):
    documents = _training_data(variant, data_dir, None)
    archive = train(variant, documents, weighting=weighting)
    save_archive(archive, tmp_path / "model.json")
    loaded = load_archive(tmp_path / "model.json")
    texts = [text for _, text in documents]
    for text in texts + ["", "zzzz qqqq", "free prize free prize call now"]:
        a = posterior_scores(archive.model, archive.encode(text))
        b = posterior_scores(loaded.model, loaded.encode(text))
        assert a.log_scores == b.log_scores and a.posteriors == b.posteriors


def test_constant_feature_keeps_the_sigma_floor(tmp_path):
    # the floor is 1e-9, so one unit from a constant feature is z = 1e9
    rows = [("a", [3.0, 0.0]), ("a", [3.0, 1.0]), ("b", [3.0, 5.0]), ("b", [3.0, 6.0])]
    save_archive(train("gaussian", rows), tmp_path / "m.json")
    model = load_archive(tmp_path / "m.json").model
    assert model.stds["a"][0] == model.stds["b"][0] == 1e-9
    at_mean = posterior_scores(model, [3.0, 0.5]).log_scores["a"]
    one_off = posterior_scores(model, [4.0, 0.5]).log_scores["a"]
    assert at_mean - one_off == pytest.approx(0.5e18, rel=1e-9)


def test_archive_bytes_match_the_stream_encoder(tmp_path):
    # non-ASCII tokens, tf-idf float sums and a frequency stop list
    documents = [
        ("a", "Café naïve ÜBER straße! free prize"),
        ("b", "日本語 «quoted» café, free"),
        ("b", "free prize: WIN a café now"),
        ("a", "Straße über alles; naïve naïve"),
    ]
    config = PipelineConfig(stop_word_mode="frequency", frequency_top_n=2)
    archive = train("multinomial", documents, 0.5, config, TFIDF)
    path = tmp_path / "model.json"
    save_archive(archive, path)
    text = path.read_text(encoding="utf-8")
    assert "café" in text and "日本語" in text
    stream = io.StringIO()
    json.dump(json.loads(text), stream, ensure_ascii=False)
    stream.write("\n")
    assert path.read_bytes() == stream.getvalue().encode("utf-8")


def _outcome(fit):
    try:
        return fit()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(
        st.text(alphabet=st.sampled_from("abcAB sS.,!'-éÉßİ日\t"), max_size=30),
        min_size=1,
        max_size=12,
    ),
    top_n=st.integers(min_value=1, max_value=6),
    stemming=st.booleans(),
    ngram_size=st.sampled_from([1, 2]),
    variant=st.sampled_from(["multinomial", "bernoulli"]),
)
def test_frequency_train_matches_the_two_pass_reference(
    texts, top_n, stemming, ngram_size, variant
):
    config = PipelineConfig(
        stop_word_mode="frequency",
        frequency_top_n=top_n,
        stemming=stemming,
        ngram_size=ngram_size,
    )
    labels = ["x" if i % 3 else "y" for i in range(len(texts))]
    weighting = VARIANTS[variant].weightings[0]

    def reference():
        stops = build_stop_list([tokenize(t, config) for t in texts], top_n)
        streams = [run_pipeline(t, config, stops) for t in texts]
        vocab = build_vocabulary(streams)
        vecs = [vectorize(s, vocab, weighting) for s in streams]
        if variant == "bernoulli":
            model = fit_bernoulli(vecs, labels, vocab)
        else:
            model = fit_multinomial(vecs, labels, vocab, alpha=1.0)
        return ModelArchive(variant, model, config, vocab, weighting, stops)

    expected = _outcome(reference)
    documents = list(zip(labels, texts))
    assert _outcome(lambda: train(variant, documents, 1.0, config)) == expected


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(
        st.text(alphabet=st.sampled_from("abcAB sS.,!'-éÉßİ日\t"), max_size=30),
        min_size=1,
        max_size=12,
    ),
    mode=st.sampled_from(["none", "dictionary", "frequency"]),
    words=st.frozensets(st.sampled_from(["a", "b", "ab", "s", "é", "ß", "日"]), max_size=4),
    stemming=st.booleans(),
    ngram_size=st.sampled_from([1, 2, 3]),
    lowercase=st.booleans(),
    strip_punctuation=st.booleans(),
    variant_weighting=st.sampled_from(
        [(v, w) for v in ("multinomial", "bernoulli") for w in VARIANTS[v].weightings]
    ),
)
def test_train_matches_the_per_text_reference(
    texts, mode, words, stemming, ngram_size, lowercase, strip_punctuation, variant_weighting
):
    """With the stop list given (or none needed), train encodes each text as
    run_pipeline does on its own, whatever each config field is."""
    variant, weighting = variant_weighting
    config = PipelineConfig(
        lowercase=lowercase,
        strip_punctuation=strip_punctuation,
        stop_word_mode=mode,
        frequency_top_n=2 if mode == "frequency" else None,
        stemming=stemming,
        ngram_size=ngram_size,
    )
    origin = "dictionary" if mode == "dictionary" else "frequency(2)"
    stops = StopList(words, origin=origin) if mode != "none" else None
    labels = ["x" if i % 3 else "y" for i in range(len(texts))]

    def reference():
        streams = [run_pipeline(t, config, stops) for t in texts]
        vocab = build_vocabulary(streams)
        vecs = [vectorize(s, vocab, weighting) for s in streams]
        if variant == "bernoulli":
            model = fit_bernoulli(vecs, labels, vocab)
        else:
            model = fit_multinomial(vecs, labels, vocab, alpha=1.0)
        return ModelArchive(variant, model, config, vocab, weighting, stops)

    expected = _outcome(reference)
    documents = list(zip(labels, texts))
    fit = _outcome(lambda: train(variant, documents, 1.0, config, weighting, stops))
    assert fit == expected


# Archives that train + save_archive wrote on sample_messages.tsv before train
# counted each document in one pass: every text weighting, with stemming on and
# off, frequency stop words and bigrams. The counting must not move a byte.
GOLDEN_CONFIGS = {
    "plain": PipelineConfig(),
    "stem-top5": PipelineConfig(stemming=True, stop_word_mode="frequency", frequency_top_n=5),
    "top3-bigrams": PipelineConfig(stop_word_mode="frequency", frequency_top_n=3, ngram_size=2),
    "stem-top5-bigrams": STEM_TOP5_BIGRAMS,
}
GOLDEN_CASES = [
    (variant, weighting, name)
    for variant in ("bernoulli", "multinomial")
    for weighting in VARIANTS[variant].weightings
    for name in GOLDEN_CONFIGS
]


def _golden_path(data_dir, variant, weighting, name):
    return data_dir / "golden_archives" / f"{variant}-{weighting}-{name}.json"


@pytest.mark.parametrize("variant,weighting,name", GOLDEN_CASES)
def test_train_reproduces_the_golden_archive(tmp_path, data_dir, variant, weighting, name):
    documents = _training_data(variant, data_dir, None)
    archive = train(variant, documents, 1.0, GOLDEN_CONFIGS[name], weighting)
    save_archive(archive, tmp_path / "model.json")
    golden = _golden_path(data_dir, variant, weighting, name)
    assert (tmp_path / "model.json").read_bytes() == golden.read_bytes()


def _ordered(value):
    """``value`` with every dict, nested too, as a list of items and every
    other value paired with its type, so that comparing two of them compares
    key order and value types as well (1 == 1.0, but not as (int, 1))."""
    if isinstance(value, dict):
        return [(_ordered(key), _ordered(v)) for key, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_ordered(v) for v in value]
    return type(value), value


def _text_fields(archive):
    model, vocab = archive.model, archive.vocab
    return {
        "priors": _ordered({name: getattr(model.priors, name) for name in model.priors._fields}),
        "model": {name: _ordered(getattr(model, name)) for name in model._fields[1:]},
        "token_to_id": _ordered(vocab.token_to_id),
        "document_frequency": vocab.document_frequency,
        "total_documents": vocab.total_documents,
        "rest": (archive.variant, archive.pipeline_config, archive.weighting, archive.stops),
    }


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(
        st.text(alphabet=st.sampled_from("abcdAB sS.,!'-éß日\t"), max_size=40),
        min_size=1,
        max_size=15,
    ),
    label_picks=st.lists(st.sampled_from(["x", "y", "z"]), min_size=15, max_size=15),
    stop_top_n=st.sampled_from([None, 1, 3]),
    stemming=st.booleans(),
    ngram_size=st.sampled_from([1, 2, 3]),
    variant_weighting=st.sampled_from(
        [(v, w) for v in ("multinomial", "bernoulli") for w in VARIANTS[v].weightings]
    ),
    alpha=st.sampled_from([0, 0.01, 1.0]),
)
def test_train_counts_as_fit_over_vectorize(
    texts, label_picks, stop_top_n, stemming, ngram_size, variant_weighting, alpha
):
    """train's one counting pass gives what fit_* give over build_vocabulary
    and vectorize: every field, every float bit and every dict key order."""
    variant, weighting = variant_weighting
    config = PipelineConfig(
        stop_word_mode="frequency" if stop_top_n else "none",
        frequency_top_n=stop_top_n,
        stemming=stemming,
        ngram_size=ngram_size,
    )
    labels = label_picks[: len(texts)]
    stops = None
    if stop_top_n:
        stops = build_stop_list([tokenize(t, config) for t in texts], stop_top_n)
    streams = [run_pipeline(t, config, stops) for t in texts]
    vocab = build_vocabulary(streams)
    vecs = [vectorize(s, vocab, weighting) for s in streams]
    if variant == "bernoulli":
        model = fit_bernoulli(vecs, labels, vocab)
    else:
        model = fit_multinomial(vecs, labels, vocab, alpha)
    expected = ModelArchive(variant, model, config, vocab, weighting, stops)
    trained = train(variant, list(zip(labels, texts)), alpha, config, weighting)
    assert _text_fields(trained) == _text_fields(expected)


def test_train_stems_each_distinct_word_once(monkeypatch):
    """12 tokens, two of them stop words, and 4 distinct words besides:
    train's stemmer runs once per distinct word, not once per token."""
    calls = []

    def counting_stem(word):
        calls.append(word)
        return word.removesuffix("s")

    monkeypatch.setattr("nbtext.pipeline.porter_stem", counting_stem)
    documents = [("a", "the cats ran"), ("b", "the dogs ran"), ("a", "cats and dogs"),
                 ("b", "the birds ran")]
    config = PipelineConfig(stop_word_mode="dictionary", stemming=True)
    stops = StopList(frozenset({"the", "and"}))
    archive = train("multinomial", documents, 1.0, config, None, stops)
    assert sorted(calls) == ["birds", "cats", "dogs", "ran"]
    assert archive.vocab.tokens == ["cat", "ran", "dog", "bird"]


@pytest.mark.parametrize("lowercase,kept,left", [
    (True, {"the", "you", "call"}, set()),
    (False, {"The", "YOU", "Call"}, {"the", "you", "You", "call"}),
])
def test_train_spells_a_given_stop_list_as_the_tokens(tmp_path, data_dir, lowercase, kept, left):
    """A given stop list's words are trimmed and lowercased as the tokens are,
    and dropped if that empties them; the archive keeps the list train removed."""
    stops = StopList(frozenset({"The", "YOU", "(...)", "«Call»"}))
    config = PipelineConfig(lowercase=lowercase, stop_word_mode="dictionary")
    corpus = load_corpus(data_dir / "sample_messages.tsv")
    archive = train("multinomial", corpus, 1.0, config, None, stops)
    assert archive.stops == StopList(frozenset(kept))
    tokens = set(archive.vocab.tokens)
    assert not tokens & kept and left <= tokens
    save_archive(archive, tmp_path / "m.json")
    assert load_archive(tmp_path / "m.json").encode_text("The YOU Call").entries == {}


@pytest.mark.parametrize("variant", ["categorical", "multinomial"])
def test_train_refuses_a_bad_alpha_before_it_counts(
    monkeypatch, data_dir, toy_shapes, variant
):
    def no_counting(*args):
        raise AssertionError("train counted before it checked alpha")

    # what train runs after its alpha check: the text step, and the
    # categorical row's cell parser and fit
    monkeypatch.setattr("nbtext.archive.token_streams", no_counting)
    spec = VARIANTS["categorical"]
    monkeypatch.setitem(VARIANTS, "categorical", Variant(
        spec.name, spec.model_class, no_counting, spec.weightings, spec.smoothed, no_counting
    ))
    documents = _training_data(variant, data_dir, toy_shapes)
    with pytest.raises(ValueError, match="alpha"):
        train(variant, documents, math.nan)


def test_train_refuses_a_bad_alpha_before_it_reads_a_text(monkeypatch, data_dir):
    def no_counting(*args):
        raise AssertionError("train read the texts before it checked alpha")

    monkeypatch.setattr("nbtext.archive.token_streams", no_counting)
    documents = _training_data("multinomial", data_dir, None)
    with pytest.raises(ValueError, match="alpha"):
        train("multinomial", documents, math.nan)


# ways the drawn counts, shares, total or table labels disagree; None: they agree
_FAULTS = [None] * 6 + ["shares", "total", "table-drop", "table-add", "count-drop",
                        "count-add", "count-fractional", "count-true"]


@st.composite
def _counts(draw):
    """Class counts, the counts whose shares are the priors, the priors' total
    and the class sizes the model's tables hold, at most one of them not
    agreeing with the rest."""
    labels = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    sizes = {lab: draw(st.integers(1, 4)) for lab in labels}
    counts, shares, total = dict(sizes), dict(sizes), sum(sizes.values())
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "shares":
        shares = {lab: draw(st.integers(1, 4)) for lab in labels}
    elif fault == "total":
        total += draw(st.sampled_from([1, -1]))
    elif fault == "table-drop":
        sizes.pop(labels[-1])
    elif fault == "table-add":
        sizes["z"] = 1
    elif fault == "count-drop":
        counts.pop(labels[-1])
    elif fault == "count-add":
        counts["z"] = 1
    elif fault:
        counts[labels[0]] = 1.5 if fault == "count-fractional" else True
    return counts, shares, total, sizes


# per variant, the values of a type the model's fields do not take: a string of
# stop words (a frozenset of its characters once saved), a float token id (no
# decimal id once saved), an int categorical value (a string once saved) and a
# true mean (refused by the rows variant that reads it)
_TYPE_FAULTS = {"categorical": ["value-int"], "bernoulli": ["stop-words-string"],
                "multinomial": ["stop-words-string", "tf-sums-key-float"],
                "gaussian": ["mean-true"]}


@settings(max_examples=300, deadline=None)
@given(
    drawn=_counts(),
    variant_fault=st.sampled_from(list(VARIANTS)).flatmap(lambda variant: st.tuples(
        st.just(variant), st.sampled_from([None] * 3 + _TYPE_FAULTS[variant]))),
    width=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_every_archive_the_constructors_accept_round_trips(
    tmp_path_factory, drawn, variant_fault, width, seed
):
    """Either a constructor refuses the drawn priors and tables, or the archive
    loads back equal to itself and scores a probe exactly as before; a drawn
    type fault is always refused."""
    counts, shares, total, class_sizes = drawn
    variant, type_fault = variant_fault
    table_labels = list(class_sizes)
    rng = random.Random(seed)

    def build() -> ModelArchive:
        priors = ClassPriors(ClassPriors.from_counts(shares).probabilities, counts, total)
        if variant == "categorical":
            x = 1 if type_fault == "value-int" else "x"
            value_counts = tuple(
                {lab: {x: n - (k := rng.randint(0, n)), "y": k}
                 for lab, n in class_sizes.items()}
                for _ in range(width)
            )
            return ModelArchive(variant, CategoricalModel(priors, value_counts, class_sizes, 1.0))
        if variant == "gaussian":
            means = {lab: [rng.uniform(-2, 2) for _ in range(width)] for lab in table_labels}
            if type_fault == "mean-true" and table_labels:
                means[table_labels[0]][0] = True
            stds = {lab: [rng.uniform(0.5, 2) for _ in range(width)] for lab in table_labels}
            return ModelArchive(variant, GaussianModel(priors, means, stds, width))
        if variant == "bernoulli":
            doc_counts = {lab: [rng.randint(0, n) for _ in range(width)]
                          for lab, n in class_sizes.items()}
            model = BernoulliModel(priors, doc_counts, class_sizes, width)
        else:
            tf_sums = {
                lab: {i: float(rng.randint(1, 3)) for i in range(width) if rng.random() < 0.7}
                for lab in table_labels
            }
            if type_fault == "tf-sums-key-float" and table_labels:  # 0.0 == 0: 0 goes first
                sums = tf_sums[table_labels[0]]
                sums[0.0] = sums.pop(0, 1.0)
            totals = {lab: sum(sums.values()) for lab, sums in tf_sums.items()}
            model = MultinomialModel(priors, tf_sums, totals, width, 0.5)
        vocab = Vocabulary([f"t{i}" for i in range(width)], [1] * width, priors.total)
        if type_fault == "stop-words-string":
            return ModelArchive(variant, model, PipelineConfig(stop_word_mode="dictionary"),
                                vocab, VARIANTS[variant].weightings[0], StopList("the"))
        return ModelArchive(variant, model, PipelineConfig(), vocab,
                            VARIANTS[variant].weightings[0])

    try:
        archive = build()
    except ValueError:
        return
    assert type_fault is None, f"{type_fault} was accepted"
    path = tmp_path_factory.mktemp("round-trip") / "model.json"
    save_archive(archive, path)
    loaded = load_archive(path)
    assert loaded == archive
    probe = {"categorical": ["x"] * width, "gaussian": ["0.5"] * width}.get(variant, "t0 t1 zz")
    probe = archive.encode(probe)
    assert (posterior_scores(loaded.model, probe).log_scores
            == posterior_scores(archive.model, probe).log_scores)
