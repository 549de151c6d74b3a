"""Every value type is a ``Record``, with the value semantics of a frozen
dataclass: field equality within one type, the hash of the field tuple,
read-only fields and the ``Name(field=value, ...)`` repr. A record binds its
fields by position or by name, the trailing ones from its defaults, and is then
checked; no nbtext class is a dataclass."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import nbtext
from nbtext.archive import ModelArchive, Variant
from nbtext.evaluation import EvaluationReport, LabelMetrics
from nbtext.models import (
    BernoulliModel,
    CategoricalModel,
    ClassPriors,
    GaussianModel,
    MultinomialModel,
    PosteriorReport,
)
from nbtext.pipeline import LabeledCorpus, PipelineConfig, StopList
from nbtext.vectorize import SparseVector, Vocabulary

UNCOUNTED = ClassPriors({"a": 1.0})
COUNTED = ClassPriors({"a": 1.0}, {"a": 2}, 2)
MULTINOMIAL = MultinomialModel(UNCOUNTED, {"a": {0: 1.0}}, {"a": 1.0}, 1, 1.0)

# record type -> its fields in order, each with a valid value and, unless no
# other value is valid with the rest, another valid value that may replace it alone
SAMPLES = {
    Variant: {
        "name": ("bernoulli", "other"), "model_class": (int, float), "fit": (len, max),
        "weightings": (("binary",), ()), "smoothed": (False, True), "cell": (None, str),
    },
    PipelineConfig: {
        "lowercase": (True, False), "strip_punctuation": (True, False),
        "stop_word_mode": ("none", "dictionary"), "frequency_top_n": (None, 5),
        "stemming": (False, True), "ngram_size": (1, 2),
    },
    StopList: {
        "words": (frozenset({"the"}), frozenset({"a", "an"})),
        "origin": ("dictionary", "frequency(2)"),
    },
    LabeledCorpus: {"documents": ((("ham", "hi mum"),), (("spam", "hi mum"),))},
    Vocabulary: {
        "tokens": (["a", "b"], ["b", "a"]),
        "document_frequency": ([1, 2], [2, 1]),
        "total_documents": (2, 3),
    },
    SparseVector: {"entries": ({0: 1.0}, {1: 1.0}), "doc_length": (1, 2)},
    PosteriorReport: {
        "log_scores": ({"a": -1.0}, {"a": -2.0}), "posteriors": ({"a": 1.0}, {"a": 0.5}),
        "predicted": ("a", "b"), "degenerate_evidence": (False, True),
    },
    LabelMetrics: {
        "precision": (0.5, 1.0), "recall": (0.5, 0.25), "f1": (0.5, 0.4), "support": (2, 3),
    },
    EvaluationReport: {
        "accuracy": (0.5, 1.0),
        "per_label": ({"a": LabelMetrics(0.5, 0.5, 0.5, 2)}, {}),
        "confusion": ({"a": {"a": 1}}, {}),
        "n_test": (2, 3),
        "zero_division_labels": (frozenset(), frozenset({"a"})),
    },
    # counts fix the probabilities and the total, and the class tables their labels
    ClassPriors: {
        "probabilities": ({"a": 0.25, "b": 0.75},), "counts": ({"a": 1, "b": 3},),
        "total": (4,),
    },
    CategoricalModel: {
        "priors": (UNCOUNTED, COUNTED),
        "value_counts": (({"a": {"x": 2}},), ({"a": {"x": 1, "y": 1}},)),
        "class_counts": ({"a": 2},), "alpha": (0.0, 1.0),
    },
    BernoulliModel: {
        "priors": (UNCOUNTED, COUNTED), "doc_counts": ({"a": [1, 0]}, {"a": [2, 0]}),
        "class_doc_counts": ({"a": 2}, {"a": 3}), "vocab_size": (2,),
    },
    MultinomialModel: {
        "priors": (UNCOUNTED, COUNTED), "tf_sums": ({"a": {0: 1.0}}, {"a": {1: 1.0}}),
        "class_totals": ({"a": 1.0},), "vocab_size": (2, 3), "alpha": (1.0, 0.5),
    },
    GaussianModel: {
        "priors": (UNCOUNTED, COUNTED), "means": ({"a": [0.0]}, {"a": [1.0]}),
        "stds": ({"a": [1.0]}, {"a": [2.0]}), "n_features": (1,),
    },
    ModelArchive: {
        "variant": ("multinomial",),  # each variant holds its own model class
        "model": (MULTINOMIAL, MultinomialModel(UNCOUNTED, {"a": {}}, {"a": 0}, 1, 1.0)),
        "pipeline_config": (PipelineConfig(), PipelineConfig(stemming=True)),
        "vocab": (Vocabulary(["x"], [1], 1), Vocabulary(["y"], [1], 1)),
        "weighting": ("raw_count", "tfidf"), "stops": (None, StopList()),
    },
}
# record types whose sample holds a dict or a list, so hashing it raises TypeError
UNHASHABLE = {Vocabulary, SparseVector, PosteriorReport, EvaluationReport, ClassPriors,
              CategoricalModel, BernoulliModel, MultinomialModel, GaussianModel, ModelArchive}
RECORDS = pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)


def _fields(cls, **changes) -> dict:
    return {name: pair[0] for name, pair in SAMPLES[cls].items()} | changes


@RECORDS
def test_equal_exactly_when_of_one_type_with_equal_fields(cls):
    record = cls(**_fields(cls))
    assert record == cls(**_fields(cls)) and not record != cls(**_fields(cls))
    assert cls(*_fields(cls).values()) == record
    for name, (_, *other) in SAMPLES[cls].items():
        if other:
            assert cls(**_fields(cls, **{name: other[0]})) != record, name
    subclass = type("Subclass", (cls,), {})
    assert subclass(**_fields(cls)) != record and record != subclass(**_fields(cls))
    assert record != tuple(_fields(cls).values())


@RECORDS
def test_fields_are_read_only(cls):
    record = cls(**_fields(cls))
    for name, (value, *_) in SAMPLES[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@RECORDS
def test_repr_names_every_field_in_order(cls):
    fields = _fields(cls)
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__qualname__}({shown})"


@RECORDS
def test_hash_is_the_hash_of_the_field_tuple(cls):
    record = cls(**_fields(cls))
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**_fields(cls))) == hash(tuple(_fields(cls).values()))


def test_a_hashable_record_that_holds_a_dict_does_not_hash():
    with pytest.raises(TypeError):
        hash(LabeledCorpus((("ham", {"cell": 1}),)))


@RECORDS
def test_copy_and_pickle_give_an_equal_record(cls):
    record = cls(**_fields(cls))
    assert copy.copy(record) == record and copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    if cls is Vocabulary:  # the id map is built again with the rebuilt record
        for rebuilt in copy.copy(record), copy.deepcopy(record), pickle.loads(
                pickle.dumps(record)):
            assert rebuilt.token_to_id == record.token_to_id == {"a": 0, "b": 1}


def test_no_nbtext_class_is_a_dataclass():
    """A dataclass execs its generated methods at every start-up; a record is
    built and changed through its constructor instead."""
    found = set()
    for info in pkgutil.iter_modules(nbtext.__path__):
        module = importlib.import_module(f"nbtext.{info.name}")
        found |= {
            name for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj)
        }
    assert found == set()


def test_binds_by_position_or_by_name():
    values = (False, True, "frequency", 3, True, 2)
    by_position = PipelineConfig(*values)
    assert by_position._values() == values
    assert PipelineConfig(**dict(zip(PipelineConfig._fields, values))) == by_position
    assert PipelineConfig(False, True, "frequency", ngram_size=2, stemming=True,
                          frequency_top_n=3) == by_position


def test_trailing_fields_left_out_take_their_defaults():
    assert PipelineConfig()._values() == tuple(PipelineConfig._defaults.values())
    assert StopList(frozenset({"the"})) == StopList(frozenset({"the"}), "dictionary")
    assert ClassPriors({"a": 1.0}).counts is None and ClassPriors({"a": 1.0}).total is None
    assert ModelArchive("multinomial", MULTINOMIAL, PipelineConfig(),
                        Vocabulary(["x"], [1], 1), "raw_count").stops is None


@pytest.mark.parametrize("build,message", [
    (lambda: LabelMetrics(0.5, 0.5, 0.5), r"LabelMetrics\(\) missing argument 'support'"),
    (lambda: ClassPriors(counts={"a": 1}, total=1), "missing argument 'probabilities'"),
    (lambda: StopList(colour="red"), "unexpected keyword argument 'colour'"),
    (lambda: StopList(frozenset(), words=frozenset()), "multiple values for argument 'words'"),
    (lambda: LabeledCorpus((("a", "b"),), ()), r"got 2 arguments for the fields \('documents',\)"),
], ids=["missing", "missing-first", "unknown", "repeated", "too-many"])
def test_a_field_missing_unknown_repeated_or_extra_raises_type_error(build, message):
    with pytest.raises(TypeError, match=message):
        build()
