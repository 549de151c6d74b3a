"""The value records keep the value semantics a frozen dataclass gives: field
equality within one type, the hash of the field tuple, read-only fields and the
``Name(field=value, ...)`` repr. Only the types that callers take apart with
``dataclasses.replace``, ``fields`` or ``asdict`` are dataclasses."""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import nbtext
from nbtext.archive import Variant
from nbtext.evaluation import EvaluationReport, LabelMetrics
from nbtext.models import PosteriorReport
from nbtext.pipeline import LabeledCorpus, PipelineConfig, StopList
from nbtext.vectorize import SparseVector, Vocabulary

# record type -> its fields in order, each with a valid value and another valid
# value that may replace it alone
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
        "token_to_id": ({"a": 0, "b": 1}, {"a": 1, "b": 0}),
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
}
# record types whose sample holds a dict, so hashing it raises TypeError
HOLDS_A_DICT = {Vocabulary, SparseVector, PosteriorReport, EvaluationReport}
RECORDS = pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)


def _fields(cls, **changes) -> dict:
    return {name: pair[0] for name, pair in SAMPLES[cls].items()} | changes


@RECORDS
def test_equal_exactly_when_of_one_type_with_equal_fields(cls):
    record = cls(**_fields(cls))
    assert record == cls(**_fields(cls)) and not record != cls(**_fields(cls))
    assert cls(*_fields(cls).values()) == record
    for name, (_, other) in SAMPLES[cls].items():
        assert cls(**_fields(cls, **{name: other})) != record, name
    subclass = type("Subclass", (cls,), {})
    assert subclass(**_fields(cls)) != record and record != subclass(**_fields(cls))
    assert record != tuple(_fields(cls).values())


@RECORDS
def test_fields_are_read_only(cls):
    record = cls(**_fields(cls))
    for name, (value, other) in SAMPLES[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, name, other)
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
    if cls in HOLDS_A_DICT:
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


def test_only_the_types_callers_take_apart_are_dataclasses():
    """dataclasses.replace, fields and asdict are used on these alone; any other
    dataclass would exec its generated methods at every start-up."""
    found = set()
    for info in pkgutil.iter_modules(nbtext.__path__):
        module = importlib.import_module(f"nbtext.{info.name}")
        found |= {
            name for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj)
        }
    assert found == {"ClassPriors", "CategoricalModel", "BernoulliModel",
                     "MultinomialModel", "GaussianModel", "ModelArchive"}
