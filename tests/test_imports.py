"""What each command imports, and the package's lazily bound exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbtext
import nbtext.evaluation
import nbtext.pipeline
from nbtext.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
# modules that train and predict do not run: only evaluate loads
# nbtext.evaluation, whose split takes blake2b from _blake2 rather than load
# hashlib and OpenSSL's _hashlib, and porter spells out its alphabet rather
# than import string's
NOT_RUN = ("nbtext.evaluation", "hashlib", "_hashlib", "string")

# runs the CLI in a fresh interpreter (started with the given flags) and prints,
# as its last line, which of the watched modules (NOT_RUN unless a test names
# others) the command added to sys.modules; modules that site hooks load before
# nbtext is imported do not count
PROBE = """
import json, sys
before = set(sys.modules)
from nbtext.cli import main
code = main(sys.argv[2:])
added = set(sys.modules) - before
print(json.dumps([code, sorted(added & set(json.loads(sys.argv[1])))]))
"""


def _added_modules(*argv, stdin="", watched=NOT_RUN, flags=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, json.dumps(watched), *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=60,
    )
    code, added = json.loads(res.stdout.splitlines()[-1])
    assert code == 0, res.stderr
    return added


@pytest.fixture
def corpus(data_dir):
    return str(data_dir / "sample_messages.tsv")


@pytest.fixture
def model(tmp_path, corpus):
    path = str(tmp_path / "model.json")
    main(["train", "--input", corpus, "--model", path, "--variant", "bernoulli"])
    return path


@pytest.mark.parametrize("variant,flags", [
    ("multinomial", ["--stem", "on", "--stop-words", "top:5", "--ngram", "2"]),
    ("bernoulli", []),
])
def test_train_loads_no_evaluation_module(tmp_path, corpus, variant, flags):
    model = str(tmp_path / "model.json")
    argv = ["train", "--input", corpus, "--model", model, "--variant", variant, *flags]
    assert _added_modules(*argv) == []


def test_predict_loads_no_evaluation_module(model):
    assert _added_modules("predict", "--model", model, "--probs", "free prize") == []
    assert _added_modules("predict", "--model", model, stdin="free prize\nhi mum\n") == []


def test_predict_loads_no_heapq(model):
    # only a frequency stop list, built by train and evaluate, ranks with heapq
    assert _added_modules("predict", "--model", model, "free prize", watched=["heapq"]) == []


def test_train_and_predict_load_no_dataclasses(tmp_path, corpus, model):
    # records bind their own fields, so nothing needs dataclasses or the
    # inspect module it imports
    watched = ["dataclasses", "inspect"]
    argv = ["train", "--input", corpus, "--model", str(tmp_path / "model.json"),
            "--variant", "multinomial", "--stem", "on", "--stop-words", "top:5"]
    assert _added_modules(*argv, watched=watched) == []
    assert _added_modules("predict", "--model", model, "--probs", "free prize",
                          watched=watched) == []


def test_train_and_predict_load_no_typing_pathlib_or_contextlib(tmp_path, corpus):
    # annotations are builtin generics and collections.abc names, and paths are
    # str or os.PathLike; -S runs no site hook that would load these first
    watched = ["typing", "pathlib", "contextlib"]
    model = str(tmp_path / "model.json")
    argv = ["train", "--input", corpus, "--model", model,
            "--variant", "multinomial", "--stem", "on", "--stop-words", "top:5"]
    assert _added_modules(*argv, watched=watched, flags=["-S"]) == []
    assert _added_modules("predict", "--model", model, "--probs", "free prize",
                          watched=watched, flags=["-S"]) == []


def test_train_with_a_frequency_stop_list_loads_heapq(tmp_path, corpus):
    argv = ["train", "--input", corpus, "--model", str(tmp_path / "model.json"),
            "--variant", "multinomial", "--stop-words", "top:5"]
    assert _added_modules(*argv, watched=["heapq"]) == ["heapq"]


def test_evaluate_loads_the_evaluation_module(corpus):
    added = _added_modules("evaluate", "--input", corpus, "--variant", "multinomial")
    assert "nbtext.evaluation" in added


def test_evaluate_loads_no_hashlib(corpus):
    # -S runs no site hook that could load hashlib before nbtext is imported
    argv = ["evaluate", "--input", corpus, "--variant", "multinomial"]
    assert _added_modules(*argv, watched=["hashlib", "_hashlib"], flags=["-S"]) == []


def test_every_export_resolves():
    for name in nbtext.__all__:
        assert getattr(nbtext, name) is not None, name
    assert set(nbtext.__all__) <= set(dir(nbtext))
    with pytest.raises(AttributeError, match="no_such_name"):
        nbtext.no_such_name


def test_star_import_binds_every_export():
    names = {}
    exec("from nbtext import *", names)
    assert set(nbtext.__all__) <= set(names)
    assert all(names[name] is getattr(nbtext, name) for name in nbtext.__all__)


def test_vectorize_export_is_the_function_not_the_submodule():
    assert callable(nbtext.vectorize)
    assert nbtext.vectorize is sys.modules["nbtext.vectorize"].vectorize


def test_evaluation_reexports_the_pipeline_readers():
    for name in ("CorpusFormatError", "load_corpus", "load_row_corpus"):
        assert getattr(nbtext.evaluation, name) is getattr(nbtext.pipeline, name), name
    assert nbtext.evaluation.load_corpus is nbtext.load_corpus
    assert issubclass(nbtext.CorpusFormatError, ValueError)
