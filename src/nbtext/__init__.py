"""Naive Bayes text classification toolkit.

Categorical, multi-variate Bernoulli, multinomial and Gaussian naive Bayes
models over a configurable bag-of-words pipeline (tokenization, stop words,
Porter stemming, n-grams) with binary / count / tf / tf-idf weighting, a
deterministic evaluation harness, and JSON model archives. The `nbtext`
console script exposes train / predict / evaluate / inspect commands.

The exports are bound lazily (PEP 562): the first use of a name imports the
submodule that defines it, so a command loads only the modules it runs.
"""

from importlib import import_module

# the submodule ``vectorize`` shares its name with a function export: binding
# the function after importing the submodule keeps ``nbtext.vectorize`` the function
from .vectorize import vectorize

__version__ = "0.1.0"

# each export, listed under the submodule that defines it
_SUBMODULES = {
    "archive": ("ArchiveError", "ModelArchive", "load_archive", "save_archive", "train"),
    "evaluation": ("EvaluationReport", "evaluate", "split"),
    "models": (
        "BernoulliModel", "CategoricalModel", "ClassPriors", "GaussianModel",
        "MultinomialModel", "PosteriorReport", "classify", "fit_bernoulli",
        "fit_categorical", "fit_gaussian", "fit_multinomial", "fit_priors",
        "posterior_scores",
    ),
    "pipeline": (
        "CorpusFormatError", "PipelineConfig", "StopList", "load_corpus",
        "run_pipeline", "tokenize",
    ),
    "porter": ("porter_stem",),
    "vectorize": (
        "BINARY", "NORMALIZED_TF", "RAW_COUNT", "TFIDF", "SparseVector",
        "Vocabulary", "build_vocabulary", "vectorize",
    ),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
