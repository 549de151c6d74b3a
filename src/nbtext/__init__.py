"""Naive Bayes text classification toolkit.

Categorical, multi-variate Bernoulli, multinomial and Gaussian naive Bayes
models over a configurable bag-of-words pipeline (tokenization, stop words,
Porter stemming, n-grams) with binary / count / tf / tf-idf weighting, a
deterministic evaluation harness, and JSON model archives. The `nbtext`
console script exposes train / predict / evaluate / inspect commands.
"""

from .archive import ArchiveError, ModelArchive, load_archive, save_archive, train
from .evaluation import (
    CorpusFormatError,
    EvaluationReport,
    LabeledCorpus,
    evaluate,
    load_corpus,
    split,
)
from .models import (
    BernoulliModel,
    CategoricalModel,
    ClassPriors,
    GaussianModel,
    MultinomialModel,
    PosteriorReport,
    classify,
    fit_bernoulli,
    fit_categorical,
    fit_gaussian,
    fit_multinomial,
    fit_priors,
    log_likelihood,
    normalized_posteriors,
    posterior_scores,
)
from .pipeline import PipelineConfig, StopList, run_pipeline, tokenize
from .porter import porter_stem
from .vectorize import (
    BINARY,
    NORMALIZED_TF,
    RAW_COUNT,
    TFIDF,
    SparseVector,
    Vocabulary,
    build_vocabulary,
    idf,
    vectorize,
)

__version__ = "0.1.0"

__all__ = [
    "ArchiveError",
    "BINARY",
    "BernoulliModel",
    "CategoricalModel",
    "ClassPriors",
    "CorpusFormatError",
    "EvaluationReport",
    "GaussianModel",
    "LabeledCorpus",
    "ModelArchive",
    "MultinomialModel",
    "NORMALIZED_TF",
    "PipelineConfig",
    "PosteriorReport",
    "RAW_COUNT",
    "SparseVector",
    "StopList",
    "TFIDF",
    "Vocabulary",
    "build_vocabulary",
    "classify",
    "evaluate",
    "fit_bernoulli",
    "fit_categorical",
    "fit_gaussian",
    "fit_multinomial",
    "fit_priors",
    "idf",
    "load_archive",
    "load_corpus",
    "log_likelihood",
    "normalized_posteriors",
    "porter_stem",
    "posterior_scores",
    "run_pipeline",
    "save_archive",
    "split",
    "tokenize",
    "train",
    "vectorize",
]
