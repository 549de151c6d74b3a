"""Single-file JSON persistence for trained classifiers.

Archives store raw counts, sums, and hyperparameters, never derived
probabilities; estimates are recomputed from the same integers at load, so
a round-tripped model classifies identically and reproduces log-scores.
"""

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Union

from .models import (
    BernoulliModel,
    CategoricalModel,
    ClassPriors,
    GaussianModel,
    MultinomialModel,
    NaiveBayesModel,
    fit_bernoulli,
    fit_categorical,
    fit_gaussian,
    fit_multinomial,
)
from .pipeline import PipelineConfig, StopList, build_stop_list, run_pipeline, tokenize
from .vectorize import SparseVector, Vocabulary, build_vocabulary, vectorize

__all__ = [
    "FORMAT_VERSION",
    "ArchiveError",
    "ModelArchive",
    "train",
    "save_archive",
    "load_archive",
]

FORMAT_VERSION = 1

# variant name -> model class, in the order the CLI lists them
VARIANTS = {
    "categorical": CategoricalModel,
    "bernoulli": BernoulliModel,
    "multinomial": MultinomialModel,
    "gaussian": GaussianModel,
}
TEXT_VARIANTS = ("bernoulli", "multinomial")


class ArchiveError(Exception):
    """Archive could not be written or parsed."""


@dataclass(frozen=True)
class ModelArchive:
    """A trained model plus everything needed to classify new input:
    pipeline config, stop list, vocabulary, and weighting mode (text
    variants only; categorical and gaussian models carry none of these)."""

    variant: str
    model: NaiveBayesModel
    pipeline_config: Optional[PipelineConfig] = None
    vocab: Optional[Vocabulary] = None
    weighting: Optional[str] = None
    stops: Optional[StopList] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant!r}")
        if not isinstance(self.model, VARIANTS[self.variant]):
            raise ValueError(
                f"{self.variant} archives hold a {VARIANTS[self.variant].__name__}"
            )
        if self.variant in TEXT_VARIANTS:
            if self.pipeline_config is None or self.vocab is None or not self.weighting:
                raise ValueError(
                    f"{self.variant} archives need pipeline config, vocabulary "
                    "and weighting"
                )
            if self.model.vocab_size != len(self.vocab):
                raise ValueError(f"vocab_size must be {len(self.vocab)}, the token count")

    def encode(self, x):
        """One raw input as the model scores it: text vectorized as at training
        time, else a row of cells (a str is split on commas if it has any, else
        on whitespace); Gaussian cells must parse as finite floats."""
        if self.variant in TEXT_VARIANTS:
            return self.encode_text(x)
        if isinstance(x, str):
            x = [cell.strip() for cell in x.split(",")] if "," in x else x.split()
        if self.variant == "gaussian":
            x = [float(v) for v in x]
            if not all(map(math.isfinite, x)):
                raise ValueError("gaussian features must be finite numbers")
        return x

    def encode_text(self, text: str) -> SparseVector:
        """Vectorize raw text exactly as at training time."""
        if self.variant not in TEXT_VARIANTS:
            raise ValueError(f"{self.variant} models do not take raw text")
        stream = run_pipeline(text, self.pipeline_config, self.stops)
        return vectorize(stream, self.vocab, self.weighting)


def _priors_payload(priors: ClassPriors) -> dict:
    if priors.counts is None:
        raise ArchiveError(
            "cannot archive priors without sample counts "
            "(model was built from explicit probabilities)"
        )
    return {
        "labels": list(priors.probabilities),
        "counts": [priors.counts[lab] for lab in priors.probabilities],
        "total": priors.total,
    }


def _priors_from_payload(payload: dict) -> ClassPriors:
    labels = payload["labels"]
    counts = dict(zip(labels, payload["counts"]))
    total = payload["total"]
    probs = {lab: counts[lab] / total for lab in labels}
    return ClassPriors(probs, counts, total)


# parameter fields whose JSON form differs from the dataclass value
_FIELD_DECODERS = {
    "tf_sums": lambda tf_sums: {
        lab: {int(i): v for i, v in sums.items()} for lab, sums in tf_sums.items()
    },
    "value_counts": tuple,
}


def _model_payload(model: NaiveBayesModel) -> dict:
    # every dataclass field after priors; json.dump writes the int keys of
    # tf_sums as strings and the value_counts tuple as a list
    return {f.name: getattr(model, f.name) for f in fields(model)[1:]}


def _model_from_payload(
    variant: str, payload: dict, priors: ClassPriors
) -> NaiveBayesModel:
    model_class = VARIANTS[variant]
    params = {}
    for f in fields(model_class)[1:]:
        decode = _FIELD_DECODERS.get(f.name)
        params[f.name] = decode(payload[f.name]) if decode else payload[f.name]
    return model_class(priors, **params)


def train(
    variant: str,
    labels: Sequence[str],
    inputs: Sequence,
    alpha: float = 1.0,
    pipeline_config: PipelineConfig = PipelineConfig(),
    weighting: Optional[str] = None,
    stops: Optional[StopList] = None,
) -> ModelArchive:
    """Fit a ``variant`` model and return it as an archive.

    ``inputs`` are raw texts for the text variants, which also need a
    ``weighting``; otherwise they are parsed feature rows, and the pipeline
    settings are ignored. When the config asks for a frequency stop list and
    ``stops`` is None, it is built from the training texts. ``alpha`` is
    ignored by the Bernoulli and Gaussian variants.
    """
    if variant == "categorical":
        return ModelArchive(variant, fit_categorical(inputs, labels, alpha))
    if variant == "gaussian":
        return ModelArchive(variant, fit_gaussian(inputs, labels))
    if variant not in TEXT_VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    if stops is None and pipeline_config.stop_word_mode == "frequency":
        tokenized = (tokenize(text, pipeline_config) for text in inputs)
        stops = build_stop_list(tokenized, pipeline_config.frequency_top_n)
    streams = [run_pipeline(text, pipeline_config, stops) for text in inputs]
    vocab = build_vocabulary(streams)
    vectors = [vectorize(s, vocab, weighting) for s in streams]
    if variant == "bernoulli":
        model = fit_bernoulli(vectors, labels, vocab)
    else:
        model = fit_multinomial(vectors, labels, vocab, alpha)
    return ModelArchive(variant, model, pipeline_config, vocab, weighting, stops)


def save_archive(archive: ModelArchive, path: Union[str, Path]) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "variant": archive.variant,
        "priors": _priors_payload(archive.model.priors),
        "parameters": _model_payload(archive.model),
        "pipeline": asdict(archive.pipeline_config)
        if archive.pipeline_config is not None
        else None,
        "weighting": archive.weighting,
        "stop_words": {
            "origin": archive.stops.origin,
            "words": sorted(archive.stops.words),
        }
        if archive.stops is not None
        else None,
        "vocabulary": {
            "tokens": archive.vocab.id_to_token(),
            "document_frequency": archive.vocab.document_frequency,
            "total_documents": archive.vocab.total_documents,
        }
        if archive.vocab is not None
        else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False)
        fh.write("\n")


def load_archive(path: Union[str, Path]) -> ModelArchive:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ArchiveError(f"not a model archive (invalid JSON): {exc}") from exc
    try:
        version = doc["format_version"]
        if version != FORMAT_VERSION:
            raise ArchiveError(
                f"unsupported format_version {version}; this build reads "
                f"version {FORMAT_VERSION}"
            )
        variant = doc["variant"]
        if variant not in VARIANTS:
            raise ArchiveError(f"unknown variant {variant!r}")
        priors = _priors_from_payload(doc["priors"])
        model = _model_from_payload(variant, doc["parameters"], priors)
        alpha = getattr(model, "alpha", 0)  # categorical and multinomial only
        if type(alpha) not in (int, float) or not alpha >= 0:
            raise ValueError(f"alpha must be a number >= 0, got {alpha!r}")
        pipeline_config = (
            PipelineConfig(**doc["pipeline"]) if doc.get("pipeline") else None
        )
        stops = None
        if doc.get("stop_words"):
            stops = StopList(
                frozenset(doc["stop_words"]["words"]), doc["stop_words"]["origin"]
            )
        vocab = None
        if doc.get("vocabulary"):
            v = doc["vocabulary"]
            vocab = Vocabulary(
                {tok: i for i, tok in enumerate(v["tokens"])},
                v["document_frequency"],
                v["total_documents"],
            )
        archive = ModelArchive(
            variant, model, pipeline_config, vocab, doc.get("weighting"), stops
        )
    except KeyError as exc:
        raise ArchiveError(f"archive is missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ArchiveError(f"malformed archive: {exc}") from exc
    except ValueError as exc:
        raise ArchiveError(str(exc)) from exc
    return archive
