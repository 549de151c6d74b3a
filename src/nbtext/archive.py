"""Single-file JSON persistence for trained classifiers.

Archives store raw counts, sums, and hyperparameters, never derived
probabilities; estimates are recomputed from the same integers at load, so
a round-tripped model classifies identically and reproduces log-scores.
"""

import json
import math
import os
from collections.abc import Sequence

from .models import (
    BernoulliModel,
    CategoricalModel,
    ClassPriors,
    GaussianModel,
    MultinomialModel,
    NaiveBayesModel,
    bernoulli_from_entries,
    check_alpha,
    fit_categorical,
    fit_gaussian,
    multinomial_from_entries,
)
from .pipeline import PipelineConfig, StopList, run_pipeline, token_streams
from .record import Record
from .vectorize import (
    BINARY,
    NORMALIZED_TF,
    RAW_COUNT,
    TFIDF,
    SparseVector,
    Vocabulary,
    index_streams,
    vectorize,
    weigh,
)

__all__ = [
    "FORMAT_VERSION",
    "ArchiveError",
    "ModelArchive",
    "train",
    "save_archive",
    "load_archive",
]

FORMAT_VERSION = 1
# the archive's top-level keys, in the order save_archive writes them
_ARCHIVE_KEYS = ("format_version", "variant", "priors", "parameters", "pipeline",
                 "weighting", "stop_words", "vocabulary")


def finite_float(cell) -> float:
    """One real-valued feature cell as a float; nan and infinities are refused."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError("features must be finite numbers")
    return value


class Variant(Record):
    """What one model family takes and how it fits. ``weightings`` lists the
    term weightings it accepts, default first; an empty list means it takes
    rows of cells, each parsed by ``cell``, instead of text. ``fit`` takes the
    rows, or the texts' id -> weight tables and the vocabulary size, then the
    labels, then ``alpha`` for ``smoothed`` variants; the others ignore it."""

    _shapes = {"name": str, "model_class": type, "fit": object,
               "weightings": tuple[str, ...], "smoothed": bool, "cell": object}
    _defaults = {"weightings": (), "smoothed": False, "cell": None}

    @property
    def text(self) -> bool:
        return bool(self.weightings)

    def check(self, weighting: str | None) -> str | None:
        """The weighting to train with (None: the default); ValueError if not taken."""
        if weighting is None:
            return self.weightings[0] if self.text else None
        if weighting not in self.weightings:
            takes = " or ".join(self.weightings) or "no"
            raise ValueError(f"{self.name} takes {takes} weighting, not {weighting!r}")
        return weighting


# variant name -> what it takes, in the order the CLI lists them
VARIANTS = {
    v.name: v
    for v in (
        Variant("categorical", CategoricalModel, fit_categorical, smoothed=True, cell=str),
        Variant("bernoulli", BernoulliModel, bernoulli_from_entries, (BINARY,)),
        Variant("multinomial", MultinomialModel, multinomial_from_entries,
                (RAW_COUNT, NORMALIZED_TF, TFIDF), True),
        Variant("gaussian", GaussianModel, fit_gaussian, cell=finite_float),
    )
}


def _variant_spec(name: str) -> Variant:
    if name not in VARIANTS:
        raise ValueError(f"unknown variant: {name!r}")
    return VARIANTS[name]


class ArchiveError(Exception):
    """Archive could not be written or parsed."""


class ModelArchive(Record):
    """A trained model plus everything needed to classify new input:
    pipeline config, stop list, vocabulary, and weighting mode (text
    variants only; a row variant's archive that carries any of these is
    refused). The variant must take the weighting, the vocabulary must count
    the priors' documents, and a pipeline that removes stop words needs its
    stop list."""

    _shapes = {"variant": str, "model": object,  # _check tests the model's class
               "pipeline_config": PipelineConfig | None, "vocab": Vocabulary | None,
               "weighting": str | None, "stops": StopList | None}
    _defaults = {"pipeline_config": None, "vocab": None, "weighting": None, "stops": None}

    def _check(self):
        spec = _variant_spec(self.variant)
        if not isinstance(self.model, spec.model_class):
            raise ValueError(
                f"{self.variant} archives hold a {spec.model_class.__name__}"
            )
        spec.check(self.weighting)
        if spec.text:
            if self.pipeline_config is None or self.vocab is None or not self.weighting:
                raise ValueError(
                    f"{self.variant} archives need pipeline config, vocabulary "
                    "and weighting"
                )
            if self.model.vocab_size != len(self.vocab):
                raise ValueError(f"vocab_size must be the token count, {len(self.vocab)}")
            total = self.model.priors.total
            if total is not None and self.vocab.total_documents != total:
                raise ValueError(f"total_documents must be the priors total, {total}")
            mode = self.pipeline_config.stop_word_mode
            if mode != "none" and self.stops is None:  # as the text step refuses it
                raise ValueError(f"stop_word_mode={mode!r} requires a stop list")
        elif any(v is not None for v in (self.pipeline_config, self.vocab, self.stops)):
            raise ValueError(
                f"{self.variant} archives carry no pipeline config, vocabulary or stop list"
            )

    def encode(self, x):
        """One raw input as the model scores it: text vectorized as at training
        time, else a row of cells (a str is split on commas if it has any, else
        on whitespace), each parsed by the variant's cell rule."""
        spec = VARIANTS[self.variant]
        if spec.text:
            return self.encode_text(x)
        if isinstance(x, str):
            x = [cell.strip() for cell in x.split(",")] if "," in x else x.split()
        return [spec.cell(v) for v in x]

    def encode_text(self, text: str) -> SparseVector:
        """Vectorize raw text exactly as at training time."""
        if not VARIANTS[self.variant].text:
            raise ValueError(f"{self.variant} models do not take raw text")
        stream = run_pipeline(text, self.pipeline_config, self.stops)
        return vectorize(stream, self.vocab, self.weighting)


def _section(doc, name: str, keys: Sequence[str]) -> list:
    """The values of archive section ``name`` in the order of ``keys``, the keys
    ``save_archive`` writes to it: KeyError for the first missing key in sorted
    order, TypeError for the first unknown key likewise, or for a section that
    is no JSON object."""
    if type(doc) is not dict:
        raise TypeError(f"{name} must be a JSON object")
    if doc.keys() != set(keys):
        missing = set(keys).difference(doc)
        if missing:
            raise KeyError(min(missing))
        raise TypeError(f"{name} has unknown field {min(doc.keys() - set(keys))!r}")
    return [doc[key] for key in keys]


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
    labels, counts, total = _section(payload, "priors", ("labels", "counts", "total"))
    if type(labels) is not list or type(counts) is not list:  # zip would read a str
        raise ValueError("priors labels and counts must be lists")
    if len(set(labels)) != len(labels) or len(counts) != len(labels):
        raise ValueError("priors need one count per distinct label")
    priors = ClassPriors.from_counts(dict(zip(labels, counts)))
    return ClassPriors(priors.probabilities, priors.counts, total)  # checks the total


def _decode_tf_sums(tf_sums: dict) -> dict:
    """tf_sums with its id keys as ints; a key must be the decimal form of its
    int exactly, as json.dumps writes it (no sign, space, underscore or zero
    padding). A class's keys are parsed as one JSON array, which refuses zero
    padding, ``+``, ``_`` and an empty key; with only ASCII and no ``-`` or
    whitespace in the keys, as many ints as keys are the keys' own ids."""
    out = {}
    for label, sums in tf_sums.items():
        weights = sums.values()  # first: a table that is no object is malformed
        keys = ",".join(sums)
        try:
            ids = json.loads(f"[{keys}]")
        except (ValueError, RecursionError):
            ids = None
        if (ids is None or len(ids) != len(sums) or not set(map(type, ids)) <= {int}
                or not keys.isascii() or any(c in keys for c in "- \t\n\r")):
            raise ValueError(f"tf_sums[{label!r}] keys must be token ids in decimal")
        out[label] = dict(zip(ids, weights))
    return out


# parameter fields whose JSON form differs from the model's value
_FIELD_DECODERS = {"tf_sums": _decode_tf_sums, "value_counts": tuple}


def _model_payload(model: NaiveBayesModel) -> dict:
    # every model field after priors; json.dumps writes the int keys of
    # tf_sums as strings and the value_counts tuple as a list
    return {name: getattr(model, name) for name in model._fields[1:]}


def _model_from_payload(
    model_class: type, payload: dict, priors: ClassPriors
) -> NaiveBayesModel:
    names, params = model_class._fields[1:], {}
    for name, value in zip(names, _section(payload, "parameters", names)):
        decode = _FIELD_DECODERS.get(name)
        params[name] = decode(value) if decode else value
    return model_class(priors, **params)


def train(
    variant: str,
    documents: Sequence[tuple[str, object]],
    alpha: float = 1.0,
    pipeline_config: PipelineConfig = PipelineConfig(),
    weighting: str | None = None,
    stops: StopList | None = None,
) -> ModelArchive:
    """Fit a ``variant`` model to (label, input) pairs and return it as an archive.

    The inputs are raw texts for the text variants, weighted by ``weighting``
    (None: the variant's default); otherwise rows of cells, parsed by the
    cell rule of ``encode``, and the pipeline settings are ignored. A config
    asking for a frequency stop list with ``stops`` None builds it from the
    texts; a given stop list is spelled as the tokens are. The texts are read
    twice (see ``token_streams``): the text rules run once per distinct
    whitespace piece, each text then becomes a list of vocabulary ids, and
    each id list, weighted by ``weigh``, goes straight into the class sums.
    The model is the one ``fit_bernoulli`` or ``fit_multinomial`` gives over
    ``build_vocabulary`` and ``vectorize``.
    Variants that smooth with ``alpha`` need a finite number >= 0 that keeps
    their smoothed denominators finite; the others ignore it. Raises
    ValueError for what the variant does not take.
    """
    spec = _variant_spec(variant)
    weighting = spec.check(weighting)
    smoothing = (alpha,) if spec.smoothed else ()
    if smoothing:  # before any counting; the models check the denominators
        check_alpha(alpha)
    labels = [label for label, _ in documents]
    inputs = [x for _, x in documents]
    if not spec.text:
        rows = [[spec.cell(v) for v in row] for row in inputs]
        return ModelArchive(variant, spec.fit(rows, labels, *smoothing))
    # the piece table behind the streams is freed before the document
    # frequencies are counted
    streams, stops = token_streams(inputs, pipeline_config, stops)
    id_lists, vocab = index_streams(streams)
    tables = (weigh(ids, len(ids), vocab, weighting) for ids in id_lists)
    model = spec.fit(tables, labels, len(vocab), *smoothing)
    return ModelArchive(variant, model, pipeline_config, vocab, weighting, stops)


def save_archive(archive: ModelArchive, path: str | os.PathLike) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "variant": archive.variant,
        "priors": _priors_payload(archive.model.priors),
        "parameters": _model_payload(archive.model),
        "pipeline": dict(zip(PipelineConfig._fields, archive.pipeline_config._values()))
        if archive.pipeline_config is not None
        else None,
        "weighting": archive.weighting,
        "stop_words": {
            "origin": archive.stops.origin,
            "words": sorted(archive.stops.words),
        }
        if archive.stops is not None
        else None,
        "vocabulary": dict(zip(Vocabulary._fields, archive.vocab._values()))
        if archive.vocab is not None
        else None,
    }
    # one json.dumps call runs the C encoder; json.dump to a file does not
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, ensure_ascii=False) + "\n")


def load_archive(path: str | os.PathLike) -> ModelArchive:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad syntax, bytes that are not UTF-8 or an int past the
        # digit limit; RecursionError: nesting past the decoder's depth
        raise ArchiveError(f"not a model archive (invalid JSON): {exc}") from exc
    try:
        version = doc["format_version"]
        if type(version) is not int or version != FORMAT_VERSION:
            raise ArchiveError(
                f"unsupported format_version {version}; this build reads "
                f"version {FORMAT_VERSION}"
            )
        # every section is read whole, so no field falls to a default and no
        # unknown (say, misspelt) field is passed over; null is a section the
        # variant does not carry
        _, variant, priors, parameters, pipeline, weighting, stops, vocab = _section(
            doc, "archive", _ARCHIVE_KEYS
        )
        spec = _variant_spec(variant)
        priors = _priors_from_payload(priors)
        model = _model_from_payload(spec.model_class, parameters, priors)
        if pipeline is not None:
            pipeline = PipelineConfig(*_section(pipeline, "pipeline", PipelineConfig._fields))
        if stops is not None:
            origin, words = _section(stops, "stop_words", ("origin", "words"))
            if type(words) is not list:  # frozenset would take a str's characters
                raise ValueError("stop_words words must be a list")
            stops = StopList(frozenset(words), origin)
        if vocab is not None:
            vocab = Vocabulary(*_section(vocab, "vocabulary", Vocabulary._fields))
        archive = ModelArchive(variant, model, pipeline, vocab, weighting, stops)
    except KeyError as exc:
        raise ArchiveError(f"archive is missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ArchiveError(f"malformed archive: {exc}") from exc
    except ValueError as exc:
        raise ArchiveError(str(exc)) from exc
    return archive
