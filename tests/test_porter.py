"""Stemmer conformance: published anchors, a frozen reference vocabulary,
and cross-validation against an independent rule-table implementation."""

import itertools
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbtext import porter
from nbtext.porter import porter_stem
from porter_oracle import oracle_stem

# The four canonical example words and their stems.
ANCHORS = {
    "swimming": "swim",
    "thus": "thu",
    "likes": "like",
    "swimmer": "swimmer",
}

# Classic algorithm examples whose stems re-stem shorter, so they are kept
# out of the idempotent reference bundle. Verified by both implementations;
# the first five are hand-checked against the published rule tables.
NON_IDEMPOTENT_CLASSICS = {
    "agreed": "agre",
    "decisiveness": "decis",
    "callousness": "callous",
    "defensible": "defens",
    "cease": "ceas",
    "university": "univers",
    "universities": "univers",
    "provision": "provis",
    "noise": "nois",
    "regenerate": "regener",
}


def load_reference(data_dir):
    pairs = []
    with open(data_dir / "porter_reference.tsv", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            word, stem = line.split("\t")
            pairs.append((word, stem))
    return pairs


@pytest.mark.parametrize("word,stem", sorted(ANCHORS.items()))
def test_published_anchor_words(word, stem):
    assert porter_stem(word) == stem


@pytest.mark.parametrize("word,stem", sorted(ANCHORS.items()))
def test_anchor_outputs_are_fixed_points(word, stem):
    assert porter_stem(stem) == stem


def test_reference_vocabulary(data_dir):
    pairs = load_reference(data_dir)
    assert len(pairs) >= 100
    for word, stem in pairs:
        assert porter_stem(word) == stem, word


def test_reference_outputs_are_fixed_points(data_dir):
    for _, stem in load_reference(data_dir):
        assert porter_stem(stem) == stem, stem


def test_reference_vocabulary_agrees_with_oracle(data_dir):
    for word, stem in load_reference(data_dir):
        assert oracle_stem(word) == stem, word


@pytest.mark.parametrize("word,stem", sorted(NON_IDEMPOTENT_CLASSICS.items()))
def test_non_idempotent_classics(word, stem):
    assert porter_stem(word) == stem
    assert oracle_stem(word) == stem


def test_step_rule_edges():
    # plural handling
    assert porter_stem("caresses") == "caress"
    assert porter_stem("ponies") == "poni"
    assert porter_stem("cats") == "cat"
    assert porter_stem("glass") == "glass"
    # a bare "s" is consumed entirely; callers drop the empty result
    assert porter_stem("s") == ""
    assert porter_stem("ies") == "i"
    # ed/ing with cleanup rules
    assert porter_stem("hopping") == "hop"
    assert porter_stem("falling") == "fall"
    assert porter_stem("filing") == "file"
    assert porter_stem("conflated") == "conflat"
    # y -> i only with a vowel in the stem
    assert porter_stem("happy") == "happi"
    assert porter_stem("sky") == "sky"
    assert porter_stem("dying") == "dy"
    # long-suffix chains
    assert porter_stem("relational") == "relat"
    assert porter_stem("characterization") == "character"
    # double-l reduction needs measure > 1
    assert porter_stem("controlled") == "control"
    assert porter_stem("rolling") == "roll"


@pytest.mark.parametrize(
    "word", ["", "Swim", "can't", "x1y", "swim2", "eté", "SWIM"]
)
def test_non_lowercase_alpha_passes_through(word):
    assert porter_stem(word) == word


@pytest.mark.parametrize("word", list(string.ascii_lowercase))
def test_single_letters_survive(word):
    expected = "" if word == "s" else word
    assert porter_stem(word) == expected


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_matches_independent_oracle(word):
    assert porter_stem(word) == oracle_stem(word)


_SUFFIXES = [
    "s", "es", "ies", "ed", "eed", "ing", "ational", "tional", "izer", "abli",
    "alli", "entli", "eli", "ousli", "ization", "ation", "ator", "alism",
    "iveness", "fulness", "ousness", "aliti", "iviti", "biliti", "icate",
    "ative", "alize", "iciti", "ical", "ful", "ness", "al", "ance", "ence",
    "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ion", "ou",
    "ism", "ate", "iti", "ous", "ive", "ize", "e", "ll", "y",
]


@settings(max_examples=500, deadline=None)
@given(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
    st.sampled_from(_SUFFIXES),
)
def test_matches_oracle_on_suffixed_words(base, suffix):
    word = base + suffix
    assert porter_stem(word) == oracle_stem(word)


def test_matches_oracle_on_every_short_word_and_suffixed_pair():
    # every rule's measure, cvc and double-consonant gates on every short stem
    letters = string.ascii_lowercase
    short = [
        "".join(chars)
        for n in (1, 2, 3)
        for chars in itertools.product(letters, repeat=n)
    ]
    suffixed = [a + b + suffix for a in letters for b in letters for suffix in _SUFFIXES]
    assert len(short) == 18_278 and len(suffixed) == 35_828
    for word in short + suffixed:
        assert porter_stem.__wrapped__(word) == oracle_stem(word), word


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_stem_never_longer_than_word(word):
    assert len(porter_stem(word)) <= len(word)


def test_cached_stems_match_the_uncached_stemmer(data_dir):
    for word, stem in load_reference(data_dir):
        for w in (word, stem):
            assert porter_stem(w) == porter_stem.__wrapped__(w), w


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20),
    st.text(max_size=12),
))
def test_cache_is_transparent(word):
    # a second call is answered from the cache
    assert porter_stem(word) == porter_stem.__wrapped__(word)
    assert porter_stem(word) == porter_stem.__wrapped__(word)


def test_cache_is_bounded():
    assert porter_stem.cache_info().maxsize == 65536


def test_early_return_covers_every_suffix_a_rule_reads():
    """A word that ends in none of _ANY_SUFFIX is returned as it came; that is
    right only if every suffix that a step reads on the word ends in one."""
    step1 = ("sses", "ies", "ss", "s", "eed", "ed", "ing", "y")
    step5 = ("e", "ll")
    tables = [suffix for rules in (porter._STEP2, porter._STEP3, porter._STEP4)
              for suffix, _ in rules]
    for suffix in (*step1, *tables, *step5):
        assert suffix.endswith(porter._ANY_SUFFIX), suffix
