"""Porter suffix-stripping stemmer.

Implements the 1980 algorithm as published (steps 1a through 5b), without
the later "departure" amendments found in many ports: step 2 maps -abli to
-able (not -bli to -ble), there is no -logi rule, and short words are not
exempted from stemming.

Each step works on the word as a plain string. The rules' conditions read
the word's consonant/vowel form, one ``c`` or ``v`` per letter: Porter's
measure m of a stem is the number of ``vc`` pairs in its form, and the
double-consonant and cvc tests read the form's last letters. Steps 2, 3 and
4 are ordered (suffix, replacement) tables in the published order; the
first suffix that ends the word decides the step, and it is replaced only
when the stem left of it has a large enough measure.

Stems can be non-words ("thus" -> "thu") and, for the bare word "s", the
empty string; callers that feed token streams should drop empty stems.
"""

import functools

__all__ = ["porter_stem"]

# every letter but y, whose class depends on the letter before it
_CV = str.maketrans(
    {ch: "v" if ch in "aeiou" else "c" for ch in "abcdefghijklmnopqrstuvwxz"}
)

_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)
_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)
_STEP4 = tuple((suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment",
    "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
))

# (rules, all their suffixes for an early reject, the measure a stem must exceed)
_TABLE_STEPS = tuple(
    (rules, tuple(suffix for suffix, _ in rules), min_measure)
    for rules, min_measure in ((_STEP2, 0), (_STEP3, 0), (_STEP4, 1))
)

# a word that ends in none of the suffixes the rules read (step 1's, the tables',
# step 5's) leaves every step as it came; a suffix that ends in another is left out
_READ = {"s", "eed", "ed", "ing", "y", "e", "ll"}.union(*(s for _, s, _ in _TABLE_STEPS))
_ANY_SUFFIX = tuple(
    sorted(s for s in _READ if not any(s != t and s.endswith(t) for t in _READ))
)


def _form(word):
    """One ``c`` or ``v`` per letter of ``word``."""
    form = word.translate(_CV)
    if "y" not in form:
        return form
    # y is a consonant at the start of a word or after a vowel, else a vowel
    letters = []
    prev = "v"
    for ch in form:
        prev = ("c" if prev == "v" else "v") if ch == "y" else ch
        letters.append(prev)
    return "".join(letters)


def _measure(stem):
    """Porter's m: the number of vowel-consonant sequences in ``stem``."""
    return _form(stem).count("vc")


def _ends_cvc(stem, form):
    """Consonant-vowel-consonant ending whose last consonant is not w, x or
    y; such a stem takes back a trailing e (hop -> hope)."""
    return form.endswith("cvc") and stem[-1] not in "wxy"


def _step1(word):
    # 1a: plurals; -sses and -ies both lose their last two letters
    if word.endswith(("sses", "ies")):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]
    # 1b: -eed, then -ed and -ing with their clean-ups
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith(("ed", "ing")):
        stem = word[:-2] if word.endswith("ed") else word[:-3]
        form = _form(stem)
        if "v" in form:
            word = stem
            if stem.endswith(("at", "bl", "iz")):
                word = stem + "e"
            elif len(stem) > 1 and stem[-1] == stem[-2] and form[-1] == "c":
                if stem[-1] not in "lsz":
                    word = stem[:-1]
            elif form.count("vc") == 1 and _ends_cvc(stem, form):
                word = stem + "e"
    # 1c: terminal y -> i when the stem holds a vowel
    if word.endswith("y") and "v" in _form(word[:-1]):
        word = word[:-1] + "i"
    return word


def _step5(word):
    # 5a: drop a final e when m > 1, or when m = 1 and the stem is not cvc
    if word.endswith("e"):
        stem = word[:-1]
        form = _form(stem)
        m = form.count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(stem, form)):
            word = stem
    # 5b: -ll -> -l when m > 1
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]
    return word


@functools.lru_cache(maxsize=65536)
def porter_stem(word: str) -> str:
    """Return the Porter stem of ``word``.

    Only lowercase ASCII alphabetic words are stemmed; anything else
    (mixed case, digits, punctuation, non-ASCII) is returned unchanged.
    Stems are memoized in a least-recently-used cache of 65,536 words, so a
    long input stream cannot grow it without bound; ``porter_stem.__wrapped__``
    is the uncached stemmer.
    """
    if not word.endswith(_ANY_SUFFIX) or not (
        word.isascii() and word.isalpha() and word.islower()
    ):
        return word
    word = _step1(word)
    # steps 2-4; a word that step 1 emptied ends with no suffix and passes through
    for rules, suffixes, min_measure in _TABLE_STEPS:
        if not word.endswith(suffixes):
            continue
        for suffix, replacement in rules:
            if word.endswith(suffix):
                break
        stem = word[: -len(suffix)]
        # step 4's -ion also needs a stem ending in s or t
        if _measure(stem) > min_measure and (
            suffix != "ion" or stem.endswith(("s", "t"))
        ):
            word = stem + replacement
    return _step5(word)
