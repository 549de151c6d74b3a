"""Independent Porter stemmer used only to cross-check the production one.

Both work on whole strings with ordered suffix tables, but this one derives
its predicates differently: the measure counts ``vc`` pairs in a form whose
runs are first collapsed by a regex, consonants are classed by a recursive
per-letter test, every rule carries its own condition callable (step 1a
included), and no step rejects a word early by its set of suffixes. Any
behavioral gap between this and nbtext.porter is a bug in one of the two.
"""

import re


def _is_consonant(word, i):
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _forms(word):
    return "".join("c" if _is_consonant(word, i) else "v" for i in range(len(word)))


def _measure(stem):
    collapsed = re.sub(r"(.)\1+", r"\1", _forms(stem))
    return collapsed.count("vc")


def _has_vowel(stem):
    return "v" in _forms(stem)


def _ends_double_consonant(word):
    return len(word) >= 2 and word[-1] == word[-2] and _is_consonant(word, len(word) - 1)


def _ends_cvc(word):
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


def _first_match(word, rules):
    for suffix, replacement, condition in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if condition is None or condition(stem):
                return stem + replacement
            return word
    return word


def _step1a(word):
    return _first_match(
        word,
        [
            ("sses", "ss", None),
            ("ies", "i", None),
            ("ss", "ss", None),
            ("s", "", None),
        ],
    )


def _step1b(word):
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    for suffix in ("ed", "ing"):
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if not _has_vowel(stem):
                return word
            if stem.endswith(("at", "bl", "iz")):
                return stem + "e"
            if _ends_double_consonant(stem) and stem[-1] not in "lsz":
                return stem[:-1]
            if _measure(stem) == 1 and _ends_cvc(stem):
                return stem + "e"
            return stem
    return word


def _step1c(word):
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _m_positive(stem):
    return _measure(stem) > 0


_STEP2_RULES = [
    ("ational", "ate", _m_positive),
    ("tional", "tion", _m_positive),
    ("enci", "ence", _m_positive),
    ("anci", "ance", _m_positive),
    ("izer", "ize", _m_positive),
    ("abli", "able", _m_positive),
    ("alli", "al", _m_positive),
    ("entli", "ent", _m_positive),
    ("eli", "e", _m_positive),
    ("ousli", "ous", _m_positive),
    ("ization", "ize", _m_positive),
    ("ation", "ate", _m_positive),
    ("ator", "ate", _m_positive),
    ("alism", "al", _m_positive),
    ("iveness", "ive", _m_positive),
    ("fulness", "ful", _m_positive),
    ("ousness", "ous", _m_positive),
    ("aliti", "al", _m_positive),
    ("iviti", "ive", _m_positive),
    ("biliti", "ble", _m_positive),
]

_STEP3_RULES = [
    ("icate", "ic", _m_positive),
    ("ative", "", _m_positive),
    ("alize", "al", _m_positive),
    ("iciti", "ic", _m_positive),
    ("ical", "ic", _m_positive),
    ("ful", "", _m_positive),
    ("ness", "", _m_positive),
]


def _m_gt_one(stem):
    return _measure(stem) > 1


def _ion_condition(stem):
    return _measure(stem) > 1 and stem.endswith(("s", "t"))


_STEP4_RULES = [
    ("al", "", _m_gt_one),
    ("ance", "", _m_gt_one),
    ("ence", "", _m_gt_one),
    ("er", "", _m_gt_one),
    ("ic", "", _m_gt_one),
    ("able", "", _m_gt_one),
    ("ible", "", _m_gt_one),
    ("ant", "", _m_gt_one),
    ("ement", "", _m_gt_one),
    ("ment", "", _m_gt_one),
    ("ent", "", _m_gt_one),
    ("ion", "", _ion_condition),
    ("ou", "", _m_gt_one),
    ("ism", "", _m_gt_one),
    ("ate", "", _m_gt_one),
    ("iti", "", _m_gt_one),
    ("ous", "", _m_gt_one),
    ("ive", "", _m_gt_one),
    ("ize", "", _m_gt_one),
]


def _step5a(word):
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word):
    if word.endswith("ll") and _measure(word[:-1]) > 1:
        return word[:-1]
    return word


def oracle_stem(word):
    word = _step1a(word)
    if not word:
        return word
    word = _step1b(word)
    word = _step1c(word)
    word = _first_match(word, _STEP2_RULES)
    word = _first_match(word, _STEP3_RULES)
    word = _first_match(word, _STEP4_RULES)
    word = _step5a(word)
    word = _step5b(word)
    return word
