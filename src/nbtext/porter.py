"""Porter suffix-stripping stemmer.

Implements the 1980 algorithm as published (steps 1a through 5b), without
the later "departure" amendments found in many ports: step 2 maps -abli to
-able (not -bli to -ble), there is no -logi rule, and short words are not
exempted from stemming.

Stems can be non-words ("thus" -> "thu") and, for the bare word "s", the
empty string; callers that feed token streams should drop empty stems.
"""

import functools

__all__ = ["porter_stem"]


class _Stemmer:
    """One-shot stemming buffer; mirrors the classic array-based layout.

    ``b`` holds the word, ``k`` the index of its last live character and
    ``j`` the end of the stem left of the current suffix candidate.
    """

    def __init__(self, word):
        self.b = word
        self.k = len(word) - 1
        self.j = 0

    def _cons(self, i):
        ch = self.b[i]
        if ch in "aeiou":
            return False
        if ch == "y":
            # y is a consonant when word-initial or after a vowel
            return i == 0 or not self._cons(i - 1)
        return True

    def _m(self):
        """Number of vowel-consonant sequences in b[0..j]."""
        i = 0
        while True:
            if i > self.j:
                return 0
            if not self._cons(i):
                break
            i += 1
        i += 1
        n = 0
        while True:
            while True:
                if i > self.j:
                    return n
                if self._cons(i):
                    break
                i += 1
            i += 1
            n += 1
            while True:
                if i > self.j:
                    return n
                if not self._cons(i):
                    break
                i += 1
            i += 1

    def _vowel_in_stem(self):
        return any(not self._cons(i) for i in range(self.j + 1))

    def _double_consonant(self, j):
        return j > 0 and self.b[j] == self.b[j - 1] and self._cons(j)

    def _cvc(self, i):
        # consonant-vowel-consonant ending where the final consonant is
        # not w, x or y; used to restore a trailing e (hop -> hope)
        if i < 2 or not self._cons(i) or self._cons(i - 1) or not self._cons(i - 2):
            return False
        return self.b[i] not in "wxy"

    def _ends(self, s):
        length = len(s)
        if length > self.k + 1:
            return False
        if self.b[self.k - length + 1 : self.k + 1] != s:
            return False
        self.j = self.k - length
        return True

    def _set_to(self, s):
        self.b = self.b[: self.j + 1] + s
        self.k = len(self.b) - 1

    def _replace_if_m(self, s):
        if self._m() > 0:
            self._set_to(s)

    def _step1ab(self):
        # plurals and -ed/-ing
        if self.b[self.k] == "s":
            if self._ends("sses"):
                self.k -= 2
            elif self._ends("ies"):
                self._set_to("i")
            elif self.k == 0 or self.b[self.k - 1] != "s":
                self.k -= 1
        if self._ends("eed"):
            if self._m() > 0:
                self.k -= 1
        elif (self._ends("ed") or self._ends("ing")) and self._vowel_in_stem():
            self.k = self.j
            if self._ends("at"):
                self._set_to("ate")
            elif self._ends("bl"):
                self._set_to("ble")
            elif self._ends("iz"):
                self._set_to("ize")
            elif self._double_consonant(self.k):
                if self.b[self.k - 1] not in "lsz":
                    self.k -= 1
            elif self._m() == 1 and self._cvc(self.k):
                self._set_to("e")

    def _step1c(self):
        # terminal y -> i when the stem holds a vowel
        if self._ends("y") and self._vowel_in_stem():
            self.b = self.b[: self.k] + "i"

    def _step2(self):
        if self.k < 1:
            return
        ch = self.b[self.k - 1]
        if ch == "a":
            if self._ends("ational"):
                self._replace_if_m("ate")
            elif self._ends("tional"):
                self._replace_if_m("tion")
        elif ch == "c":
            if self._ends("enci"):
                self._replace_if_m("ence")
            elif self._ends("anci"):
                self._replace_if_m("ance")
        elif ch == "e":
            if self._ends("izer"):
                self._replace_if_m("ize")
        elif ch == "l":
            if self._ends("abli"):
                self._replace_if_m("able")
            elif self._ends("alli"):
                self._replace_if_m("al")
            elif self._ends("entli"):
                self._replace_if_m("ent")
            elif self._ends("eli"):
                self._replace_if_m("e")
            elif self._ends("ousli"):
                self._replace_if_m("ous")
        elif ch == "o":
            if self._ends("ization"):
                self._replace_if_m("ize")
            elif self._ends("ation"):
                self._replace_if_m("ate")
            elif self._ends("ator"):
                self._replace_if_m("ate")
        elif ch == "s":
            if self._ends("alism"):
                self._replace_if_m("al")
            elif self._ends("iveness"):
                self._replace_if_m("ive")
            elif self._ends("fulness"):
                self._replace_if_m("ful")
            elif self._ends("ousness"):
                self._replace_if_m("ous")
        elif ch == "t":
            if self._ends("aliti"):
                self._replace_if_m("al")
            elif self._ends("iviti"):
                self._replace_if_m("ive")
            elif self._ends("biliti"):
                self._replace_if_m("ble")

    def _step3(self):
        ch = self.b[self.k]
        if ch == "e":
            if self._ends("icate"):
                self._replace_if_m("ic")
            elif self._ends("ative"):
                self._replace_if_m("")
            elif self._ends("alize"):
                self._replace_if_m("al")
        elif ch == "i":
            if self._ends("iciti"):
                self._replace_if_m("ic")
        elif ch == "l":
            if self._ends("ical"):
                self._replace_if_m("ic")
            elif self._ends("ful"):
                self._replace_if_m("")
        elif ch == "s":
            if self._ends("ness"):
                self._replace_if_m("")

    def _step4(self):
        if self.k < 1:
            return
        ch = self.b[self.k - 1]
        if ch == "a":
            if not self._ends("al"):
                return
        elif ch == "c":
            if not (self._ends("ance") or self._ends("ence")):
                return
        elif ch == "e":
            if not self._ends("er"):
                return
        elif ch == "i":
            if not self._ends("ic"):
                return
        elif ch == "l":
            if not (self._ends("able") or self._ends("ible")):
                return
        elif ch == "n":
            if not (
                self._ends("ant")
                or self._ends("ement")
                or self._ends("ment")
                or self._ends("ent")
            ):
                return
        elif ch == "o":
            # -ion only after s or t; -ou covers -ous via step-4 removal
            if not ((self._ends("ion") and self.b[self.j] in "st") or self._ends("ou")):
                return
        elif ch == "s":
            if not self._ends("ism"):
                return
        elif ch == "t":
            if not (self._ends("ate") or self._ends("iti")):
                return
        elif ch == "u":
            if not self._ends("ous"):
                return
        elif ch == "v":
            if not self._ends("ive"):
                return
        elif ch == "z":
            if not self._ends("ize"):
                return
        else:
            return
        if self._m() > 1:
            self.k = self.j

    def _step5(self):
        self.j = self.k
        if self.b[self.k] == "e":
            a = self._m()
            if a > 1 or (a == 1 and not self._cvc(self.k - 1)):
                self.k -= 1
        if self.b[self.k] == "l" and self._double_consonant(self.k) and self._m() > 1:
            self.k -= 1

    def run(self):
        self._step1ab()
        if self.k >= 0:  # step 1a can consume a bare "s" entirely
            self._step1c()
            self._step2()
            self._step3()
            self._step4()
            self._step5()
        return self.b[: self.k + 1]


@functools.lru_cache(maxsize=65536)
def porter_stem(word: str) -> str:
    """Return the Porter stem of ``word``.

    Only lowercase ASCII alphabetic words are stemmed; anything else
    (mixed case, digits, punctuation, non-ASCII) is returned unchanged.
    Stems are memoized in a least-recently-used cache of 65,536 words, so a
    long input stream cannot grow it without bound; ``porter_stem.__wrapped__``
    is the uncached stemmer.
    """
    if not word or not word.isascii() or not word.isalpha() or not word.islower():
        return word
    return _Stemmer(word).run()
