"""Verifier for the extremal-cone bound on q-character monomials.

Every monomial of a fundamental q-character, pushed through the braid action
along any Weyl element, must stay inside the nonnegative cone; the cone
vertices are the images of the anchor under the inverse operators.  The
verifier pushes each monomial along the breadth-first word tree, one braid
reflection per (monomial, element), and never trusts braid
well-definedness: for small groups each element is re-checked with a second
reduced word when one exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .braid import apply_s_word_inverse, reflect_dimensions, unit_framing
from .cartan import DEFAULT_WEYL_CAP, all_reduced_words, weyl_elements
from .lweights import LaurentMonomial, factor_to_a


@dataclass(frozen=True)
class ConeViolation:
    word: tuple
    vector: object
    image: object
    positions: tuple


@dataclass
class ExtremalReport:
    word: tuple
    checked: int
    violations: list

    @property
    def ok(self):
        return not self.violations


def _push_dims(datum, word, dims, framing):
    """S_w on one dimension vector by replaying the whole word."""
    for i in word:
        dims = reflect_dimensions(datum, i, dims, framing)
    return dims


def _violation(word, vec, image):
    """The ConeViolation of ``vec`` under S_word, or None if its image is in the cone."""
    bad = tuple(sorted(pos for pos, mult in image.items() if mult < 0))
    if not bad:
        return None
    return ConeViolation(
        word=word, vector=vec, image=tuple(sorted(image.items())), positions=bad
    )


def extremal_check(datum, qchar, element, framing=None):
    """Push every q-character monomial through S_w and record cone exits.

    Replays the whole word per monomial; the verifier below shares prefixes
    instead, and this per-word replay is its differential oracle.
    """
    if framing is None:
        framing = unit_framing(qchar.anchor)
    violations = []
    for vec in qchar.entries:
        image = _push_dims(datum, element.word, vec.as_dict(), framing)
        violation = _violation(element.word, vec, image)
        if violation is not None:
            violations.append(violation)
    return ExtremalReport(
        word=element.word, checked=len(qchar.entries), violations=violations
    )


def _pushed_images(datum, elements, vectors, framing):
    """Yield (element, [S_w(v) for v in vectors]) for each element in order.

    ``elements`` must come in nondecreasing length with every word's prefix
    ``word[:-1]`` among them, as :func:`weyl_elements` yields them; each image
    is then one ``reflect_dimensions`` applied to the parent's image.  Only
    the previous and the current length layer are kept.
    """
    previous, current, length = {}, {}, 0
    for element in elements:
        word = element.word
        if len(word) != length:
            previous, current, length = current, {}, len(word)
        if word:
            i = word[-1]
            images = [
                reflect_dimensions(datum, i, image, framing)
                for image in previous[word[:-1]]
            ]
        else:
            images = [vec.as_dict() for vec in vectors]
        current[word] = images
        yield element, images


@dataclass
class TheoremSummary:
    label: str
    node: int
    monomial_count: int
    group_order: int
    checks: int
    violations: list
    word_mismatches: int
    simple_reflection_violations: int
    longest_element_violations: int
    elapsed: float = field(default=0.0)

    @property
    def ok(self):
        return not self.violations and self.word_mismatches == 0

    def to_json_obj(self):
        return {
            "type": self.label,
            "node": self.node,
            "monomials": self.monomial_count,
            "group_order": self.group_order,
            "checks": self.checks,
            "violations": [
                {
                    "word": list(v.word),
                    "vector": [[i, a, m] for (i, a), m in v.vector.items()],
                    "image": [[i, a, m] for (i, a), m in v.image],
                    "positions": [list(p) for p in v.positions],
                }
                for v in self.violations
            ],
            "word_mismatches": self.word_mismatches,
            "proven_subcases": {
                "simple_reflections": self.simple_reflection_violations,
                "longest_element": self.longest_element_violations,
            },
        }


def verify_theorem_main(qchar, weyl_cap=DEFAULT_WEYL_CAP, recheck_limit=48):
    """Run the cone check for every Weyl element against one q-character.

    Each element's images come from its parent's by one reflection
    (:func:`_pushed_images`).  The rank-one reflections and the longest
    element are tallied separately (those instances carry independent proofs
    and anchor the conventions).
    For groups of order <= ``recheck_limit`` each element is recomputed with
    a reduced word ending in another letter, when it has one; any
    disagreement counts as a word mismatch.
    """
    start = time.perf_counter()
    datum, node = qchar.datum, qchar.anchor
    elements = weyl_elements(datum, weyl_cap)
    framing = unit_framing(node)
    longest = max(elements, key=lambda e: e.length)
    vectors = list(qchar.entries)

    violations = []
    word_mismatches = 0
    simple_bad = 0
    longest_bad = 0
    checks = 0
    recheck = len(elements) <= recheck_limit
    for element, images in _pushed_images(datum, elements, vectors, framing):
        alt_words = all_reduced_words(datum, element) if recheck else ()
        alt_word = next((w for w in alt_words if w[-1:] != element.word[-1:]), None)
        checks += len(images)
        for vec, image in zip(vectors, images):
            violation = _violation(element.word, vec, image)
            if violation is not None:
                violations.append(violation)
                if element.length == 1:
                    simple_bad += 1
                if element is longest:
                    longest_bad += 1
            if alt_word is not None:
                other = _push_dims(datum, alt_word, vec.as_dict(), framing)
                if other != image:
                    word_mismatches += 1
    return TheoremSummary(
        label=datum.label,
        node=node,
        monomial_count=qchar.monomial_count(),
        group_order=len(elements),
        checks=checks,
        violations=violations,
        word_mismatches=word_mismatches,
        simple_reflection_violations=simple_bad,
        longest_element_violations=longest_bad,
        elapsed=time.perf_counter() - start,
    )


def cone_vertices(datum, node, weyl_cap=DEFAULT_WEYL_CAP):
    """The vertex S_w^{-1}(anchor) of each Weyl cone, as an A-monomial vector.

    Propagates NotFactorable, which would indicate convention breakage: the
    inverse-braid images of the anchor always factor.
    """
    anchor = LaurentMonomial.y(node, 0)
    out = {}
    for element in weyl_elements(datum, weyl_cap):
        image = apply_s_word_inverse(datum, element.word, anchor)
        out[element] = factor_to_a(datum, node, image)
    return out
