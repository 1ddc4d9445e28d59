"""The benchmark's workloads: seeded units of `cospec` CLI calls, and the
exact-output checks that decide which asked-about instances were proven.

An *instance* is one toggled pair, keyed by (word class, k) with the word
class in the benchmark's own canonical form.  Instances are counted from
the input, so a program that proves each {w, toggle(w)} once still covers
both keys.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

ALPHABET = "PCE"
_TOGGLE = str.maketrans("PC", "CP")

# Every reduced p/q with 1 <= p, q <= 7: 35 values.  Scan and oracle units
# each draw a k that no earlier unit of the run used (until the pool wraps),
# so state kept across main() calls cannot answer a later unit.
K_POOL = tuple(
    f"{p}/{q}" for p in range(1, 8) for q in range(1, 8) if math.gcd(p, q) == 1
)
VERIFY_K = "7/3"


def canonical(letters: str) -> str:
    """Least rotation or reflected rotation: the name of a cyclic word class."""
    return min(s[i:] + s[:i] for s in (letters, letters[::-1]) for i in range(len(s)))


def toggled(letters: str) -> str:
    return letters.translate(_TOGGLE)


def partner(cls: str) -> str:
    """The class of the toggled word."""
    return canonical(toggled(cls))


def word_classes(tau_min: int, tau_max: int) -> list:
    """Canonical names of every cyclic class with tau_min <= length <= tau_max."""
    out = []
    for tau in range(tau_min, tau_max + 1):
        out.extend(sorted({canonical("".join(w)) for w in itertools.product(ALPHABET, repeat=tau)}))
    return out


def norm_k(text: str) -> str:
    q = Fraction(text)
    return f"{q.numerator}/{q.denominator}"


def spelling(rng: random.Random, cls: str) -> str:
    """A random rotation, reflected or not, of the class: same graph up to relabelling."""
    s = cls[::-1] if rng.random() < 0.5 else cls
    i = rng.randrange(len(s))
    return s[i:] + s[:i]


def digest(coeffs) -> str:
    """Digest of an exact coefficient list, insensitive to how p/q is spelled."""
    text = ",".join(norm_k(str(c)) for c in coeffs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def max_bits(coeffs) -> int:
    bits = 0
    for c in coeffs:
        q = Fraction(str(c))
        bits = max(bits, q.numerator.bit_length() + q.denominator.bit_length())
    return bits


@dataclass
class Unit:
    """One closed-loop step: CLI calls run back to back, and the instances they prove.

    When every instance has its own calls (`len(calls)` a multiple of
    `len(instances)`), an instance's time is the sum of its calls; otherwise
    the calls are shared and each instance gets an equal share of the wall.
    """

    calls: list
    instances: list


@dataclass
class Checked:
    failed: set
    max_coeff_bits: int = 0


def _parse(rc, out):
    if rc != 0:
        return None
    try:
        return json.loads(out)
    except ValueError:
        return None


class Scan:
    """`cospec scan --tau-max T --k K --method M`, one fresh k per unit."""

    def __init__(self, name, tau_max, method, output, trace_units):
        self.name, self.tau_max, self.method, self.output = name, tau_max, method, output
        self.trace_units = trace_units
        self.classes = word_classes(3, tau_max)

    def units(self, seed, refs):
        rng = random.Random(f"{self.name}:{seed}")
        ks = list(K_POOL)
        rng.shuffle(ks)
        for k in itertools.cycle(ks):
            argv = ["scan", "--tau-max", str(self.tau_max), "--k", k, "--method", self.method]
            yield Unit([argv], [(c, norm_k(k)) for c in self.classes])

    def check(self, unit, results, refs) -> Checked:
        payload = _parse(*results[0])
        if payload is None:
            return Checked(set(unit.instances))
        good, bad, bits = set(), set(), 0
        for e in payload.get("entries", []):
            if "skipped" in e:
                continue
            cls, k = canonical(e["word"]), norm_k(e["k"])
            coeffs = e.get(self.output)
            ok = (
                e.get("pass") is True
                and coeffs is not None
                and digest(coeffs) == refs[self.output].get(k, {}).get(cls)
            )
            if coeffs is not None:
                bits = max(bits, max_bits(coeffs))
            # an entry speaks for its toggle partner too; a bad one taints both
            for key in ((cls, k), (partner(cls), k)):
                (good if ok else bad).add(key)
        failed = {i for i in unit.instances if i in bad or i not in good}
        return Checked(failed, bits)


class Verify:
    """`cospec verify --word W --k K`, one large word class per unit."""

    def __init__(self, name, method, trace_units, words=None, k=VERIFY_K):
        self.name, self.method, self.trace_units = name, method, trace_units
        self.words, self.k = words, k

    def units(self, seed, refs):
        rng = random.Random(f"{self.name}:{seed}")
        words = list(self.words or refs["verify_words"])
        rng.shuffle(words)
        for cls in itertools.cycle(words):
            argv = ["verify", "--word", spelling(rng, cls), "--k", self.k]
            if self.method != "all":
                argv += ["--method", self.method]
            yield Unit([argv], [(cls, norm_k(self.k))])

    def check(self, unit, results, refs) -> Checked:
        payload = _parse(*results[0])
        (cls, k), = unit.instances
        result = (payload or {}).get("result", {})
        coeffs = result.get("charpoly_exact")
        ok = (
            result.get("pass") is True
            and coeffs is not None
            and digest(coeffs) == refs["charpoly_exact"].get(k, {}).get(cls)
        )
        return Checked(set() if ok else {(cls, k)}, max_bits(coeffs or []))


class OraclePairs:
    """`cospec charpoly --method oracle` on both sides of every class of one
    length; one pass over all classes, at one fresh k, per unit."""

    def __init__(self, name, tau, trace_units):
        self.name, self.tau, self.trace_units = name, tau, trace_units
        self.classes = word_classes(tau, tau)

    def units(self, seed, refs):
        rng = random.Random(f"{self.name}:{seed}")
        ks = list(K_POOL)
        rng.shuffle(ks)
        for k in itertools.cycle(ks):
            classes = list(self.classes)
            rng.shuffle(classes)
            calls = []
            for cls in classes:
                for side in (cls, toggled(cls)):
                    calls.append(["charpoly", "--method", "oracle", "--k", k,
                                  "--word", spelling(rng, side)])
            yield Unit(calls, [(c, norm_k(k)) for c in classes])

    def check(self, unit, results, refs) -> Checked:
        failed, bits = set(), 0
        for idx, (cls, k) in enumerate(unit.instances):
            sides = results[2 * idx: 2 * idx + 2]
            for side, (rc, out) in zip((cls, partner(cls)), sides):
                payload = _parse(rc, out) or {}
                coeffs = (payload.get("coefficients") or {}).get("oracle")
                if coeffs is None or digest(coeffs) != refs["oracle"].get(k, {}).get(side):
                    failed.add((cls, k))
                else:
                    bits = max(bits, max_bits(coeffs))
        return Checked(failed, bits)


WORKLOADS = {
    w.name: w
    for w in (
        Scan("scan-exact", tau_max=5, method="exact", output="charpoly_exact", trace_units=8),
        Scan("scan-transfer", tau_max=4, method="transfer", output="short_part", trace_units=6),
        Verify("verify-large", method="all", trace_units=8),
        OraclePairs("oracle-pairs", tau=4, trace_units=3),
    )
}
