"""Random permutation-matrix model for k-Haar unitaries.

A permutation all of whose cycles have length k realizes a k-Haar
unitary; the normalized trace of a word in independent such matrices is
exactly the fixed-point density of the composed permutation, so no
matrices are ever materialized.  Sampling is reproducible: a base seed
plus the trial index fully determine every draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import transforms
from .errors import ValidationError
from .sequences import RationalSequence, _decimal_str, frac_to_str


@dataclass(frozen=True)
class KCyclePermutation:
    n_cycles: int
    k: int
    mapping: tuple  # image of i at index i, 0-based, length n_cycles * k

    @property
    def size(self) -> int:
        return self.n_cycles * self.k

    def inverse(self) -> tuple:
        inv = [0] * self.size
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return tuple(inv)


def sample_kcycle(n_cycles: int, k: int, rng) -> KCyclePermutation:
    """Uniform sample from the permutations of [n_cycles * k] whose
    cycles all have length k: shuffle the points, cut into consecutive
    chunks of k, read each chunk as a cycle."""
    if n_cycles < 1 or k < 1:
        raise ValidationError("need n_cycles >= 1 and k >= 1")
    if isinstance(rng, (int, str)):
        rng = random.Random(rng)
    pts = list(range(n_cycles * k))
    rng.shuffle(pts)
    mapping = [0] * (n_cycles * k)
    for c in range(n_cycles):
        chunk = pts[c * k:(c + 1) * k]
        for i, x in enumerate(chunk):
            mapping[x] = chunk[(i + 1) % k]
    return KCyclePermutation(n_cycles, k, tuple(mapping))


def parse_word(text: str, label=int) -> tuple:
    """Parse "1:1,2:1,1:-1,2:-1" into ((1,1),(2,1),(1,-1),(2,-1)).

    label reads each letter's name: int for matrix indices, str for the
    labels of transforms.free_word_moment.  Letters are not merged or
    range-checked; normalize_word does that for matrix words."""
    letters = []
    for chunk in text.split(","):
        try:
            name, exp = chunk.split(":")
            letters.append((label(name), int(exp)))
        except ValueError as exc:
            raise ValidationError(f"malformed word letter {chunk!r}") from exc
    return tuple(letters)


def normalize_word(letters) -> tuple:
    """Merge adjacent letters with the same matrix index, drop zero
    exponents."""
    letters = tuple(letters)
    if any(idx < 1 for idx, _exp in letters):
        raise ValidationError("matrix indices are 1-based")
    return transforms._reduce_word(letters)


def format_word(word) -> str:
    return ",".join(f"{i}:{e}" for i, e in word)


def normalized_trace(perms, word) -> Fraction:
    """Fixed-point density of the permutation the word composes."""
    word = normalize_word(word)
    if not perms:
        raise ValidationError("need at least one permutation")
    size = perms[0].size
    k = perms[0].k
    if any(p.size != size or p.k != k for p in perms):
        raise ValidationError("permutations must share N and k")
    if not word:
        return Fraction(1)
    current = list(range(size))
    for idx, exp in word:
        if idx > len(perms):
            raise ValidationError(f"word uses matrix {idx}, only {len(perms)} given")
        base = perms[idx - 1].mapping if exp > 0 else perms[idx - 1].inverse()
        for _ in range(abs(exp)):
            current = [base[x] for x in current]
    fixed = sum(1 for i, x in enumerate(current) if i == x)
    return Fraction(fixed, size)


def predicted_word_moment(r: int, k: int, word) -> Fraction:
    """Trace the word should approach: the joint moment of r free k-Haar
    unitaries, evaluated exactly by the word-moment oracle."""
    haar = RationalSequence([Fraction(1) if j % k == 0 else Fraction(0)
                             for j in range(1, k + 1)])
    variables = [transforms.FreeVariable(f"u{i}", haar, period=k)
                 for i in range(1, r + 1)]
    letters = [(f"u{idx}", exp) for idx, exp in normalize_word(word)]
    return transforms.free_word_moment(variables, letters)


def freeness_experiment(r: int, n_cycles: int, k: int, words, trials: int,
                        seed: int) -> dict:
    """Empirical traces of the given words over independent trials,
    against the free k-Haar predictions.

    Each trial draws r fresh permutations from a sub-seed derived from
    (seed, trial index), so aggregation order cannot matter and reruns
    reproduce byte-identical reports.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    words = [normalize_word(w) for w in words]
    sums = [Fraction(0)] * len(words)
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        perms = [sample_kcycle(n_cycles, k, rng) for _ in range(r)]
        for wi, word in enumerate(words):
            sums[wi] += normalized_trace(perms, word)
    report = {
        "r": r,
        "N": n_cycles,
        "k": k,
        "trials": trials,
        "seed": seed,
        "words": [],
    }
    for word, total in zip(words, sums):
        mean = total / trials
        pred = predicted_word_moment(r, k, word)
        dev = abs(mean - pred)
        report["words"].append({
            "word": format_word(word),
            "empirical_mean": frac_to_str(mean),
            "empirical_mean_decimal": _decimal_str(mean, 6),
            "prediction": frac_to_str(pred),
            "deviation": frac_to_str(dev),
            "deviation_decimal": _decimal_str(dev, 6),
        })
    return report
