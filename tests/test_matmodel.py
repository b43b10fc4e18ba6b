import random
from collections import Counter
from fractions import Fraction

import pytest

from freeprob import matmodel as mm
from freeprob.errors import ValidationError
from freeprob.sequences import _decimal_str
from oracles import cycle_lengths


def test_k1_sampling_is_identity():
    p = mm.sample_kcycle(4, 1, 17)
    assert p.mapping == (0, 1, 2, 3)
    assert cycle_lengths(p) == [1, 1, 1, 1]


def test_single_choice_case():
    p = mm.sample_kcycle(1, 2, 0)
    assert p.mapping == (1, 0)


def test_sampler_produces_only_k_cycles():
    rng = random.Random(3)
    for _ in range(50):
        p = mm.sample_kcycle(4, 3, rng)
        assert sorted(cycle_lengths(p)) == [3, 3, 3, 3]


def test_sampler_uniform_over_the_three_pairings_of_four_points():
    # the permutations of [4] with 2-cycles only: (12)(34), (13)(24), (14)(23)
    expected = {
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    }
    rng = random.Random(123)
    counts = Counter()
    for _ in range(10000):
        counts[mm.sample_kcycle(2, 2, rng).mapping] += 1
    assert set(counts) == expected
    for c in counts.values():
        assert abs(c / 10000 - 1 / 3) < 0.02


def test_word_parsing_and_normalization():
    assert mm.parse_word("1:1,2:1,1:-1,2:-1") == ((1, 1), (2, 1), (1, -1), (2, -1))
    assert mm.normalize_word([(1, 1), (1, 2), (2, 0), (1, -3)]) == ()
    assert mm.normalize_word([(1, 2), (1, -1), (2, 3)]) == ((1, 1), (2, 3))
    with pytest.raises(ValidationError):
        mm.parse_word("1:x")


def test_single_matrix_trace_divisibility():
    for k in (2, 3, 4):
        perm = mm.sample_kcycle(6, k, 11)
        for m in range(1, 4 * k + 1):
            trace = mm.normalized_trace([perm], [(1, m)])
            assert trace == (1 if m % k == 0 else 0)


def test_empty_word_trace_is_one():
    perm = mm.sample_kcycle(3, 2, 5)
    assert mm.normalized_trace([perm], []) == 1


def test_trace_of_inverse_pair():
    perm = mm.sample_kcycle(5, 3, 2)
    assert mm.normalized_trace([perm], [(1, 1), (1, -1)]) == 1


def test_trace_index_out_of_range():
    perm = mm.sample_kcycle(2, 2, 1)
    with pytest.raises(ValidationError):
        mm.normalized_trace([perm], [(2, 1)])


def test_predictions_for_standard_words():
    assert mm.predicted_word_moment(2, 2, [(1, 1), (2, 1)]) == 0
    assert mm.predicted_word_moment(2, 2, [(1, 1), (2, 1), (1, -1), (2, -1)]) == 0
    assert mm.predicted_word_moment(2, 3, [(1, 3), (2, 3)]) == 1
    assert mm.predicted_word_moment(1, 4, [(1, 5)]) == 0
    assert mm.predicted_word_moment(1, 4, [(1, 8)]) == 1


def test_experiment_report_shape_and_determinism():
    words = [[(1, 1), (2, 1), (1, -1), (2, -1)], [(1, 2), (2, 2)]]
    a = mm.freeness_experiment(2, 30, 2, words, 8, 7)
    b = mm.freeness_experiment(2, 30, 2, words, 8, 7)
    assert a == b
    assert a["trials"] == 8 and len(a["words"]) == 2
    entry = a["words"][0]
    assert set(entry) >= {
        "word", "empirical_mean", "empirical_mean_decimal",
        "prediction", "deviation", "deviation_decimal",
    }
    # deviations are |mean - prediction| as exact rationals
    mean = Fraction(entry["empirical_mean"])
    pred = Fraction(entry["prediction"])
    assert Fraction(entry["deviation"]) == abs(mean - pred)


def test_experiment_decimals_round_the_exact_value():
    # through float, 1/400000 and 7/2000000 both print 0.000003
    assert _decimal_str(Fraction(1, 400000), 6) == "0.000002"
    assert _decimal_str(Fraction(7, 2000000), 6) == "0.000004"
    report = mm.freeness_experiment(2, 7, 3, [[(1, 1), (2, 1)], [(1, 3)]], 3, 5)
    for entry in report["words"]:
        for key in ("empirical_mean", "deviation"):
            assert entry[key + "_decimal"] == _decimal_str(Fraction(entry[key]), 6)


def test_experiment_deviation_shrinks_with_size():
    word = [[(1, 1), (2, 1), (1, -1), (2, -1)]]
    small = mm.freeness_experiment(2, 100, 2, word, 10, 42)
    large = mm.freeness_experiment(2, 1000, 2, word, 10, 42)
    dev_small = Fraction(small["words"][0]["deviation"])
    dev_large = Fraction(large["words"][0]["deviation"])
    assert dev_large < dev_small


def test_all_short_words_match_predictions_in_the_mean():
    # exhaustive coverage of words of length <= 3 at moderate size: no
    # prediction is off by more than a loose sampling tolerance
    r, k = 2, 2
    words = []
    for a in (1, 2):
        words.append([(a, 1)])
        words.append([(a, 2)])
    words += [
        [(1, 1), (2, 1)],
        [(1, 2), (2, 1)],
        [(1, 1), (2, 2)],
        [(1, 1), (2, 1), (1, 1)],
        [(1, 2), (2, 2)],
    ]
    rep = mm.freeness_experiment(r, 400, k, words, 12, 13)
    for entry in rep["words"]:
        assert float(Fraction(entry["deviation"])) <= 0.12, entry
