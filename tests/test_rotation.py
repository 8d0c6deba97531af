import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as O
from bbwt import (
    BestRotation,
    all_rotation_factorization_sizes,
    all_rotation_runs,
    bbwt,
    best_rotation,
    is_lyndon,
    left_lyndon_tree,
    lyndon_factorize,
    right_lyndon_tree,
    rot,
    rotation,
)
from bbwt._ranks import _SMALL


def tree_tuple(node):
    if node is None:
        return None
    return (node.start, node.end, tree_tuple(node.left), tree_tuple(node.right))


def test_best_rotation_golden():
    br = best_rotation("aaabaabaaabaabb")
    assert isinstance(br, BestRotation)
    assert br.shift == 1
    assert br.rotated == b"baaabaabaaabaab"
    assert br.r_B == 3

    assert best_rotation("aaa") == BestRotation(shift=0, rotated=b"aaa", r_B=1)
    assert best_rotation("a").shift == 0
    with pytest.raises(ValueError):
        best_rotation("")


def test_all_rotation_runs_brute_force():
    texts = list(O.all_strings("abc", 1, 7))
    texts += [b"aab" * 4, b"abaab" * 3, b"ab" * 7, b"c" * 9]
    for w in texts:
        want = tuple(bbwt(O.brute_rot(w, k)).runs for k in range(len(w)))
        assert all_rotation_runs(w) == want, w
    with pytest.raises(ValueError):
        all_rotation_runs("")


def test_rotation_budget(monkeypatch):
    # (aab)^4 has period 3, so its search transforms 3 * 12 symbols
    w = b"aab" * 4
    monkeypatch.setattr(rotation, "ROTATION_BUDGET", 36)
    assert best_rotation(w) == BestRotation(0, w, bbwt(w).runs)
    monkeypatch.setattr(rotation, "ROTATION_BUDGET", 35)
    with pytest.raises(ValueError, match="budget"):
        best_rotation(w)
    with pytest.raises(ValueError, match="budget"):
        all_rotation_runs(w)


def test_best_rotation_is_argmin():
    # smallest shift wins ties; the reported value is the true minimum
    for w in O.random_strings(151, 120, 24, (1, 2, 3)):
        br = best_rotation(w)
        runs = [bbwt(O.brute_rot(w, k)).runs for k in range(len(w))]
        assert br.r_B == min(runs)
        assert br.shift == runs.index(min(runs))
        assert br.rotated == O.brute_rot(w, br.shift)
        assert bbwt(br.rotated).runs == br.r_B


def test_right_tree_golden():
    assert tree_tuple(right_lyndon_tree("a").root) == (1, 1, None, None)
    assert tree_tuple(right_lyndon_tree("ab").root) == (
        1, 2, (1, 1, None, None), (2, 2, None, None),
    )
    # split takes the longest proper Lyndon suffix as the right child
    assert tree_tuple(right_lyndon_tree("aabb").root) == (
        1, 4,
        (1, 1, None, None),
        (2, 4, (2, 3, (2, 2, None, None), (3, 3, None, None)), (4, 4, None, None)),
    )
    assert right_lyndon_tree("ab").flavor == "RIGHT"
    assert right_lyndon_tree("ab").root.split == 2


def test_left_tree_golden():
    assert tree_tuple(left_lyndon_tree("a").root) == (1, 1, None, None)
    # split takes the longest proper Lyndon prefix as the left child
    assert tree_tuple(left_lyndon_tree("aabb").root) == (
        1, 4,
        (1, 3, (1, 1, None, None), (2, 3, (2, 2, None, None), (3, 3, None, None))),
        (4, 4, None, None),
    )
    assert left_lyndon_tree("ab").flavor == "LEFT"


def test_trees_on_longer_word():
    w = "aaabaaabababaabb"
    assert is_lyndon(w)
    assert tree_tuple(right_lyndon_tree(w).root) == O.brute_right_tree(w)
    assert tree_tuple(left_lyndon_tree(w).root) == O.brute_left_tree(w)
    # the two flavors genuinely differ on this word
    assert tree_tuple(right_lyndon_tree(w).root) != tree_tuple(left_lyndon_tree(w).root)


def test_trees_reject_non_lyndon():
    for w in ("ba", "aa", "abab", "banana"):
        with pytest.raises(ValueError):
            right_lyndon_tree(w)
        with pytest.raises(ValueError):
            left_lyndon_tree(w)


def test_trees_match_recursive_definition():
    for w in O.all_strings("ab", 1, 12):
        if not O.brute_is_lyndon(w):
            continue
        assert tree_tuple(right_lyndon_tree(w).root) == O.brute_right_tree(w), w
        assert tree_tuple(left_lyndon_tree(w).root) == O.brute_left_tree(w), w
    for w in O.all_strings("abc", 1, 8):
        if not O.brute_is_lyndon(w):
            continue
        assert tree_tuple(right_lyndon_tree(w).root) == O.brute_right_tree(w), w
        assert tree_tuple(left_lyndon_tree(w).root) == O.brute_left_tree(w), w


@pytest.mark.parametrize("build", [left_lyndon_tree, right_lyndon_tree])
@pytest.mark.parametrize("w", [b"a" * ((1 << 15) - 1) + b"b", b"a" + b"b" * ((1 << 15) - 1)],
                         ids=["a^(n-1)b", "ab^(n-1)"])
def test_trees_grow_linearly(build, w):
    # combs of depth n; rescanning each node, as an earlier left tree did,
    # took 36-49 s at this size on a 2-core VM.  The walk is iterative, as
    # ==, repr and tree_tuple recurse once per level.
    start = time.perf_counter()
    tree = build(w)
    assert time.perf_counter() - start < 5.0
    n, count, stack = len(w), 0, [tree.root]
    assert (tree.root.start, tree.root.end) == (1, n)
    while stack:
        node = stack.pop()
        count += 1
        if node.is_leaf:
            assert node.start == node.end
            continue
        assert node.start < node.split <= node.end
        assert (node.left.start, node.left.end) == (node.start, node.split - 1)
        assert (node.right.start, node.right.end) == (node.split, node.end)
        stack += (node.left, node.right)
    assert count == 2 * n - 1


def test_tree_structure_invariants():
    # every internal node covers its children exactly; every leaf is one
    # position; every node spells a Lyndon word
    import random

    rng = random.Random(161)
    words = []
    while len(words) < 40:
        n = rng.randint(2, 40)
        w = bytes(rng.randrange(97, 100) for _ in range(n))
        if O.brute_is_lyndon(w):
            words.append(w)

    for w in words:
        for tree in (right_lyndon_tree(w), left_lyndon_tree(w)):
            stack = [tree.root]
            while stack:
                node = stack.pop()
                assert is_lyndon(w[node.start - 1:node.end])
                if node.is_leaf:
                    assert node.start == node.end
                    assert node.left is None and node.right is None
                else:
                    assert node.left.start == node.start
                    assert node.right.end == node.end
                    assert node.left.end + 1 == node.right.start
                    assert node.split == node.right.start
                    stack.extend((node.left, node.right))


def test_rotation_sizes_golden():
    assert all_rotation_factorization_sizes("aab").by_start == ((1, 1), (2, 2), (3, 2))
    assert all_rotation_factorization_sizes("ab").by_start == ((1, 1), (2, 2))
    assert all_rotation_factorization_sizes("a").by_start == ((1, 1),)
    with pytest.raises(ValueError):
        all_rotation_factorization_sizes("")


def test_rotation_sizes_match_per_rotation_runs():
    for w in O.all_strings("ab", 1, 10):
        got = all_rotation_factorization_sizes(w).by_start
        assert list(got) == O.brute_rotation_sizes(w), w
    for w in O.all_strings("abc", 1, 6):
        got = all_rotation_factorization_sizes(w).by_start
        assert list(got) == O.brute_rotation_sizes(w), w


def test_rotation_sizes_random_and_nonprimitive():
    for w in O.random_strings(171, 150, 90, (1, 2, 3, 8)):
        assert list(all_rotation_factorization_sizes(w).by_start) == O.brute_rotation_sizes(w)
    # powers exercise the non-primitive assembly
    for base in (b"ab", b"aab", b"abb", b"abc", b"aabab"):
        for m in (2, 3, 4):
            w = base * m
            assert list(all_rotation_factorization_sizes(w).by_start) == O.brute_rotation_sizes(w), w


def test_factors_never_span_the_rotation_seam():
    # rotating a primitive word cuts its Lyndon frame at some position q;
    # the factorization of the rotation always breaks at that seam
    for w in O.random_strings(181, 120, 60, (2, 3)):
        if not O.brute_is_primitive(w):
            continue
        least, _ = O.brute_smallest_rotation(w)
        for p in range(1, len(w)):
            v = O.brute_rot(least, p)
            boundaries = set()
            pos = 0
            for fac, cnt in lyndon_factorize(v).necklaces:
                for _ in range(cnt):
                    pos += len(fac)
                    boundaries.add(pos)
            assert p in boundaries, (least, p)


@st.composite
def sizes_texts(draw):
    """Texts on both sides of _SMALL, powers u^m, one-symbol texts, and the
    combs a^(n-1) b and b a^(n-1), over small alphabets."""
    symbols = st.integers(97, 96 + draw(st.integers(1, 4)))
    kind = draw(st.sampled_from(["near small", "power", "one symbol", "comb"]))
    if kind == "near small":
        return bytes(draw(st.lists(symbols, min_size=60, max_size=70)))
    if kind == "power":
        return bytes(draw(st.lists(symbols, min_size=1, max_size=24))) * draw(st.integers(2, 4))
    n = draw(st.integers(1, 80))
    if kind == "one symbol":
        return bytes([draw(symbols)]) * n
    return draw(st.sampled_from([b"a" * n + b"b", b"b" + b"a" * n]))


@given(sizes_texts())
def test_rotation_sizes_property(w):
    sizes = all_rotation_factorization_sizes(w)
    assert ("_cols" in vars(sizes)) == (len(w) > _SMALL)
    want = O.brute_rotation_sizes(w)
    assert rotation.sizes_to_text(sizes) == " ".join(f"({t},{k})" for t, k in want) + "\n"
    assert list(sizes.by_start) == want


def test_sizes_to_text_writes_held_columns_by_chunks(monkeypatch):
    monkeypatch.setattr(rotation, "_PAIRS_PER_CHUNK", 7)
    for w in O.random_strings(191, 20, 300, (1, 2, 3, 4), n_lo=_SMALL + 1):
        want = " ".join(f"({t},{k})" for t, k in all_rotation_factorization_sizes(w).by_start)
        assert rotation.sizes_to_text(all_rotation_factorization_sizes(w)) == want + "\n", w


def test_scan_matches_its_definitions():
    # nss / psv: nearest smaller suffix rank after / before each position;
    # per[j]: the least period of the prefix w[:j], which for a prefix of a
    # Lyndon word is also the length of its longest Lyndon prefix
    words = [w for w in O.all_strings("ab", 1, 10) if O.brute_is_lyndon(w)]
    words += [least for least, _ in map(O.brute_smallest_rotation,
                                        O.random_strings(193, 60, 200, (2, 3, 4)))
              if O.brute_is_lyndon(least)]
    for w in words:
        d = len(w)
        ranks = sorted(range(d), key=lambda i: w[i:])
        ranks = [ranks.index(i) for i in range(d)]
        nss, psv, per = rotation._scan(list(ranks), w)
        assert list(nss) == [next((j for j in range(i + 1, d) if ranks[j] < ranks[i]), d)
                             for i in range(d)], w
        assert list(psv) == [next((j for j in range(i - 1, -1, -1) if ranks[j] < ranks[i]), -1)
                             for i in range(d)], w
        assert per[0] == 1
        for j in range(1, d):
            assert per[j] == min(p for p in range(1, j + 1) if w[p:j] == w[:j - p]), (w, j)
            assert per[j] == max(e for e in range(1, j + 1) if O.brute_is_lyndon(w[:e])), (w, j)
