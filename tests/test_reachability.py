import itertools
import math
import random
import time
import types
from collections import Counter

import pytest

import oracles as O
from bbwt import reachability
from bbwt import (
    AlreadyMinimalError,
    DescentConditionError,
    NotANecklaceError,
    OpPath,
    OrbitBudgetError,
    OrbitReport,
    ParikhVector,
    UnsupportedAlphabetError,
    bbwt,
    bbwt_inverse,
    canonical_smallest,
    class_size,
    descent_step,
    find_path,
    orbit_connected,
    parikh,
    parse_path,
    normalize_steps,
    rot,
    smallest_rotation,
    transform_to_smallest,
)


def test_parikh_basics():
    p = parikh("banana")
    assert p.n == 6
    assert p.sigma == 3
    assert p.as_dict() == {ord("a"): 3, ord("b"): 1, ord("n"): 2}
    assert parikh("aab") == parikh("aba") == parikh("baa")
    assert parikh("aab") != parikh("abb")
    with pytest.raises(ValueError):
        parikh("")


@pytest.mark.parametrize("counts", [
    (), ((98, 1), (97, 1)), ((97, 1), (97, 2)), ((97, 0),), ((97, -2),),
    ((256, 1),), ((-1, 1),), ((97,),), ((97, 1, 1),), ((97, 1.5),), ([97, 1],),
])
def test_parikh_vector_rejects_malformed_counts(counts):
    # enumeration starts at the sorted string and binary search needs sorted
    # members, so symbols must strictly increase and counts be positive
    with pytest.raises(ValueError):
        ParikhVector(counts)


def test_parikh_vector_accepts_extreme_bytes():
    p = ParikhVector(((0, 2), (255, 1)))
    assert canonical_smallest(p) == b"\x00\x00\xff"
    assert orbit_connected(p) == OrbitReport(3, 1, True, None)


def test_canonical_smallest():
    assert canonical_smallest(parikh("banana")) == b"aaabnn"
    assert canonical_smallest(parikh("cba")) == b"abc"
    assert canonical_smallest(parikh("aaaa")) == b"aaaa"


def test_class_size():
    assert class_size(parikh("aabb")) == 6
    assert class_size(parikh("abc")) == 6
    assert class_size(parikh("aaaa")) == 1
    assert class_size(parikh("banana")) == 60
    # 20 choose 10
    assert class_size(parikh("ab" * 10)) == math.comb(20, 10)


def test_descent_golden():
    assert descent_step("aacb") == b"aabc"


def test_descent_errors():
    with pytest.raises(NotANecklaceError):
        descent_step("ba")
    with pytest.raises(AlreadyMinimalError):
        descent_step("aab")
    with pytest.raises(AlreadyMinimalError):
        descent_step("aaa")
    # necklace whose mismatch predecessor equals its last symbol
    with pytest.raises(DescentConditionError):
        descent_step("abcb")


def test_descent_decreases_exhaustive():
    # on every qualifying necklace the step lands strictly lower while
    # preserving the symbol counts
    checked = 0
    for x in O.all_necklaces("abc", 2, 8):
        y = canonical_smallest(parikh(x))
        if x == y:
            continue
        i = 0
        while x[i] == y[i]:
            i += 1
        if i >= 1 and x[i - 1] == x[-1]:
            continue
        z = descent_step(x)
        assert z < x, x
        assert parikh(z) == parikh(x), x
        checked += 1
    assert checked > 200


def test_descent_agrees_with_definition():
    # the step is: rotate once, invert the transform, take the least rotation
    for x in O.all_necklaces("ab", 2, 10):
        y = canonical_smallest(parikh(x))
        if x == y:
            continue
        i = 0
        while x[i] == y[i]:
            i += 1
        if i >= 1 and x[i - 1] == x[-1]:
            continue
        want = smallest_rotation(bbwt_inverse(rot(x, 1)))[0]
        assert descent_step(x) == want, x


def test_op_path_parse_format_roundtrip():
    p = parse_path("r2,b-1,r5")
    assert p.steps == (("rot", 2), ("bbwt", -1), ("rot", 5))
    assert p.format() == "r2,b-1,r5"
    assert parse_path("").steps == ()
    assert OpPath(()).format() == ""
    for bad in ("x3", "r", "b1.5", "r2 b1", "r2,,b1"):
        with pytest.raises(ValueError):
            parse_path(bad)


def test_op_path_apply():
    p = parse_path("r1,b-1")
    assert p.apply("ab") == bbwt_inverse(rot("ab", 1))
    assert parse_path("r2").apply("cab") == b"abc"
    assert parse_path("b1").apply("abbbabbababab") == b"bbbbbaaabbaba"


def test_op_path_apply_rejects_unknown_step():
    with pytest.raises(ValueError, match="unknown step kind"):
        OpPath((("rot", 1), ("swap", 1))).apply("ab")


def test_normalize_steps():
    assert normalize_steps([("rot", 5), ("rot", -2)], 3) == ()
    assert normalize_steps([("rot", 4)], 3) == (("rot", 1),)
    assert normalize_steps([("bbwt", 1), ("bbwt", -1)], 5) == ()
    assert normalize_steps([("bbwt", 2), ("rot", 0), ("bbwt", -1)], 5) == (
        ("bbwt", 1),
    )
    assert normalize_steps([("rot", 1), ("bbwt", 1)], 4) == (
        ("rot", 1),
        ("bbwt", 1),
    )


def test_find_path_golden():
    assert find_path("abc", "abc").steps == ()
    assert find_path("ba", "ab").format() == "r1"
    assert find_path("cab", "abc").format() == "r2"


def test_find_path_replays():
    import random

    rng = random.Random(191)
    for _ in range(60):
        n = rng.randint(2, 7)
        x = bytes(rng.randrange(97, 99) for _ in range(n))
        # walk a few random ops away from x, then ask for a path back
        y = x
        for _ in range(rng.randint(1, 6)):
            kind, d = rng.choice(
                [("rot", 1), ("rot", -1), ("bbwt", 1), ("bbwt", -1)]
            )
            y = rot(y, d) if kind == "rot" else (
                bbwt(y).output if d == 1 else bbwt_inverse(y)
            )
        p = find_path(x, y)
        assert p.apply(x) == y, (x, y, p.format())


def test_find_path_rejects_parikh_mismatch():
    with pytest.raises(ValueError):
        find_path("ab", "bb")
    with pytest.raises(ValueError):
        find_path("ab", "abc")


def test_find_path_budget(monkeypatch):
    x, y = b"bbaacab", b"aabcabb"
    # the two searches meet at the 42nd string they store: a budget of 41
    # still finds the path, since no step follows the meet, and 40 does not
    monkeypatch.setattr(reachability, "SEARCH_BUDGET", 40)
    with pytest.raises(OrbitBudgetError):
        find_path(x, y)
    monkeypatch.setattr(reachability, "SEARCH_BUDGET", 41)
    p = find_path(x, y)
    assert p.format() == "r5,b1,r2"
    assert p.apply(x) == y


def test_orbit_connected_small_classes():
    rep = orbit_connected(parikh("aabb"))
    assert rep.class_size == 6
    assert rep.orbit_count == 1
    assert rep.connected
    assert rep.witness is None

    rep = orbit_connected(parikh("a"))
    assert (rep.class_size, rep.orbit_count, rep.connected) == (1, 1, True)

    rep = orbit_connected(parikh("aaaa"))
    assert (rep.class_size, rep.orbit_count, rep.connected) == (1, 1, True)


def test_orbit_connected_binary_sweep():
    for n in range(2, 11):
        for k in range(1, n):
            p = parikh(b"a" * (n - k) + b"b" * k)
            rep = orbit_connected(p)
            assert rep.class_size == math.comb(n, k)
            assert rep.connected, (n, k)


def test_orbit_connected_all_distinct():
    rep = orbit_connected(parikh("abcde"))
    assert rep.class_size == 120
    assert rep.connected


@pytest.mark.parametrize("text", ["aabb", "aaabbb", "aaaabb", "aaaabbbb",
                                  "abcd", "aabbc"])
def test_orbit_connected_counts_necklaces_without_transform(monkeypatch, text):
    # with the transform replaced by the identity, the orbits are the
    # rotation classes (necklaces), so the class falls apart; the per-member
    # path, whatever the class size
    monkeypatch.setattr(reachability, "BATCH_MIN", 10**9)
    monkeypatch.setattr(reachability, "bbwt",
                        lambda x: types.SimpleNamespace(output=x))
    members = sorted({bytes(t) for t in itertools.permutations(text.encode())})
    necklaces = {min(O.rotations(s)) for s in members}
    rep = orbit_connected(parikh(text))
    assert rep.class_size == len(members)
    assert rep.orbit_count == len(necklaces) > 1
    assert not rep.connected
    first = members[0]
    rotations = set(O.rotations(first))
    assert rep.witness == (first, next(s for s in members if s not in rotations))


def test_orbit_budget():
    with pytest.raises(OrbitBudgetError) as exc:
        orbit_connected(parikh("ab" * 30), budget=1000)
    assert "budget" in str(exc.value)
    assert str(math.comb(60, 30)) in str(exc.value)


def test_orbit_budget_refuses_before_any_allocation(monkeypatch):
    def refuse(*args):
        raise AssertionError("ran on a class over its budget")

    for name in ("class_size", "_class_rows", "_roots_per_member"):
        monkeypatch.setattr(reachability, name, refuse)
    # the exact size, C(2 * 10^6, 10^6), would take tens of seconds to count
    with pytest.raises(OrbitBudgetError, match="more than 10000000 members"):
        orbit_connected(ParikhVector(((97, 10**6), (98, 10**6))))
    # 100,001 members is within budget, but not 100,001 rows of 100,001 bytes
    with pytest.raises(OrbitBudgetError, match="bytes"):
        orbit_connected(ParikhVector(((97, 100_000), (98, 1))))
    with pytest.raises(OrbitBudgetError, match="bytes"):
        orbit_connected(parikh("a" * 30 + "b"), budget=31)


def test_orbit_connected_single_member_class_builds_nothing(monkeypatch):
    # a one-symbol class is one member, its own image under both steps: a
    # class of 10^8 symbols passes the byte budget but needs no transform
    def refuse(*args):
        raise AssertionError("built or transformed a single-member class")

    for name in ("bbwt", "canonical_smallest", "_class_rows", "_roots_per_member"):
        monkeypatch.setattr(reachability, name, refuse)
    assert orbit_connected(ParikhVector(((97, 10**8),))) == OrbitReport(1, 1, True, None)
    assert orbit_connected(parikh("z")) == OrbitReport(1, 1, True, None)


def test_transform_to_smallest_golden():
    assert transform_to_smallest("ba").format() == "r1"
    assert transform_to_smallest("bab").format() == "r2"
    assert transform_to_smallest("acb").format() == "r1,b-1,r2"
    assert transform_to_smallest("aaa").format() == ""
    assert transform_to_smallest("aab").format() == ""


def test_transform_to_smallest_reaches_target():
    for x in O.all_strings("ab", 1, 9):
        p = transform_to_smallest(x)
        assert p.apply(x) == canonical_smallest(parikh(x)), x
    # all-distinct alphabets are allowed too
    for x in (b"cab", b"dcba", b"edcba", b"bca"):
        p = transform_to_smallest(x)
        assert p.apply(x) == canonical_smallest(parikh(x)), x


def test_transform_to_smallest_rejects_wide_alphabets():
    with pytest.raises(UnsupportedAlphabetError):
        transform_to_smallest("aabc")


def _members(text):
    want = Counter(text.encode())
    return [bytes(t) for t in itertools.product(sorted(want), repeat=len(text))
            if Counter(t) == want]


@pytest.mark.parametrize("text", ["aaaaabbbbb", "aaabbbcc", "aabbccd", "abcdef"])
def test_orbit_connected_counts_necklaces_without_batched_transform(monkeypatch, text):
    # twin of test_orbit_connected_counts_necklaces_without_transform for the
    # batched path, on classes at or above BATCH_MIN
    monkeypatch.setattr(reachability, "_bbwt_rows", lambda rows: rows)
    members = _members(text)
    assert len(members) >= reachability.BATCH_MIN
    necklaces = {min(O.rotations(s)) for s in members}
    rep = orbit_connected(parikh(text))
    assert rep.class_size == len(members)
    assert rep.orbit_count == len(necklaces) > 1
    assert not rep.connected
    first = members[0]
    rotations = set(O.rotations(first))
    assert rep.witness == (first, next(s for s in members if s not in rotations))


def _reports(monkeypatch, classes, batch_min):
    monkeypatch.setattr(reachability, "BATCH_MIN", batch_min)
    return [orbit_connected(p) for p in classes]


def test_orbit_paths_agree(monkeypatch):
    # every criterion-10 class of at most 2,000 members (the per-member path
    # takes about 20 us a member), seeded random classes over up to five
    # symbols anywhere in 0..255, then disconnected classes, with the
    # transform replaced by the identity on both paths
    classes = [parikh(b"a" * (n - k) + b"b" * k) for n in range(1, 15) for k in range(n + 1)]
    classes += [parikh(bytes(range(97, 97 + n))) for n in range(1, 8)]
    classes += [parikh(b"a" * ca + b"b" * cb + b"c" * (n - ca - cb))
                for n in range(3, 13) for ca in range(1, n - 1) for cb in range(1, n - ca)]
    classes = [p for p in classes if class_size(p) <= 2000]
    rng = random.Random(73)
    while len(classes) < 361:
        symbols = sorted(rng.sample(range(256), rng.randint(1, 5)))
        p = ParikhVector(tuple((c, rng.randint(1, 4)) for c in symbols))
        if class_size(p) <= 2000:
            classes.append(p)
    assert _reports(monkeypatch, classes, 0) == _reports(monkeypatch, classes, 10**9)

    identity = [parikh(t) for t in ("aabb", "aaabbbcc", "aabbccd", "abcdef", "\x00\xff\xff\x00c")]
    monkeypatch.setattr(reachability, "bbwt", lambda x: types.SimpleNamespace(output=x))
    monkeypatch.setattr(reachability, "_bbwt_rows", lambda rows: rows)
    batched = _reports(monkeypatch, identity, 0)
    assert batched == _reports(monkeypatch, identity, 10**9)
    assert all(rep.orbit_count > 1 for rep in batched)


def test_orbit_connected_extended_range():
    # the conjecture beyond criterion 10: every genuinely ternary class at
    # n = 13 and every genuinely quaternary class up to n = 9 (1,569,750 and
    # 237,528 members), under its own wall-clock budget
    t0 = time.perf_counter()
    classes = [((97, ca), (98, cb), (99, 13 - ca - cb))
               for ca in range(1, 12) for cb in range(1, 13 - ca)]
    classes += [tuple(zip(b"abcd", c)) for n in range(4, 10)
                for c in itertools.product(range(1, n - 2), repeat=4) if sum(c) == n]
    members = 0
    for counts in classes:
        rep = orbit_connected(ParikhVector(counts))
        assert rep.connected, (counts, rep.witness)
        members += rep.class_size
    assert members == 1_569_750 + 237_528
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"extended reachability range took {elapsed:.1f}s"
