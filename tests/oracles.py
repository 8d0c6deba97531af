"""Brute-force reference implementations used to cross-check the library.

Everything in here is written from first principles with no imports from
the bbwt package, so a bug in the library cannot hide behind a shared
helper.  All functions are deliberately naive: explicit rotation lists,
quadratic scans, recursive definitions.  They are only meant to be run
at small scale.
"""

import itertools
import random


def to_bytes(w):
    if isinstance(w, str):
        return w.encode("latin-1")
    return bytes(w)


def rotations(w):
    """All cyclic rotations of w, by start position."""
    w = to_bytes(w)
    return [w[i:] + w[:i] for i in range(len(w))]


def brute_rot(w, k):
    """k moves of the last symbol to the front (negative k = inverse)."""
    w = to_bytes(w)
    n = len(w)
    if n == 0:
        return w
    k %= n
    return w[n - k:] + w[:n - k]


def brute_smallest_rotation(w):
    """(lexicographically least rotation, smallest shift count k >= 0).

    The shift count is in brute_rot's convention: applying brute_rot(w, k)
    yields the least rotation.
    """
    w = to_bytes(w)
    n = len(w)
    best = w
    best_k = 0
    for k in range(1, n):
        cand = brute_rot(w, k)
        if cand < best:
            best = cand
            best_k = k
    return best, best_k


def brute_is_primitive(w):
    w = to_bytes(w)
    n = len(w)
    if n == 0:
        return False
    for d in range(1, n):
        if n % d == 0 and w[:d] * (n // d) == w:
            return False
    return True


def brute_is_lyndon(w):
    """Strictly smaller than every proper suffix."""
    w = to_bytes(w)
    n = len(w)
    if n == 0:
        return False
    return all(w < w[i:] for i in range(1, n))


def brute_lyndon_factors(w):
    """Lyndon factorization as a flat list of factors (repeats expanded).

    Found by repeatedly stripping the longest Lyndon prefix.
    """
    w = to_bytes(w)
    out = []
    while w:
        best = 1
        for j in range(1, len(w) + 1):
            if brute_is_lyndon(w[:j]):
                best = j
        out.append(w[:best])
        w = w[best:]
    return out


def brute_lyndon_grouped(w):
    """Factorization as (factor, count) batches, equal neighbours merged."""
    out = []
    for f in brute_lyndon_factors(w):
        if out and out[-1][0] == f:
            out[-1] = (f, out[-1][1] + 1)
        else:
            out.append((f, 1))
    return out


def omega_key(w, length):
    """Prefix of w repeated forever, truncated to the given length."""
    w = to_bytes(w)
    reps = -(-length // len(w))
    return (w * reps)[:length]


def brute_omega_less(x, y):
    """x^inf < y^inf, decided by expanding both far enough."""
    x, y = to_bytes(x), to_bytes(y)
    m = len(x) + len(y)
    return omega_key(x, m) < omega_key(y, m)


def brute_bwt(w):
    """Last column of the sorted rotation table (ties by start position)."""
    w = to_bytes(w)
    n = len(w)
    order = sorted(range(n), key=lambda i: (w[i:] + w[:i], i))
    return bytes(w[(i - 1) % n] for i in order)


def brute_bwt_csa(w):
    """1-based start of each row of the sorted rotation table (ties by start)."""
    w = to_bytes(w)
    n = len(w)
    return tuple(i + 1 for i in sorted(range(n), key=lambda i: (w[i:] + w[:i], i)))


def brute_bbwt(w):
    """(output, csa) from an explicit rotation multiset.

    Takes every rotation of every factor copy in the Lyndon factorization,
    sorts by the infinite power (ties by position in the text), and reads
    the symbol that cyclically precedes each rotation's start inside its
    own factor.
    """
    w = to_bytes(w)
    n = len(w)
    entries = []  # (sort key, text position, preceding symbol)
    pos = 0
    for f in brute_lyndon_factors(w):
        m = len(f)
        for off in range(m):
            p = pos + off
            key = omega_key(f[off:] + f[:off], 2 * n)
            prev = pos + (off - 1) % m
            entries.append((key, p, w[prev]))
        pos += m
    entries.sort(key=lambda e: (e[0], e[1]))
    out = bytes(e[2] for e in entries)
    csa = tuple(e[1] + 1 for e in entries)
    return out, csa


def brute_runs(x):
    x = to_bytes(x)
    if not x:
        return 0
    return 1 + sum(1 for a, b in zip(x, x[1:]) if a != b)


def brute_omega_lcp(w):
    """omega-LCP list for the sorted rotation multiset of w.

    Entry 0 is 0.  Equal adjacent rotations (as infinite powers) are
    reported as None; callers map that to whatever infinity marker the
    implementation uses.
    """
    w = to_bytes(w)
    n = len(w)
    rots = []
    pos = 0
    for f in brute_lyndon_factors(w):
        m = len(f)
        for off in range(m):
            rots.append((omega_key(f[off:] + f[:off], 2 * n), pos + off))
        pos += m
    rots.sort()
    out = [0]
    for (a, _), (b, _) in zip(rots, rots[1:]):
        if a == b:
            out.append(None)
        else:
            lcp = 0
            while a[lcp] == b[lcp]:
                lcp += 1
            out.append(lcp)
    return out


def brute_lz77(w):
    """Greedy left-to-right longest previous factor, overlaps allowed.

    Returns a list of (start, length, source) with 1-based positions and
    source None for fresh-symbol factors.
    """
    w = to_bytes(w)
    n = len(w)
    out = []
    i = 0
    while i < n:
        best_len = 0
        best_src = 0
        for j in range(i):
            length = 0
            while i + length < n and w[j + length] == w[i + length]:
                length += 1
            if length > best_len:
                best_len = length
                best_src = j
        if best_len == 0:
            out.append((i + 1, 1, None))
            i += 1
        else:
            out.append((i + 1, best_len, best_src + 1))
            i += best_len
    return out


def brute_lz77_sa(w):
    """The greedy factorization with the suffix-order choice of source.

    At each factor start i, the candidates are the nearest earlier-starting
    suffixes on both sides of w[i:] in sorted order: the largest one smaller
    than w[i:] and the smallest one larger.  The longer match wins and a tie
    goes to the smaller start.  Returns (start, length, source) triples as
    brute_lz77 does.
    """
    w = to_bytes(w)
    n = len(w)
    out = []
    i = 0
    while i < n:
        suffix = w[i:]
        below = [j for j in range(i) if w[j:] < suffix]
        above = [j for j in range(i) if w[j:] > suffix]
        left = max(below, key=lambda j: w[j:]) if below else -1
        right = min(above, key=lambda j: w[j:]) if above else -1

        def match(j):
            if j < 0:
                return 0
            length = 0
            while i + length < n and w[j + length] == w[i + length]:
                length += 1
            return length

        l1, l2 = match(left), match(right)
        if l1 == 0 and l2 == 0:
            out.append((i + 1, 1, None))
            i += 1
            continue
        if l1 > l2 or (l1 == l2 and left < right):
            length, src = l1, left
        else:
            length, src = l2, right
        out.append((i + 1, length, src + 1))
        i += length
    return out


def brute_fibonacci(k):
    a, b = "b", "a"  # F_0, F_1
    if k == 0:
        return b"b"
    for _ in range(k - 1):
        a, b = b, b + a
    return b.encode()


def brute_right_tree(w):
    """Right Lyndon tree by the recursive definition.

    Nodes are (start, end, left, right) with 1-based inclusive bounds and
    None children for leaves.  The split takes the longest proper Lyndon
    suffix as the right child.
    """
    w = to_bytes(w)

    def build(i, j):
        if i == j:
            return (i, j, None, None)
        sub = w[i - 1:j]
        m = len(sub)
        best = None
        for t in range(1, m):  # suffix starting at offset t
            if brute_is_lyndon(sub[t:]):
                best = t
                break  # longest proper Lyndon suffix = earliest start
        return (i, j, build(i, i + best - 1), build(i + best, j))

    return build(1, len(w))


def brute_left_tree(w):
    """Left Lyndon tree by the recursive definition.

    Same node shape as brute_right_tree; the split takes the longest
    proper Lyndon prefix as the left child.
    """
    w = to_bytes(w)

    def build(i, j):
        if i == j:
            return (i, j, None, None)
        sub = w[i - 1:j]
        m = len(sub)
        best = None
        for t in range(m - 1, 0, -1):  # prefix length t
            if brute_is_lyndon(sub[:t]):
                best = t
                break
        return (i, j, build(i, i + best - 1), build(i + best, j))

    return build(1, len(w))


def brute_rotation_sizes(w):
    """(total factors, necklace batch count) for every rotation of w.

    Index p-1 describes the rotation starting at 1-based position p,
    i.e. w[p-1:] + w[:p-1].  Computed by running the factorization on
    each rotation separately.
    """
    w = to_bytes(w)
    out = []
    for r in rotations(w):
        grouped = brute_lyndon_grouped(r)
        out.append((sum(c for _, c in grouped), len(grouped)))
    return out


def brute_parikh(w):
    w = to_bytes(w)
    counts = {}
    for c in w:
        counts[bytes([c])] = counts.get(bytes([c]), 0) + 1
    return counts


def all_strings(alphabet, n_lo, n_hi):
    """Yield every string over the alphabet with n_lo <= len <= n_hi."""
    alphabet = to_bytes(alphabet)
    for n in range(n_lo, n_hi + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield bytes(tup)


def all_necklaces(alphabet, n_lo, n_hi):
    """Yield every necklace (lexicographically least rotation) in range."""
    for w in all_strings(alphabet, n_lo, n_hi):
        if all(w <= w[i:] + w[:i] for i in range(1, len(w))):
            yield w


def random_strings(seed, count, n_hi, sigmas, n_lo=1):
    """Deterministic stream of (seeded) random byte strings.

    Symbols start at "a", or lower when sigma passes 159 (256 - 97)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        sigma = rng.choice(sigmas)
        lo = min(97, 256 - sigma)
        yield bytes(rng.randrange(lo, lo + sigma) for _ in range(n))
