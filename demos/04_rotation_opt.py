"""Rotating the input can shrink the bijective transform a lot.

The run count of the bijective transform is not rotation invariant.  This
demo finds the best starting point, shows the per-rotation factorization
sizes computed in one linear pass, and prints the two Lyndon tree flavors
whose shapes drive those sizes.
"""

from bbwt import (
    all_rotation_factorization_sizes,
    all_rotation_runs,
    best_rotation,
    left_lyndon_tree,
    right_lyndon_tree,
    rot,
)


def draw(node, text, depth=0):
    label = text[node.start - 1:node.end].decode()
    print("  " * depth + f"[{node.start},{node.end}] {label}")
    if not node.is_leaf:
        draw(node.left, text, depth + 1)
        draw(node.right, text, depth + 1)


def main():
    w = b"aaabaabaaabaabb"
    print(f"text: {w.decode()}")
    print(f"runs by rotation shift:")
    for k, runs in enumerate(all_rotation_runs(w)):
        print(f"  shift {k:>2}: {rot(w, k).decode()}  rB={runs}")
    br = best_rotation(w)
    print(f"best: shift {br.shift} -> {br.rotated.decode()} with rB={br.r_B}")
    print()

    v = b"aabab"
    sizes = all_rotation_factorization_sizes(v)
    print(f"factorization sizes for every rotation of {v.decode()}:")
    for p, (total, neck) in enumerate(sizes.by_start, start=1):
        rotation = v[p - 1:] + v[:p - 1]
        print(f"  start {p}: {rotation.decode()}  factors={total} necklaces={neck}")
    print()

    u = b"aabb"
    print(f"right tree of {u.decode()} (splits off the longest Lyndon suffix):")
    draw(right_lyndon_tree(u).root, u)
    print(f"left tree of {u.decode()} (splits off the longest Lyndon prefix):")
    draw(left_lyndon_tree(u).root, u)


if __name__ == "__main__":
    main()
