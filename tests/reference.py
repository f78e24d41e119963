"""Naive reference implementations used as independent oracles.

Everything here works on frozensets of item indices and itertools-style
enumeration, deliberately sharing no code or representation with the library
paths it is used to cross-check.
"""

from itertools import product


def all_allocations(n, m):
    """Every way to assign each item to one agent, as frozenset bundles."""
    for assign in product(range(n), repeat=m):
        bundles = [set() for _ in range(n)]
        for item, agent in enumerate(assign):
            bundles[agent].add(item)
        yield tuple(frozenset(b) for b in bundles)


def all_subsets(items):
    items = list(items)
    for picks in product((False, True), repeat=len(items)):
        yield frozenset(x for x, take in zip(items, picks) if take)


def value_maps(inst):
    """Per-agent dict from frozenset bundle to exact value."""
    maps = []
    for v in inst.valuations:
        d = {}
        for mask in range(1 << inst.m):
            key = frozenset(i for i in range(inst.m) if mask >> i & 1)
            d[key] = v.value(mask)
        maps.append(d)
    return maps


def to_sets(alloc):
    return tuple(frozenset(i for i in range(64) if b >> i & 1) for b in alloc)


def _pairs(n):
    return ((i, j) for i in range(n) for j in range(n) if i != j)


def ref_ef(vm, alloc):
    return all(vm[i][alloc[i]] >= vm[i][alloc[j]] for i, j in _pairs(len(alloc)))


def ref_ef1(vm, alloc):
    for i, j in _pairs(len(alloc)):
        vi = vm[i]
        ai, aj = alloc[i], alloc[j]
        if vi[ai] >= vi[aj]:
            continue
        if any(vi[ai] >= vi[aj - {o}] for o in aj):
            continue
        if any(vi[ai - {o}] >= vi[aj] for o in ai):
            continue
        return False
    return True


def ref_ef1pm(vm, alloc):
    for i, j in _pairs(len(alloc)):
        vi = vm[i]
        ai, aj = alloc[i], alloc[j]
        if vi[ai] >= vi[aj]:
            continue
        if any(vi[ai] >= vi[aj - {o}] for o in aj):
            continue
        if any(vi[ai - {o}] > vi[ai] and vi[ai] >= vi[aj | {o}] for o in ai):
            continue
        return False
    return True


def ref_efx(vm, alloc, zero=False):
    for i, j in _pairs(len(alloc)):
        vi = vm[i]
        ai, aj = alloc[i], alloc[j]
        if vi[ai] >= vi[aj]:
            continue
        for o in aj:
            qualifies = vi[aj] >= vi[aj - {o}] if zero else vi[aj] > vi[aj - {o}]
            if qualifies and vi[ai] < vi[aj - {o}]:
                return False
        for o in ai:
            qualifies = vi[ai] <= vi[ai - {o}] if zero else vi[ai] < vi[ai - {o}]
            if qualifies and vi[ai - {o}] < vi[aj]:
                return False
    return True


def ref_efxpm(vm, alloc, zero=False):
    for i, j in _pairs(len(alloc)):
        vi = vm[i]
        ai, aj = alloc[i], alloc[j]
        if vi[ai] >= vi[aj]:
            continue
        for o in aj:
            qualifies = vi[ai | {o}] >= vi[ai] if zero else vi[ai | {o}] > vi[ai]
            if qualifies and vi[ai] < vi[aj - {o}]:
                return False
        for o in ai:
            qualifies = vi[ai] <= vi[ai - {o}] if zero else vi[ai] < vi[ai - {o}]
            if qualifies and vi[ai] < vi[aj | {o}]:
                return False
    return True


def ref_variant_a(vm, alloc):
    """Removal clause judged at the envier's bundle, own clause classic."""
    for i, j in _pairs(len(alloc)):
        vi = vm[i]
        ai, aj = alloc[i], alloc[j]
        if vi[ai] >= vi[aj]:
            continue
        for o in aj:
            if vi[ai | {o}] > vi[ai] and vi[ai] < vi[aj - {o}]:
                return False
        for o in ai:
            if vi[ai] < vi[ai - {o}] and vi[ai - {o}] < vi[aj]:
                return False
    return True


def ref_variant_b(vm, alloc):
    for i, j in _pairs(len(alloc)):
        vi = vm[i]
        ai, aj = alloc[i], alloc[j]
        if vi[ai] >= vi[aj]:
            continue
        for o in aj:
            if vi[aj] > vi[aj - {o}] and vi[ai] < vi[aj - {o}]:
                return False
        for o in ai:
            if vi[ai] < vi[ai - {o}] and vi[ai] < vi[aj | {o}]:
                return False
    return True


def ref_generally_good(vm_i, item, m):
    rest = [x for x in range(m) if x != item]
    return all(vm_i[s | {item}] >= vm_i[s] for s in all_subsets(rest))


def ref_generally_bad(vm_i, item, m):
    rest = [x for x in range(m) if x != item]
    return all(vm_i[s | {item}] <= vm_i[s] for s in all_subsets(rest))


def ref_mixed(vm, item, m):
    """Complementary bipartitions of the other items, any pair of agents."""
    rest = frozenset(x for x in range(m) if x != item)
    for s in all_subsets(rest):
        t = rest - s
        pos = any(v[s | {item}] > v[s] for v in vm)
        neg = any(v[t | {item}] < v[t] for v in vm)
        if pos and neg:
            return True
        pos = any(v[t | {item}] > v[t] for v in vm)
        neg = any(v[s | {item}] < v[s] for v in vm)
        if pos and neg:
            return True
    return False


def ref_item_classes(vm, m):
    """Per agent and item, (generally good, generally bad) as two matrices."""
    good = [[ref_generally_good(v, o, m) for o in range(m)] for v in vm]
    bad = [[ref_generally_bad(v, o, m) for o in range(m)] for v in vm]
    return good, bad


def ref_chen_liu(vm, alloc, m, classes=None):
    """``classes`` is ``ref_item_classes(vm, m)``, computed here when None."""
    n = len(alloc)
    good, bad = ref_item_classes(vm, m) if classes is None else classes
    for i, j in _pairs(n):
        vi = vm[i]
        ai, aj = alloc[i], alloc[j]
        if vi[ai] >= vi[aj]:
            continue
        for o in ai:
            if bad[i][o] and vi[ai] < vi[aj | {o}]:
                return False
        for o in aj:
            if good[i][o] and vi[ai] < vi[aj - {o}]:
                return False
    return True


def ref_po(vm, alloc, n, m):
    mine = [vm[i][alloc[i]] for i in range(n)]
    for other in all_allocations(n, m):
        theirs = [vm[i][other[i]] for i in range(n)]
        if all(t >= s for t, s in zip(theirs, mine)) and any(t > s for t, s in zip(theirs, mine)):
            return False
    return True


def ref_leximin(vm, n, m):
    """(best sorted vector, set of argmax allocations as frozenset tuples)."""
    best = None
    arg = set()
    for alloc in all_allocations(n, m):
        vec = tuple(sorted(vm[i][alloc[i]] for i in range(n)))
        if best is None or vec > best:
            best = vec
            arg = {alloc}
        elif vec == best:
            arg.add(alloc)
    return best, arg
