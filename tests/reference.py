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
            d[key] = v.table[mask]
        maps.append(d)
    return maps


def ref_disjoint_constant(vm, m):
    """The c with v_i(S) + v_i(M - S) = c for every agent i and every bundle
    S, or None when no one c fits them all."""
    full = frozenset(range(m))
    sums = {v[s] + v[full - s] for v in vm for s in all_subsets(range(m))}
    return sums.pop() if len(sums) == 1 else None


def to_sets(alloc):
    return tuple(frozenset(i for i in range(b.bit_length()) if b >> i & 1) for b in alloc)


def _pairs(n):
    return ((i, j) for i in range(n) for j in range(n) if i != j)


def ref_ef(vm, alloc):
    return all(vm[i][alloc[i]] >= vm[i][alloc[j]] for i, j in _pairs(len(alloc)))


def ref_envy(vm, alloc):
    """Every envying ordered pair as ``(i, j, v_i(A_i), v_i(A_j))``, in pair
    order: EF's witnesses, each the bare envy."""
    return [(i, j, vm[i][alloc[i]], vm[i][alloc[j]]) for i, j in _pairs(len(alloc))
            if vm[i][alloc[i]] < vm[i][alloc[j]]]


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


def ref_generally_good_bad(vm, m):
    """Every item is generally good or generally bad for every agent, the
    domain of the chen-liu variant."""
    good, bad = ref_item_classes(vm, m)
    return all(g or b for row_g, row_b in zip(good, bad) for g, b in zip(row_g, row_b))


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


def ref_cut_and_choose(vm, m, order, cutter):
    """The documented two-agent protocol on ``order`` (the allocations in
    enumeration order): the cut is the first leximin partition for two
    copies of the cutter's valuation, and the chooser takes the side they
    value more, or the one with the smaller mask (items as bits) when
    indifferent."""
    _, ties = ref_leximin([vm[cutter], vm[cutter]], 2, m)
    cut = next(s for s in order if s in ties)
    vc = vm[1 - cutter]
    chosen = max(cut, key=lambda side: (vc[side], -sum(1 << o for o in side)))
    other = cut[1] if chosen == cut[0] else cut[0]
    return (other, chosen) if cutter == 0 else (chosen, other)


def weak_orders(size):
    """Every weak order on ``size`` elements, as rank tuples whose ranks are
    exactly 0..r-1 (75 on 4 elements, OEIS A000670), by filtering all
    ``size**size`` tuples: for the smallest shapes only."""
    return [ranks for ranks in product(range(size), repeat=size)
            if set(ranks) == set(range(max(ranks) + 1))]


def oracle_flags(inst, axes):
    """The allocations in enumeration order, as frozenset bundles, and each
    axiom's (or po's) verdicts on them from the naive reference checkers.

    Allocation k gives item o to agent (k // n**o) % n, the documented
    enumeration order.
    """
    n, m = inst.n, inst.m
    vm = value_maps(inst)
    order = [tuple(frozenset(o for o in range(m) if k // n ** o % n == i) for i in range(n))
             for k in range(n ** m)]
    ref = {
        "ef": ref_ef, "ef1": ref_ef1, "efx": ref_efx, "ef1pm": ref_ef1pm, "efxpm": ref_efxpm,
        "efx0": lambda vm, s: ref_efx(vm, s, zero=True),
        "efxpm0": lambda vm, s: ref_efxpm(vm, s, zero=True),
        "variant-a": ref_variant_a, "variant-b": ref_variant_b,
        "po": lambda vm, s: ref_po(vm, s, n, m),
    }
    if "chen-liu" in axes:
        classes = ref_item_classes(vm, m)
        ref["chen-liu"] = lambda vm, s: ref_chen_liu(vm, s, m, classes)
    return order, {ax: [ref[ax](vm, s) for s in order] for ax in axes}


def oracle_landscape(inst, combos):
    """(combo, count, example) per combo from the naive reference checkers;
    the example is the first satisfying allocation in enumeration order."""
    order, flags = oracle_flags(inst, {ax for combo in combos for ax in combo})
    return oracle_rows(order, flags, combos)


def oracle_rows(order, flags, combos):
    """:func:`oracle_landscape`'s rows from the verdicts of :func:`oracle_flags`."""
    rows = []
    for combo in combos:
        hits = [k for k in range(len(order)) if all(flags[ax][k] for ax in combo)]
        rows.append((tuple(combo), len(hits), order[hits[0]] if hits else None))
    return rows


def rows_as_sets(rows):
    """``landscape`` rows as :func:`oracle_rows` writes them."""
    return [(r.combo, r.count, None if r.example is None else to_sets(r.example))
            for r in rows]


def splitmix64(seed):
    """The SplitMix64 stream from ``seed`` (Steele, Lea & Flood, OOPSLA
    2014), one value per step, as ``(state, value)`` pairs: the state after
    the step and the value it gives."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield state, z ^ (z >> 31)
