"""Release gate: every shipped guarantee, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line (visible on failure
or under -s) and asserts nothing beyond the stated tolerances. Frozen
expected values are restated here on purpose, independent of the reference
module, so a regression there cannot silently revalidate itself.
"""

import time

import numpy as np

from netsurgeon import (
    CharacteristicIntervention,
    Network,
    NodeSet,
    StructuralIntervention,
    avoidance_block,
    bridge_index,
    certify,
    certify_congestion,
    certify_global_substitution,
    certify_multi_activity,
    congestion_equilibrium,
    global_substitution_equilibrium,
    hybrid_effect,
    intercentrality,
    katz_bonacich,
    key_bridge,
    key_group_exhaustive,
    key_group_greedy,
    link_value_existing,
    link_value_potential,
    load_fixture,
    multi_activity_equilibrium,
    pareto_frontier,
    reproduce,
    spectral_radius,
    structural_effect,
    sufficient_increase_check,
    walk_matrix,
)

from .conftest import (
    random_connected_graph,
    random_graph,
    random_legal_intervention,
    safe_delta,
)
from .oracle import enumerate_avoiding_walks, truncation_tail_bound, walk_entry


def _finish(num, detail, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num}: {status} ({detail})")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:8])


def _post_certifiable(net, iv, delta, margin=1e-6):
    """Whether the changed network still satisfies the synergy bound."""
    return delta * spectral_radius(iv.applied_to(net)) < 1.0 - margin


def test_criterion_01_singleton_removal_table():
    t0 = time.perf_counter()
    net = load_fixture("regular10")
    spec = certify(net, 0.2)
    rep = katz_bonacich(spec)
    failures = []
    expected = (("1", 1.1688, 5.3474), ("2", 1.1981, 5.2166), ("3", 1.2162, 5.1390))
    for label, m_exp, d_exp in expected:
        i = net.index_of(label)
        m_got = float(rep.self_loops[i])
        d_got = intercentrality(spec, NodeSet.of([i])).intercentrality
        if abs(m_got - m_exp) > 1e-3:
            failures.append(f"self-loop {label}: {m_got:.6f} vs {m_exp}")
        if abs(d_got - d_exp) > 1e-3:
            failures.append(f"removal value {label}: {d_got:.6f} vs {d_exp}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget 1s")
    _finish(1, f"3 singleton rows at 1e-3, {elapsed * 1e3:.0f}ms", failures)


def test_criterion_02_pair_removal_table_and_search():
    failures = []
    report = reproduce(2)
    if len(report.cells) != 11:
        failures.append(f"expected 11 pair rows, saw {len(report.cells)}")
    for c in report.cells:
        if not c.ok:
            failures.append(f"pair {c.row}: {c.actual:.6f} vs {c.expected}")

    net = load_fixture("regular10")
    spec = certify(net, 0.2)
    best = key_group_exhaustive(spec, 2)[0]
    if best.group.labels(net) != ("2", "7"):
        failures.append(f"exhaustive winner {best.group.labels(net)}")
    if abs(best.intercentrality - 10.2938) > 1e-3:
        failures.append(f"winner value {best.intercentrality:.6f} vs 10.2938")
    greedy = key_group_greedy(spec, 2)
    if not greedy.intercentrality < 10.2938:
        failures.append(f"greedy {greedy.intercentrality:.6f} not below 10.2938")
    _finish(2, "11 pairs at 1e-3, winner {2,7}, greedy strictly worse", failures)


def test_criterion_03_bridge_tables():
    failures = []
    for table_id in (3, 4, 5, 6):
        report = reproduce(table_id)
        for c in report.cells:
            if not c.ok:
                failures.append(
                    f"table {table_id} {c.row}/{c.quantity}: {c.actual:.6f} vs {c.expected}"
                )

    star = load_fixture("star7")
    hubs = load_fixture("twohub9")
    best25 = key_bridge(certify(star, 0.25), certify(hubs, 0.25))
    if (best25.i, best25.j) != ("h", "a2") or abs(best25.index - 79.0258) > 1e-3:
        failures.append(f"winner at 0.25: ({best25.i},{best25.j}) L={best25.index:.4f}")
    best23 = key_bridge(certify(star, 0.23), certify(hubs, 0.23))
    if (best23.i, best23.j) != ("h", "a1") or abs(best23.index - 48.6711) > 1e-3:
        failures.append(f"winner at 0.23: ({best23.i},{best23.j}) L={best23.index:.4f}")

    big = certify(load_fixture("star17"), 0.23)
    hub23 = certify(hubs, 0.23)
    l_a1 = bridge_index(big, hub23, "h", "a1").index
    l_a2 = bridge_index(big, hub23, "h", "a2").index
    if abs(l_a2 - 4744.0) > 1.0:
        failures.append(f"enlarged h-a2: {l_a2:.1f} vs 4744")
    if abs(l_a1 - 4680.0) > 1.0:
        failures.append(f"enlarged h-a1: {l_a1:.1f} vs 4680")
    if not l_a2 > l_a1:
        failures.append("enlarged periphery did not flip the winner back to a2")
    _finish(3, "tables 3-6 at 1e-3, winners flip with delta, 17-leaf variant", failures)


def test_criterion_04_two_cycle_link_table():
    failures = []
    net = load_fixture("twocycles8")
    spec = certify(net, 0.21)
    base = katz_bonacich(spec).aggregate

    def post_aggregate(pairs):
        iv = StructuralIntervention.from_label_pairs(net, add=pairs)
        return base + structural_effect(spec, iv).delta_aggregate

    expected = (
        ((("2", "5"),), 15.4198),
        ((("2", "3"),), 15.4689),
        ((("2", "3"), ("2", "5")), 17.7010),
        ((("1", "4"), ("2", "3")), 17.7074),
        ((("2", "5"), ("2", "7")), 17.7547),
    )
    for pairs, want in expected:
        got = post_aggregate(pairs)
        if abs(got - want) > 1e-3:
            failures.append(f"add {pairs}: {got:.6f} vs {want}")

    # The documented strict orderings among two-link additions: each choice
    # below is beaten by its listed rival.
    orderings = (
        ((("2", "5"), ("2", "7")), (("2", "5"), ("4", "7"))),
        ((("2", "5"), ("2", "7")), (("2", "5"), ("2", "8"))),
        ((("1", "4"), ("2", "3")), (("2", "3"), ("6", "7"))),
        ((("5", "8"), ("6", "7")), (("2", "5"), ("6", "7"))),
    )
    for winner, loser in orderings:
        w, l = post_aggregate(winner), post_aggregate(loser)
        if not w > l:
            failures.append(f"{winner} at {w:.6f} does not beat {loser} at {l:.6f}")
    _finish(4, "5 aggregates at 1e-3 plus 4 strict dominance orderings", failures)


def test_criterion_05_update_equals_resolve():
    rng = np.random.default_rng(5)
    failures = []
    t0 = time.perf_counter()
    done = 0
    while done < 200:
        n = int(rng.integers(4, 13))
        net = random_graph(rng, n)
        delta = safe_delta(rng, net)
        theta = rng.uniform(0.5, 2.0, size=n)
        spec = certify(net, delta, theta)
        iv = random_legal_intervention(rng, net)
        if not _post_certifiable(net, iv, delta):
            continue
        eff = structural_effect(spec, iv)
        post = iv.applied_to(net)
        direct = np.linalg.solve(np.eye(n) - delta * post.adjacency, theta)
        gap = float(np.max(np.abs(eff.post_b - direct)))
        if gap > 1e-9:
            failures.append(f"instance {done}: entrywise gap {gap:.3e}")
        done += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    _finish(5, f"200 local updates vs re-solves at 1e-9, {elapsed:.2f}s", failures)


def test_criterion_06_group_removal_identities():
    rng = np.random.default_rng(6)
    failures = []
    for trial in range(200):
        n = int(rng.integers(4, 11))
        net = random_connected_graph(rng, n)
        delta = safe_delta(rng, net)
        theta = rng.uniform(0.5, 2.0, size=n)
        spec = certify(net, delta, theta)
        k = int(rng.integers(1, min(4, n - 2) + 1))
        members = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
        s = NodeSet.of(members)

        # removal value == whole-game aggregate minus surviving subgame aggregate
        d = intercentrality(spec, s).intercentrality
        rest = [i for i in range(n) if i not in members]
        agg_full = float(np.linalg.solve(np.eye(n) - delta * net.adjacency, theta).sum())
        sub = net.adjacency[np.ix_(rest, rest)]
        agg_sub = float(
            np.linalg.solve(np.eye(len(rest)) - delta * sub, theta[rest]).sum()
        )
        if abs(d - (agg_full - agg_sub)) > 1e-9:
            failures.append(f"trial {trial}: identity gap {abs(d - (agg_full - agg_sub)):.3e}")

        # with unit theta: the pricing vector is nonnegative and strictly
        # monotone under adding one more node to the removed set
        ones = certify(net, delta)
        b_s = ones.solve(np.ones(n))[members]
        m_ss = ones.solve(np.eye(n)[:, members])[members, :]
        v = np.linalg.solve(m_ss, b_s)
        if float(v.min()) < -1e-12:
            failures.append(f"trial {trial}: negative pricing entry {v.min():.3e}")
        extra = int(rng.choice(rest))
        bigger = NodeSet.of(sorted(members + [extra]))
        d1 = intercentrality(ones, s).intercentrality
        d2 = intercentrality(ones, bigger).intercentrality
        if not d2 > d1:
            failures.append(f"trial {trial}: superset not strictly larger ({d1} vs {d2})")
    _finish(6, "200 subgame identities at 1e-9, nonneg pricing, strict supersets", failures)


def test_criterion_07_walk_identities():
    rng = np.random.default_rng(7)
    failures = []
    for trial in range(40):
        n = int(rng.integers(4, 10))
        net = random_connected_graph(rng, n)
        delta = safe_delta(rng, net, frac_hi=0.7)
        spec = certify(net, delta)
        m = spec.influence()

        k = int(rng.integers(1, n - 1))
        s = NodeSet.of(sorted(int(i) for i in rng.choice(n, size=k, replace=False)))
        wm = walk_matrix(spec, s)

        # route one: block formulas (inside walk_matrix); route two: solve
        # the network with the excluded rows literally deleted
        kept = list(s.complement(n).members)
        deleted = np.linalg.inv(
            np.eye(len(kept)) - delta * net.adjacency[np.ix_(kept, kept)]
        )
        gap = float(np.max(np.abs(wm.kept_kept - deleted)))
        if gap > 1e-9:
            failures.append(f"trial {trial}: block routes disagree by {gap:.3e}")

        # walks from outside into s, priced by b[s], are its indirect removal value
        gs = intercentrality(spec, s)
        into = float(wm.kept_excluded.sum(axis=0) @ spec.b[list(s.members)])
        reading_gap = abs(into - gs.indirect_effect)
        if reading_gap > 1e-12 * gs.intercentrality:
            failures.append(f"trial {trial}: walk reading off by {reading_gap:.3e}")

        # knocking out one node dents every walk count by a rank-one term
        i = int(rng.integers(0, n))
        wi = walk_matrix(spec, NodeSet.of([i]))
        others = [x for x in range(n) if x != i]
        dent = np.outer(m[others, i], m[i, others]) / m[i, i]
        dent_gap = float(np.max(np.abs(m[np.ix_(others, others)] - wi.kept_kept - dent)))
        if dent_gap > 1e-10:
            failures.append(f"trial {trial}: rank-one dent off by {dent_gap:.3e}")

        # self-avoidance exchange symmetry between any two nodes
        j = int(rng.choice(others))
        wj = walk_matrix(spec, NodeSet.of([j]))
        pos_j = j - (1 if i < j else 0)
        pos_i = i - (1 if j < i else 0)
        lhs = m[i, i] * wi.kept_kept[pos_j, pos_j]
        rhs = m[j, j] * wj.kept_kept[pos_i, pos_i]
        if abs(lhs - rhs) > 1e-10:
            failures.append(f"trial {trial}: exchange symmetry off by {abs(lhs - rhs):.3e}")

        # double-avoidance singleton closed form
        num = m[i, j]
        den = m[i, i] * m[j, j] - m[i, j] ** 2
        block = avoidance_block(spec, NodeSet.of([i]), NodeSet.of([j]))
        if abs(float(block[0, 0]) - num / den) > 1e-10:
            failures.append(f"trial {trial}: pairwise closed form off")

        # truncated enumeration lands within the geometric tail of the answer
        cap = 40
        tgt_i, tgt_j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if len(s) < n and tgt_i not in s.members and tgt_j not in s.members:
            enum = enumerate_avoiding_walks(net, delta, tgt_i, tgt_j, s, max_len=cap)
            tail = truncation_tail_bound(delta, spectral_radius(net), cap)
            if abs(enum - walk_entry(wm, tgt_i, tgt_j)) > tail + 1e-12:
                failures.append(f"trial {trial}: enumeration outside tail bound")
    _finish(7, "40 instances of block, walk-reading, rank-one, exchange, tail identities", failures)


def test_criterion_08_quadratic_lower_bound():
    rng = np.random.default_rng(8)
    failures = []
    done = 0
    while done < 200:
        n = int(rng.integers(4, 11))
        net = random_graph(rng, n)
        delta = safe_delta(rng, net, frac_hi=0.6)
        spec = certify(net, delta)
        iv = random_legal_intervention(rng, net)
        signs = {sign for _, _, sign in iv.entries}
        if len(signs) < 2 or not _post_certifiable(net, iv, delta):
            continue
        check = sufficient_increase_check(spec, iv)
        realized = structural_effect(spec, iv).delta_aggregate
        if realized < delta * check["quadratic_form"] - 1e-9:
            failures.append(
                f"instance {done}: {realized:.6e} below bound "
                f"{delta * check['quadratic_form']:.6e}"
            )
        done += 1

    swaps = 0
    while swaps < 200:
        n = int(rng.integers(4, 11))
        net = random_connected_graph(rng, n)
        delta = safe_delta(rng, net, frac_hi=0.6)
        spec = certify(net, delta)
        b = spec.solve(np.ones(n))
        i = int(rng.integers(0, n))
        linked = [j for j in range(n) if net.adjacency[i, j]]
        free = [j for j in range(n) if j != i and not net.adjacency[i, j]]
        if not linked or not free:
            continue
        j = int(rng.choice(linked))
        l = int(rng.choice(free))
        if b[l] - b[j] <= 1e-9:
            continue
        iv = StructuralIntervention.from_label_pairs(
            net,
            add=[(net.labels[i], net.labels[l])],
            remove=[(net.labels[i], net.labels[j])],
        )
        if not _post_certifiable(net, iv, delta):
            continue
        realized = structural_effect(spec, iv).delta_aggregate
        if not realized > 0.0:
            failures.append(f"swap {swaps}: rewiring to a stronger partner lost value")
        swaps += 1
    _finish(8, "200 mixed changes meet the bound, 200 upgrades strictly gain", failures)


def test_criterion_09_link_indices():
    rng = np.random.default_rng(9)
    failures = []
    for trial in range(30):
        n = int(rng.integers(4, 10))
        net = random_connected_graph(rng, n)
        delta = safe_delta(rng, net, frac_hi=0.55)
        spec = certify(net, delta)
        base = float(spec.solve(np.ones(n)).sum())

        absent = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not net.adjacency[i, j]
        ]
        present = net.edges()
        rng.shuffle(absent)

        for i, j in absent[:3]:
            li, lj = net.labels[i], net.labels[j]
            grown = StructuralIntervention.from_label_pairs(net, add=[(li, lj)]).applied_to(net)
            if delta * spectral_radius(grown) >= 1.0 - 1e-6:
                continue
            lv = link_value_potential(spec, li, lj)
            gain = float(
                np.linalg.solve(np.eye(n) - delta * grown.adjacency, np.ones(n)).sum()
            ) - base
            if abs(delta * lv.value - gain) > 1e-9:
                failures.append(f"trial {trial}: add ({li},{lj}) gain off by "
                                f"{abs(delta * lv.value - gain):.3e}")
            after = link_value_existing(certify(grown, delta), li, lj)
            if abs(after.value - lv.value) > 1e-10:
                failures.append(f"trial {trial}: value not conserved across adding ({li},{lj})")

        for li, lj in present[:3]:
            i, j = net.index_of(li), net.index_of(lj)
            lv = link_value_existing(spec, li, lj)
            shrunk = StructuralIntervention.from_label_pairs(
                net, remove=[(li, lj)]
            ).applied_to(net)
            change = float(
                np.linalg.solve(np.eye(n) - delta * shrunk.adjacency, np.ones(n)).sum()
            ) - base
            if abs(-delta * lv.value - change) > 1e-9:
                failures.append(f"trial {trial}: cut ({li},{lj}) change off by "
                                f"{abs(-delta * lv.value - change):.3e}")

    # the best cross-component link always sits on both frontiers
    for trial in range(12):
        n1, n2 = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        net1 = random_connected_graph(rng, n1)
        base2 = random_connected_graph(rng, n2)
        net2 = Network(tuple("r" + lab for lab in base2.labels), base2.adjacency)
        delta = safe_delta(rng, net1, net2, frac_hi=0.5)
        s1, s2 = certify(net1, delta), certify(net2, delta)
        scores = {
            (u, v): bridge_index(s1, s2, u, v).index
            for u in net1.labels
            for v in net2.labels
        }
        best_pair = max(scores, key=lambda p: (scores[p]))
        f1 = set(pareto_frontier(s1).labels(net1))
        f2 = set(pareto_frontier(s2).labels(net2))
        if best_pair[0] not in f1 or best_pair[1] not in f2:
            failures.append(f"trial {trial}: best pair {best_pair} off the frontiers")
        chosen = key_bridge(s1, s2)
        if scores[best_pair] - chosen.index > 1e-9 * max(1.0, abs(scores[best_pair])):
            failures.append(f"trial {trial}: frontier search missed the best bridge")
    _finish(9, "30 graphs of add/cut identities, 12 frontier argmax checks", failures)


def test_criterion_10_extension_models():
    rng = np.random.default_rng(10)
    failures = []

    for trial in range(25):
        n = int(rng.integers(3, 9))
        net = random_connected_graph(rng, n)
        a = net.adjacency
        beta = float(rng.uniform(-0.45, 0.45))
        lam = max(spectral_radius(net), 1.0)
        delta = float(rng.uniform(0.2, 0.7)) * (1.0 - abs(beta)) / lam
        ta = rng.uniform(0.5, 2.0, size=n)
        tb = rng.uniform(0.5, 2.0, size=n)
        eq = multi_activity_equilibrium(certify_multi_activity(net, delta, beta, ta, tb))
        xa, xb = eq["activity_a"], eq["activity_b"]
        ra = float(np.max(np.abs(xa - ta - delta * a @ xa + beta * xb)))
        rb = float(np.max(np.abs(xb - tb - delta * a @ xb + beta * xa)))
        if max(ra, rb) > 1e-9:
            failures.append(f"two-activity trial {trial}: residual {max(ra, rb):.3e}")

        # adding the congestion term only firms up the system matrix, so the
        # certification below cannot fail at these draws
        gamma = float(rng.uniform(0.0, 0.04))
        cdelta = float(rng.uniform(0.2, 0.5)) / lam
        theta = rng.uniform(0.5, 2.0, size=n)
        x = congestion_equilibrium(certify_congestion(net, cdelta, gamma, theta))
        r = float(np.max(np.abs(x - theta - cdelta * a @ x + gamma * a @ a @ x)))
        if r > 1e-9:
            failures.append(f"congestion trial {trial}: residual {r:.3e}")
        disc = cdelta * cdelta - 4.0 * gamma
        if disc > 1e-8:
            root = float(np.sqrt(disc))
            b1, b2 = (cdelta + root) / 2.0, (cdelta - root) / 2.0
            eye = np.eye(n)
            split = (
                b1 * np.linalg.solve(eye - b1 * a, theta)
                - b2 * np.linalg.solve(eye - b2 * a, theta)
            ) / (b1 - b2)
            if float(np.max(np.abs(split - x))) > 1e-9:
                failures.append(f"congestion trial {trial}: two-game split disagrees")

        phi = float(rng.uniform(0.0, 0.6))
        gdelta = float(rng.uniform(0.2, 0.7)) * (1.0 - phi) / lam
        x = global_substitution_equilibrium(certify_global_substitution(net, gdelta, phi))
        ones = np.ones(n)
        r = float(
            np.max(np.abs((1.0 - phi) * x - gdelta * a @ x + phi * ones * x.sum() - ones))
        )
        if r > 1e-9:
            failures.append(f"rivalry trial {trial}: residual {r:.3e}")

        spec = certify(net, float(rng.uniform(0.2, 0.8)) / lam, theta)
        iv = random_legal_intervention(rng, net)
        if _post_certifiable(net, iv, spec.delta):
            dv = rng.uniform(-0.3, 0.3, size=n)
            eff = hybrid_effect(spec, iv, CharacteristicIntervention(dv))
            post = iv.applied_to(net)
            direct = np.linalg.solve(np.eye(n) - spec.delta * post.adjacency, theta + dv)
            if float(np.max(np.abs(eff.post_b - direct))) > 1e-9:
                failures.append(f"hybrid trial {trial}: re-solve gap")
    _finish(10, "25 rounds of extension residuals, split cross-check, hybrids", failures)
