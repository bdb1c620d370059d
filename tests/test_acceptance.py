"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import dataclasses
import math
import time

import pytest

import ndlham as nh
from conftest import complement, corpus, near_hamilton_distances, random_regular_corpus

CORPUS = corpus()


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {status}  {label}  {detail}")
    assert ok, f"criterion {num}: {label} {detail}"


def test_criterion_1_permanent_cycle_cover_identity():
    start = time.time()
    for name, g in CORPUS:
        if g.n > 16:
            continue
        wcc = nh.factor_histogram(g).weighted_total
        per = nh.permanent_exact(nh.adjacency_matrix_of(g))
        assert wcc == per, f"{name}: {wcc} != {per}"
    # the theorem's regime within ENUM_CAP: an 11-regular graph that meets
    # condition 1
    dense = complement(nh.random_regular(16, 4, 0))
    assert nh.certify(dense).cond1_margin > 1
    hist = nh.factor_histogram(dense)
    assert hist.weighted_total == nh.permanent_exact(nh.adjacency_matrix_of(dense)) == 65_219_189_773
    assert hist.counts[1] == nh.hamilton_count_exact(dense) == 4_616_336_702
    elapsed = time.time() - start
    report(1, "per(A) = sum of 2^c(F) on full corpus and complement(rr(16,4,0))", elapsed < 120,
           f"({elapsed:.1f}s)")


def test_criterion_2_permanent_sandwich():
    for name, g in CORPUS:
        d = g.degree(0)
        per = nh.permanent_exact(nh.adjacency_matrix_of(g))
        logp = math.log(per) if per > 0 else -math.inf
        assert nh.vdw_lower(g.n, d).value <= logp + 1e-9, name
        assert logp <= nh.bregman_bound(g.degrees).value + 1e-9, name
    per_k4 = nh.permanent_exact(nh.adjacency_matrix_of(nh.complete(4)))
    ok = per_k4 == 9 and 7.59375 <= per_k4 <= 10.903
    report(2, "vdw <= per(A) <= bregman, per(A(K4)) = 9 in [7.59375, 10.903]", ok)


def test_criterion_3_hamilton_upper_bound():
    for name, g in CORPUS:
        d = g.degree(0)
        h = nh.hamilton_count_exact(g)
        logh = math.log(h) if h > 0 else -math.inf
        assert logh <= nh.regular_upper(g.n, d).value + 1e-9, name
    pet_bound = math.exp(nh.regular_upper(10, 3).value)
    ok = nh.hamilton_count_exact(nh.petersen()) == 0 and pet_bound > 0
    report(3, "h(G) <= (d!)^(n/d) on every corpus graph", ok,
           f"(Petersen: 0 <= {pet_bound:.1f})")


def test_criterion_4_exact_hamilton_counts():
    expected = {4: 3, 5: 12, 6: 60, 7: 360, 8: 2520}
    for n, want in expected.items():
        assert nh.hamilton_count_exact(nh.complete(n)) == want
    for n in range(4, 11):
        assert nh.hamilton_count_exact(nh.cycle(n)) == 1
    assert nh.hamilton_count_exact(nh.petersen()) == 0
    for name, g in CORPUS:
        if g.n > 14:
            continue
        hist = nh.factor_histogram(g)
        assert hist.counts.get(1, 0) == nh.hamilton_count_exact(g), name
    report(4, "h(K_n) = (n-1)!/2, h(C_n) = 1, h(Petersen) = 0, counts[1] = h", True)


def test_criterion_5_spectral_certification():
    checks = []
    for n in range(3, 9):
        checks.append((f"K{n}", nh.certify(nh.complete(n)).lam, 1.0))
    checks.append(("petersen", nh.certify(nh.petersen()).lam, 2.0))
    for q in (5, 13, 17, 29):
        checks.append(
            (f"paley{q}", nh.certify(nh.paley(q)).lam, (1 + math.sqrt(q)) / 2)
        )
    worst = max(abs(got - want) for _, got, want in checks)
    for name, got, want in checks:
        assert abs(got - want) < 1e-8, (name, got, want)
    report(5, "lambda matches closed forms to 1e-8", True, f"(worst {worst:.2e})")


def test_criterion_6_mixing_lemma():
    for name, g in CORPUS:
        cert = nh.certify(g)
        rep = nh.verify_mixing(g, cert, sample_count=1000, seed=42)
        assert rep.violations == 0, name
    pet = nh.petersen()
    lied = dataclasses.replace(nh.certify(pet), lam=1.0)
    neg = nh.verify_mixing(pet, lied, sample_count=1000, seed=42)
    report(6, "0 violations on corpus; understated lambda refuted", neg.violations >= 1,
           f"(negative control: {neg.violations} violations)")


def test_criterion_7_rotation_engine():
    max_merge = 0
    budget_seen = 0
    for name, g in CORPUS:
        if g.n > 12:
            continue
        cert = nh.certify(g)
        h = nh.hamilton_count_exact(g)
        for f in nh.enumerate_two_factors(g):
            tr = nh.two_factor_to_hamilton(g, f, cert, budget_constant=10.0)
            if h > 0:
                assert tr.success, (name, f.components, tr.failure_reason)
                nh.replay(g, f, tr)
                if tr.per_merge_replacements:
                    max_merge = max(max_merge, max(tr.per_merge_replacements))
                budget_seen = max(budget_seen, tr.budget)
    pet = nh.petersen()
    certp = nh.certify(pet)
    for f in nh.enumerate_two_factors(pet):
        tr = nh.two_factor_to_hamilton(pet, f, certp, budget_constant=10.0)
        assert not tr.success
    report(7, "engine hamiltonizes every 2-factor of Hamiltonian corpus graphs;"
           " Petersen always fails", True,
           f"(empirical max per-merge {max_merge}, max formula budget {budget_seen})")


def test_criterion_8_neighborhood_bound():
    graphs = [nh.complete(n) for n in (4, 5, 6)]
    graphs += [nh.random_regular(12, 4, 0), nh.random_regular(16, 4, 0)]
    cycles_checked = 0
    for g in graphs:
        n, d = g.n, g.degree(0)
        bounds = [math.comb(n, k) * d ** (2 * k) for k in range(n + 1)]
        # one enumeration per graph: each 2-factor as a bitset over the
        # numbered edges, so |E(H) \ E(F)| = n - popcount(F & H) for every H
        bit = {e: 1 << i for i, e in enumerate(g.edges())}
        two_factors = nh.enumerate_two_factors(g)
        masks = [sum(bit[e] for e in f.edges()) for f in two_factors]
        cycles = [(f.components[0], m) for f, m in zip(two_factors, masks) if f.num_components == 1]
        assert cycles
        for i, (h, h_mask) in enumerate(cycles):
            counts = [0] * (n + 1)
            for m in masks:
                counts[n - (m & h_mask).bit_count()] += 1
            if i == 0:  # the bitsets against the edge-set count
                assert counts == near_hamilton_distances(g, h), n
            count = 0
            for k, at_k in enumerate(counts):
                count += at_k
                assert count <= bounds[k], (n, k, count)
        cycles_checked += len(cycles)
    report(8, "2-factors near H bounded by binom(n,k) d^(2k) on K4..K6, rr(12,4,0)"
           " and rr(16,4,0), every H, every k", True, f"({cycles_checked} Hamilton cycles)")


def test_criterion_9_matching_corollary():
    for name, g in CORPUS:
        if g.n % 2:
            continue
        d = g.degree(0)
        m = nh.perfect_matching_count(g)
        h = nh.hamilton_count_exact(g)
        assert h <= m * (m - 1) // 2, name
        logm = math.log(m) if m > 0 else -math.inf
        assert logm <= nh.alon_friedland_upper(g.n, d).value + 1e-9, name
    ok = (
        nh.perfect_matching_count(nh.complete(4)) == 3
        and nh.perfect_matching_count(nh.cycle(6)) == 2
        and nh.perfect_matching_count(nh.petersen()) == 6
    )
    report(9, "h <= binom(m,2), m <= (d!)^(n/2d); m(K4)=3, m(C6)=2, m(Petersen)=6", ok)


def test_criterion_10_janson_expectation():
    res = nh.monte_carlo_gnp(8, 0.5, trials=2000, seed=1)
    ok = 0.8 <= res["ratio"] <= 1.25
    exact = nh.monte_carlo_gnp(4, 1.0, trials=3, seed=0)
    ok = ok and exact["empirical_mean"] == 3 and exact["ratio"] == pytest.approx(1.0)
    value, is_zero = nh.janson_expectation_gnm(4, 6)
    ok = ok and not is_zero and math.exp(value) == pytest.approx(3.0, rel=1e-9)
    report(10, "Monte Carlo mean within [0.8, 1.25] of expectation; saturated"
           " G(n,m) exact", ok, f"(ratio {res['ratio']:.3f})")


def test_criterion_11_theorem_trend_table():
    rows = nh.theorem_trend(ns=range(10, 21, 2), ds=(4, 6), seed=0)
    assert rows
    print("[criterion 11] INFO  normalized h(G)^(1/n) / ((n!)^(1/n) d/n)"
          " (no pass/fail threshold; conditions (1),(2) fail at desk scale):")
    for row in rows:
        print(f"    n={row['n']:>2} d={row['d']} h={row['h']:>14}"
              f" gap={row['gap']:.4f}")
    for row in rows:
        assert 0.0 <= row["gap"] <= 2.0
    report(11, "trend table reported over random-regular n=10..20, d in {4,6}", True)
