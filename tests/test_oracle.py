import math
import time
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from dual_sum_reference import dual_sum_exponent, local_homs
from malle_lab import groups, oracle
from malle_lab.groups import BudgetExceededError, make_group
from malle_lab.invariants import invariant_summary
from malle_lab.numerics import euler_phi, factorize, is_prime, unit_group_components
from malle_lab.oracle import DirichletCharacter, characters_up_to, count_surjections


class TestUnitGroups:
    def test_mod_8(self):
        comps = unit_group_components(8)
        assert make_group([order for *_, order in comps]).invariant_factors == (2, 2)
        assert {residue for _, _, residue, _ in comps} == {7, 5}

    def test_mod_9(self):
        comps = unit_group_components(9)
        assert make_group([order for *_, order in comps]).invariant_factors == (6,)
        assert tuple(residue for _, _, residue, _ in comps) == (2,)

    def test_mod_1(self):
        assert unit_group_components(1) == ()

    def test_generators_generate(self):
        for q in (3, 4, 5, 8, 9, 12, 16, 21, 40, 45, 100):
            comps = unit_group_components(q)
            generated = {1 % q}
            frontier = [1 % q]
            residues = [r for _, _, r, _ in comps]
            while frontier:
                new = []
                for x in frontier:
                    for r in residues:
                        y = x * r % q
                        if y not in generated:
                            generated.add(y)
                            new.append(y)
                frontier = new
            assert len(generated) == euler_phi(q)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            unit_group_components(0)


class TestCharacters:
    def test_conductor_of_mod4(self):
        chi = DirichletCharacter(((2, 2, (1,)),))
        assert chi.conductor == 4
        assert chi.order == 2

    def test_conductor_of_faithful_mod9(self):
        # order-3 character mod 9 kills 1+9Z but not 1+3Z
        chi = DirichletCharacter(((3, 2, (2,)),))
        assert chi.order == 3
        assert chi.conductor == 9

    def test_mod8_lift_of_mod4(self):
        # -1 -> -1, 5 -> 1: the character mod 4 seen mod 8
        chi = DirichletCharacter(((2, 3, (1, 0)),))
        assert chi.modulus == 8
        assert chi.conductor == 4
        assert chi.primitive().modulus == 4

    def test_mul_and_power(self):
        chi8 = DirichletCharacter(((2, 3, (0, 1)),))
        chi_m8 = DirichletCharacter(((2, 3, (1, 1)),))
        prod = chi8.mul(chi_m8)
        assert prod.conductor == 4  # chi_8 * chi_-8 = chi_-4
        assert chi8.power(2).is_trivial()

    def test_generator_values_shape(self):
        chi = DirichletCharacter(((3, 1, (1,)), (7, 1, (2,))))
        values = chi.generator_values()
        assert values == ((2, 1), (6, 2))


def _reference_invariants(components) -> tuple[int, int]:
    """(conductor, order) from the definitions, component by component.

    A character mod p^k is trivial on the units = 1 mod p^j (j >= 1 for odd
    p, j >= 2 at 2) iff it kills their generator: g^((p - 1) p^(j - 1)) for
    a primitive root g, or 5^(2^(j - 2)) at 2.  The local conductor is p^j
    for the least such j, and 1 for the trivial character.
    """
    conductor = order = 1
    for p, k, exps in components:
        if p != 2:
            orders = (euler_phi(p**k),)
        else:
            orders = ((), (2,), (2, 2 ** (k - 2)))[min(k, 3) - 1]
        local_order = 1
        for e, n in zip(exps, orders):
            local_order = math.lcm(local_order, n // math.gcd(n, e))
        order = math.lcm(order, local_order)
        if local_order == 1:
            continue
        if p != 2:
            n, e = orders[0], exps[0]
            j = next(j for j in range(1, k + 1) if e * (p - 1) * p ** (j - 1) % n == 0)
        else:
            j = next(
                j for j in range(2, k + 1)
                if k == 2 or exps[1] * 2 ** (j - 2) % orders[1] == 0
            )
        conductor *= p**j
    return conductor, order


def _characters_mod(q: int) -> list[DirichletCharacter]:
    """Every character mod q, primitive or not, stored on modulus q."""
    comps = unit_group_components(q)
    rows: list[tuple[int, int, list[range]]] = []
    for p, pk, _, order in comps:
        if rows and rows[-1][0] == p:
            rows[-1][2].append(range(order))
        else:
            rows.append((p, next(k for k in range(1, pk) if p**k == pk), [range(order)]))
    per_p = [
        [(p, k, exps) for exps in product(*ranges)] for p, k, ranges in rows
    ]
    return [DirichletCharacter(c) for c in product(*per_p)]


class TestStoredInvariants:
    @pytest.mark.parametrize("e", [2, 3, 4, 6, 8, 12])
    def test_pool_and_powers_match_the_definitions(self, e):
        chars = characters_up_to(e, 2000)
        assert chars
        for chi in chars:
            assert (chi.conductor, chi.order) == _reference_invariants(chi.components)
            assert chi.conductor == chi.modulus and chi.primitive() is chi
            for j in (2, 3, e - 1):
                power = chi.power(j)
                assert (power.conductor, power.order) == _reference_invariants(
                    power.components
                )

    @pytest.mark.parametrize("q", [16, 36, 40])
    def test_products_match_the_definitions(self, q):
        chars = _characters_mod(q)
        assert len(chars) == euler_phi(q)
        for chi in chars:
            assert (chi.conductor, chi.order) == _reference_invariants(chi.components)
            for psi in chars:
                prod = chi.mul(psi)
                assert (prod.conductor, prod.order) == _reference_invariants(prod.components)
                assert prod.conductor == prod.modulus

    @pytest.mark.parametrize("e", [2, 3, 4, 6, 8, 12])
    def test_equal_components_are_one_character(self, e):
        chars = characters_up_to(e, 2000)
        rebuilt = [DirichletCharacter(chi.components) for chi in chars]
        for chi, twin in zip(chars, rebuilt):
            assert chi == twin and hash(chi) == hash(twin)
            assert (chi.conductor, chi.order) == (twin.conductor, twin.order)
        assert len(set(chars) | set(rebuilt)) == len(chars)


class TestCharactersUpTo:
    def test_quadratic_up_to_eight(self):
        chars = characters_up_to(2, 8)
        assert [c.conductor for c in chars] == [3, 4, 5, 7, 8, 8]

    def test_trivial_order_gives_nothing(self):
        assert characters_up_to(1, 500) == []

    def test_cubic_up_to_nine(self):
        chars = characters_up_to(3, 9)
        assert sorted(c.conductor for c in chars) == [7, 7, 9, 9]

    def test_monotone_in_bound(self):
        sizes = [len(characters_up_to(2, F)) for F in (10, 50, 100, 200)]
        assert sizes == sorted(sizes)

    def _brute_force_count(self, e: int, f_max: int) -> int:
        # enumerate exponent vectors over the unit groups of all moduli,
        # keep primitive characters of order dividing e, count once each
        count = 0
        for q in range(2, f_max + 1):
            comps = unit_group_components(q)
            orders = [o for _, _, _, o in comps]
            slots: dict[int, list[int]] = {}
            for idx, (p, _, _, _) in enumerate(comps):
                slots.setdefault(p, []).append(idx)
            for exps in product(*(range(o) for o in orders)):
                components = []
                for p, idxs in sorted(slots.items()):
                    k = 0
                    pk = comps[idxs[0]][1]
                    while p**k != pk:
                        k += 1
                    components.append((p, k, tuple(exps[i] for i in idxs)))
                chi = DirichletCharacter(tuple(components))
                if chi.is_trivial() or chi.conductor != q:
                    continue
                if e % chi.order == 0:
                    count += 1
        return count

    @pytest.mark.parametrize("e,f_max", [(2, 50), (3, 100), (4, 60), (6, 80), (5, 200)])
    def test_against_modulus_enumeration(self, e, f_max):
        assert len(characters_up_to(e, f_max)) == self._brute_force_count(e, f_max)

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_ties_are_in_component_order(self, e):
        # the pool is sorted by conductor alone; characters of one conductor
        # must still come in the order of their components
        for f_max in (1, 8, 100, 2000) + ((20000,) if e <= 6 else ()):
            chars = characters_up_to(e, f_max)
            expected = sorted(chars, key=lambda chi: (chi.conductor, chi.components))
            assert [chi.components for chi in chars] == [chi.components for chi in expected]


def _ram_histogram_by_definition(G, X):
    """Every tuple of generator images of exact orders d_i, injective on the
    dual group, by the product of the ramified primes of all dual images;
    an order-d character with that product at most X has conductor at most
    2 d X."""
    factors = G.invariant_factors
    pools = [[chi for chi in characters_up_to(d, 2 * d * X) if chi.order == d] for d in factors]
    hist = {}
    for images in product(*pools):
        primes = set()
        for exps in product(*(range(d) for d in factors)):
            parts = [chi.power(e) for chi, e in zip(images, exps) if e]
            if not parts:
                continue
            img = parts[0]
            for part in parts[1:]:
                img = img.mul(part)
            if img.is_trivial():
                break
            primes.update(img.ramified_primes())
        else:
            if math.prod(primes) <= X:
                hist[math.prod(primes)] = hist.get(math.prod(primes), 0) + 1
    return hist


def _disc_histogram_by_definition(G, X):
    """Every tuple of generator images of exact orders d_i, injective on the
    dual group, by the product of the conductors of all dual images.  Each
    image's conductor is a factor of the discriminant, so the pools run to
    conductor X, and a partial product past X ends a branch."""
    factors = G.invariant_factors
    pools = [[chi for chi in characters_up_to(d, X) if chi.order == d] for d in factors]
    hist = {}

    def image(images, exps):
        parts = [chi.power(e) for chi, e in zip(images, exps) if e]
        img = parts[0]
        for part in parts[1:]:
            img = img.mul(part)
        return img

    def extend(images, disc):
        i = len(images)
        if i == len(factors):
            hist[disc] = hist.get(disc, 0) + 1
            return
        # the dual elements whose last nonzero coordinate is i
        new_exps = list(product(*(range(d) for d in factors[:i]), range(1, factors[i])))
        for chi in pools[i]:
            if disc * chi.conductor > X:
                break  # chi itself is one of the images
            value = disc
            for exps in new_exps:
                img = image(images + [chi], exps)
                if img.is_trivial() or value * img.conductor > X:
                    break
                value *= img.conductor
            else:
                extend(images + [chi], value)

    extend([], 1)
    return hist


def _steps(hist, x):
    return sum(m for n, m in hist.items() if n <= x)


def _check_walk(factors, X, ordering, reference):
    """The walk's histogram against reference(G, X), and the count without a
    histogram, which takes the bisected single-prime leaves, against the
    steps of that histogram.  N(x) changes only at invariants, so it is
    checked at each invariant and one below it, and at every two-prime edge
    (p q)^c (and one below) for consecutive primes p < q, where the walk
    switches to bisection."""
    G = make_group(factors)
    ref = reference(G, X)
    rep = count_surjections(G, X, ordering, histogram=True)
    assert dict(rep.histogram) == ref
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    edges = {(p * q) ** c + s for p, q in zip(primes, primes[1:]) for c in range(1, 7) for s in (-1, 0)}
    xs = sorted({n + s for n in ref for s in (-1, 0)} | {x for x in edges if 1 <= x <= X} | {X})
    for x in xs:
        assert count_surjections(G, x, ordering).surjections == _steps(ref, x), x
    assert count_surjections(G, X, ordering).surjections == sum(ref.values())


def _walk_histogram(ordering):
    """The walk's own histogram, which takes no bisected leaves."""
    def reference(G, X):
        return dict(count_surjections(G, X, ordering, histogram=True).histogram)
    return reference


class TestCyclicWalk:
    """The walk for G = C_d against the character-by-character definitions;
    the wild primes 2 and 3 appear in C4, C6, C8, C9, C12 and C16."""

    @pytest.mark.parametrize("d,X", [
        (2, 3000), (3, 10000), (4, 10000), (5, 15000), (6, 20000),
        (8, 2000), (9, 2000), (12, 2000), (16, 2000),
    ])
    def test_disc_matches_definition(self, d, X):
        _check_walk([d], X, "disc", _disc_histogram_by_definition)

    @pytest.mark.parametrize("d,X", [
        (2, 500), (3, 500), (4, 300), (5, 300), (6, 300),
        (8, 200), (9, 200), (12, 150), (16, 100),
    ])
    def test_ram_matches_definition(self, d, X):
        _check_walk([d], X, "ram", _ram_histogram_by_definition)

    @pytest.mark.parametrize("d,X,ordering", [
        (2, 10**6, "disc"), (3, 10**9, "disc"), (4, 10**8, "disc"),
        (6, 10**8, "disc"), (2, 10**5, "ram"), (4, 10**4, "ram"),
    ])
    def test_count_is_the_histogram_sum(self, d, X, ordering):
        G = make_group([d])
        rep = count_surjections(G, X, ordering, histogram=True)
        assert count_surjections(G, X, ordering).surjections == rep.surjections
        assert sum(m for _, m in rep.histogram) == rep.surjections


class TestNoncyclicWalk:
    """The same walk for G of rank 2 and 3: against the definitions where
    they are cheap, and its bisected leaves against its own histogram where
    the groups have many discriminants.  C2xC8 joins the ram definition and
    both leaves tests: its Frattini subgroup 2G has order 4, so some
    nontrivial images lie in every maximal subgroup."""

    GROUPS = [[2, 2], [2, 4], [3, 3], [2, 6], [2, 2, 2]]

    @pytest.mark.parametrize("factors,X", zip(GROUPS, [3000, 2000, 3000, 3000, 1000]))
    def test_disc_matches_definition(self, factors, X):
        _check_walk(factors, X, "disc", _disc_histogram_by_definition)

    @pytest.mark.parametrize("factors,X", [*zip(GROUPS, [60, 30, 60, 20, 12]), ([2, 8], 30)])
    def test_ram_matches_definition(self, factors, X):
        _check_walk(factors, X, "ram", _ram_histogram_by_definition)

    @pytest.mark.parametrize("factors,X", [
        *zip(GROUPS, [10**5, 3 * 10**6, 10**13, 10**14, 10**8]), ([2, 8], 10**24),
    ])
    def test_disc_leaves_match_the_histogram(self, factors, X):
        _check_walk(factors, X, "disc", _walk_histogram("disc"))

    @pytest.mark.parametrize("factors,X", [*zip(GROUPS, [500, 300, 1000, 300, 200]), ([2, 8], 1000)])
    def test_ram_leaves_match_the_histogram(self, factors, X):
        _check_walk(factors, X, "ram", _walk_histogram("ram"))

    def test_ram_of_rank_three_within_the_default_budget(self):
        rep = count_surjections(make_group([2, 2, 4]), 1000, "ram", histogram=True)
        assert rep.surjections > 0
        assert sum(m for _, m in rep.histogram) == rep.surjections
        assert count_surjections(make_group([2, 2, 4]), 1000, "ram").surjections == rep.surjections

    def test_first_ram_field_of_rank_five(self):
        # the quadratic characters unramified outside {2, 3, 5, 7} have rank
        # 5, and no smaller product of primes reaches rank 5: the one field
        # is Q(sqrt(-1), sqrt(2), sqrt(3), sqrt(5), sqrt(7))
        G = make_group([2] * 5)
        assert count_surjections(G, 209, "ram").fields == 0
        assert count_surjections(G, 210, "ram").fields == 1

    def test_prime_cyclic_past_its_order_under_ram(self):
        # C_q has no proper nontrivial subgroup, so every nontrivial hom at p
        # is onto: there are q - 1 of them when p = q or p = 1 mod q, and no
        # two such primes fit under 10^6
        q = 10007
        primes = [p for p in (q, *range(q + 1, 10**6 + 1, q)) if is_prime(p)]
        assert len(primes) == 7
        rep = count_surjections(make_group([q]), 10**6, "ram")
        assert rep.surjections == (q - 1) * len(primes) == 70042


class TestCounting:
    def test_c2_up_to_ten(self):
        rep = count_surjections(make_group([2]), 10)
        assert rep.surjections == 6
        assert rep.fields == 6

    def test_c2_histogram_is_fundamental_discriminants(self):
        rep = count_surjections(make_group([2]), 20, histogram=True)
        assert dict(rep.histogram) == {
            3: 1, 4: 1, 5: 1, 7: 1, 8: 2, 11: 1, 12: 1, 13: 1, 15: 1, 17: 1, 19: 1, 20: 1
        }

    def test_c3_first_discriminant(self):
        assert count_surjections(make_group([3]), 48).surjections == 0
        assert count_surjections(make_group([3]), 49).surjections == 2

    def test_c3_disc_is_conductor_squared(self):
        rep = count_surjections(make_group([3]), 10**4, histogram=True)
        for disc, _ in rep.histogram:
            assert math.isqrt(disc) ** 2 == disc

    def test_monotone_in_bound(self):
        counts = [
            count_surjections(make_group([2, 2]), X).surjections
            for X in (10, 100, 1000, 5000)
        ]
        assert counts == sorted(counts)

    def test_aut_divisibility(self):
        for factors, X in ([[3], 2000], [[4], 4000], [[2, 2], 2000], [[5], 20000]):
            rep = count_surjections(make_group(factors), X)
            assert rep.surjections == rep.fields * __import__("malle_lab").aut_order(
                make_group(factors)
            )

    def test_ram_reaggregates_disc(self):
        # same enumeration, different invariant: for squarefree odd
        # conductors the radical of a quadratic character is its conductor
        G = make_group([2])
        ram = count_surjections(G, 10, "ram", histogram=True)
        assert ram.surjections == 12
        assert dict(ram.histogram)[2] == 3  # conductors 4, 8, 8

    @pytest.mark.parametrize("factors,X", [([2], 300), ([3], 300), ([4], 150), ([2, 2], 60), ([2, 4], 30)])
    def test_ram_walk_matches_definition(self, factors, X):
        G = make_group(factors)
        rep = count_surjections(G, X, "ram", histogram=True)
        assert dict(rep.histogram) == _ram_histogram_by_definition(G, X)

    @pytest.mark.parametrize("factors,X", [
        ([2], 2000), ([3], 3000), ([4], 4000), ([6], 17000), ([2, 2], 3000),
        ([2, 4], 2000), ([3, 3], 3000), ([2, 2, 2], 1000),
    ])
    def test_disc_walk_matches_definition(self, factors, X):
        G = make_group(factors)
        rep = count_surjections(G, X, histogram=True)
        assert dict(rep.histogram) == _disc_histogram_by_definition(G, X)

    @pytest.mark.parametrize("factors,X,fields", [
        ([2, 2], 143, 0),
        ([2, 2], 144, 1),  # Q(i, sqrt(-3)): 3 * 4 * 12
        ([2, 4], 1_265_624, 0),
        ([2, 4], 1_265_625, 1),  # Q(zeta_15): 3^4 * 5^6
    ])
    def test_smallest_discriminant_edge(self, factors, X, fields):
        # the walk's room X // key sits exactly at the smallest
        # discriminant; one below it nothing is counted
        assert count_surjections(make_group(factors), X).fields == fields

    def test_trivial_group(self):
        rep = count_surjections(make_group([]), 5)
        assert rep.surjections == 1

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            count_surjections(make_group([2]), 10**5, node_budget=100)

    def test_budget_stops_the_pool_build(self):
        # the sieve bound 10^6 alone is past the budget, so the count stops
        # before the primes are sieved
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                count_surjections(make_group([2]), 10**6, node_budget=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_default_budget_stops_before_the_sieve(self):
        # sieving to 10^9 would take minutes and gigabytes; the sieve bound
        # counts against the node budget and is checked first
        tracemalloc.start()
        start = time.monotonic()
        try:
            with pytest.raises(BudgetExceededError):
                count_surjections(make_group([2]), 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - start < 1
        assert peak < 2**20

    def test_known_builds_are_charged_before_the_sieve(self):
        # C2 to 5*10^7 sieves to exactly the default budget; its one maximal
        # subgroup and the build at p = 2 are charged before that sieve runs
        tracemalloc.start()
        start = time.monotonic()
        try:
            with pytest.raises(BudgetExceededError, match="^enumeration exceeded 50000000 nodes$"):
                count_surjections(make_group([2]), 5 * 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - start < 1
        assert peak < 5 * 2**20

    def test_local_types_count_against_the_budget(self):
        # C2^3 to 16 sieves to 16^(1/4) = 2, so 2 nodes; its 7 maximal
        # subgroups cost 7, and the one build, at p = 2, reads its 64 homs
        # (Z/8)^* -> G against each of them, 448 more: 457 in all
        G = make_group([2, 2, 2])
        with pytest.raises(BudgetExceededError, match="enumeration"):
            count_surjections(G, 16, node_budget=2 + 7 + 448 - 1)
        assert count_surjections(G, 16, node_budget=1000).surjections == 0

    def test_budget_stops_before_the_kernels_are_listed(self):
        # C2^20 has 2^20 - 1 maximal subgroups and 2^40 homs at p = 2; both
        # counts come from the invariant factors, so the count stops before
        # it lists a kernel or an image
        tracemalloc.start()
        start = time.monotonic()
        try:
            with pytest.raises(BudgetExceededError):
                count_surjections(make_group([2] * 20), 10, "ram")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - start < 1
        assert peak < 5 * 2**20

    def test_cyclic_count_builds_no_pool(self, monkeypatch):
        # the walk reads its local types from the homs into G, never one
        # character per character counted; every character is built through
        # the constructor, so counting its calls counts them all
        built = Counter()
        init = DirichletCharacter.__init__

        def counted_init(chi, *args):
            built["init"] += 1
            init(chi, *args)

        monkeypatch.setattr(DirichletCharacter, "__init__", counted_init)
        DirichletCharacter(())
        assert built.pop("init") == 1  # the counter sees a construction
        assert count_surjections(make_group([2]), 10**5).surjections == 60786
        assert count_surjections(make_group([2, 2]), 10**5).surjections == 1458
        assert count_surjections(make_group([2, 4]), 10**8).surjections == 48
        assert not built

    def test_leaves_factorize_cache_empty(self):
        # local orders come from the closed form (p - 1) p^(k - 1), so the
        # local types do not factor one prime power per prime
        factorize.cache_clear()
        count_surjections(make_group([2]), 20000)
        assert factorize.cache_info().currsize < 10


def _level(p: int, exp: int) -> int:
    k, rest = 2 if p == 2 else 1, exp
    while rest % p == 0:
        rest //= p
        k += 1
    return k


class TestDiscExponent:
    """The filtration form of v_p(disc) against the dual-group sum it
    replaced, hom by hom: every prime up to 17 at every level k up to one
    past the one the count uses."""

    GROUPS = [[d] for d in range(2, 28)] + [[5, 5], [2, 4, 8], [6, 6], [2, 2, 2, 2], [3, 9]]

    def test_closed_form_matches_the_dual_sum(self):
        checked = 0
        for factors in self.GROUPS:
            G = make_group(factors)
            for p in (2, 3, 5, 7, 11, 13, 17):
                for k in range(1, _level(p, G.exponent) + 2):
                    for hom in local_homs(G, p, k):
                        expected = dual_sum_exponent(G, p, k, hom)
                        assert oracle._disc_exponent(p, k, G.order, hom) == expected, (G, p, k, hom)
                        checked += 1
        assert checked >= 3000


class TestNoElementListing:
    """Counts and unit-action summaries list no element of G: with the
    listing made to raise they still give the numbers of the dual-group
    and orbit-enumerating forms they replaced."""

    @pytest.fixture(autouse=True)
    def no_listing(self, monkeypatch):
        def refuse(G):
            raise AssertionError(f"{G} was listed")

        monkeypatch.setattr(groups, "_elements", refuse)

    @pytest.mark.parametrize("factors,X,disc,ram", [
        ([2, 2, 4], 10**24, 13056, 1942464),
        ([3, 3], 10**15, 480, 5520),
        ([2, 2, 2, 2], 10**26, 1270080, 10906560),
    ])
    def test_counts(self, factors, X, disc, ram):
        G = make_group(factors)
        with pytest.raises(AssertionError):
            G.elements()
        assert count_surjections(G, X).surjections == disc
        assert sum(m for _, m in count_surjections(G, X, histogram=True).histogram) == disc
        assert count_surjections(G, 1000, "ram").surjections == ram

    @pytest.mark.parametrize("factors,units,disc,ram", [
        ([2, 6], [7], {"6": 3, "8": 2, "10": 6}, {"1": 11}),
        ([2, 6], [5], {"6": 3, "8": 1, "10": 3}, {"1": 7}),
        ([2, 2, 2, 2], [1], {"8": 15}, {"1": 15}),
    ])
    def test_unit_action_summaries(self, factors, units, disc, ram):
        G = make_group(factors)
        assert invariant_summary(G, "disc", units)["b"] == disc
        assert invariant_summary(G, "ram", units)["b"] == ram
