import itertools
import math
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minetax.bilevel as bilevel
from composition import frontier_composition
from leader_reference import (
    ThreeListArchive,
    detect_strata_kinks,
    dominates,
    full_pass_hypervolume,
    interleaved_evolve,
    negated_key_select,
)
from minetax import (
    ArchiveEntry,
    BestResponse,
    EaConfig,
    ExtendedModel,
    LeaderStrategy,
    ParetoArchive,
    StrataTable,
    TechParams,
    analytical_as_extended,
    best_response,
    crowding_distance,
    default_config,
    evolve,
    leader_objectives,
    nondominated_sort,
    reference_point,
)
from minetax.model import replace
from minetax.variation import polynomial_mutation, sbx_crossover
from minetax.verify import random_strategies


def deb_nondominated_sort(points):
    """Reference: the O(N^2) fast nondominated sort of Deb et al. (2002).

    F1 in index order; each later front in the order its decrement queue
    emits points.
    """
    n = len(points)
    dominated_by = [[] for _ in range(n)]
    dom_count = [0] * n
    fronts = [[]]
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            if dominates(points[p], points[q]):
                dominated_by[p].append(q)
            elif dominates(points[q], points[p]):
                dom_count[p] += 1
        if dom_count[p] == 0:
            fronts[0].append(p)
    i = 0
    while fronts[i]:
        nxt = []
        for p in fronts[i]:
            for q in dominated_by[p]:
                dom_count[q] -= 1
                if dom_count[q] == 0:
                    nxt.append(q)
        i += 1
        fronts.append(nxt)
    fronts.pop()
    return fronts


def deb_fronts_in_index_order(points):
    """The reference fronts, each listed in index order."""
    return [sorted(f) for f in deb_nondominated_sort(points)]


def lambda_crowding_distance(
    front: Sequence[int], points: Sequence[ArchiveEntry]
) -> dict[int, float]:
    """Reference: the crowding distance as `evolve` first computed it, a
    dict per index with one getter per objective."""
    dist = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: float("inf") for i in front}
    for get in (lambda p: p.revenue, lambda p: p.damage):
        order = sorted(front, key=lambda i: get(points[i]))
        lo, hi = get(points[order[0]]), get(points[order[-1]])
        dist[order[0]] = dist[order[-1]] = float("inf")
        span = hi - lo if hi > lo else 1.0
        for k in range(1, len(order) - 1):
            dist[order[k]] += (
                get(points[order[k + 1]]) - get(points[order[k - 1]])
            ) / span
    return dist


def _entry(revenue, damage, tagged=True):
    return ArchiveEntry(
        damage=damage,
        revenue=revenue,
        strategy=LeaderStrategy(tau=(0.0,)),
        response=BestResponse(q=(0.0,), a=1, profit=0.0, optimality_tag=tagged),
    )


def _points(pairs):
    return [_entry(float(r), float(d)) for r, d in pairs]


class TestDominates:
    def test_strictly_better(self):
        assert dominates(_entry(10.0, 1.0), _entry(5.0, 2.0))

    def test_tradeoff_is_incomparable(self):
        a = _entry(10.0, 3.0)
        b = _entry(5.0, 1.0)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_equal_points_do_not_dominate(self):
        a = _entry(10.0, 1.0)
        assert not dominates(a, a)

    def test_weak_dominance_counts(self):
        assert dominates(_entry(10.0, 1.0), _entry(10.0, 2.0))


class TestParetoArchive:
    def test_insert_and_sort_order(self):
        arch = ParetoArchive(0.0, 10.0)
        assert arch.insert(_entry(10.0, 5.0))
        assert arch.insert(_entry(4.0, 1.0))
        assert arch.insert(_entry(7.0, 3.0))
        damages = [e.damage for e in arch.entries]
        revenues = [e.revenue for e in arch.entries]
        assert damages == [1.0, 3.0, 5.0]
        assert revenues == [4.0, 7.0, 10.0]

    def test_dominated_newcomer_rejected(self):
        arch = ParetoArchive(0.0, 10.0)
        arch.insert(_entry(10.0, 2.0))
        assert not arch.insert(_entry(8.0, 3.0))
        assert len(arch) == 1

    def test_newcomer_evicts_dominated_entries(self):
        arch = ParetoArchive(0.0, 10.0)
        arch.insert(_entry(4.0, 1.0))
        arch.insert(_entry(7.0, 3.0))
        arch.insert(_entry(10.0, 5.0))
        assert arch.insert(_entry(11.0, 2.0))
        revenues = [e.revenue for e in arch.entries]
        assert revenues == [4.0, 11.0]
        # 4*(2-1) + 11*(10-2)
        assert arch.hypervolume() == pytest.approx(92.0)

    def test_duplicate_objectives_ignored(self):
        arch = ParetoArchive(0.0, 10.0)
        arch.insert(_entry(10.0, 2.0))
        assert not arch.insert(_entry(10.0, 2.0))
        assert len(arch) == 1

    def test_never_compares_past_damage(self):
        class Unordered:
            """Raises on every comparison; tagged, so the archive admits it."""

            optimality_tag = True

            def _compare(self, other):
                raise AssertionError("archive compared past damage")

            __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _compare

        def entry(revenue, damage):
            return ArchiveEntry(damage, revenue, Unordered(), Unordered())

        for ref_damage, area in ((3.0, 0.25 + 4.0), (1.0, 0.25)):
            arch = ParetoArchive(0.0, ref_damage)
            first = entry(2.0, 1.0)
            for e in (first, entry(2.0, 1.0), entry(1.0, 1.0), entry(5.0, 3.0),
                      entry(5.0, 3.0), entry(0.5, 0.5), entry(2.0, 1.0)):
                arch.insert(e)
            # the first of equal objective pairs stays
            assert arch.entries[1] is first
            assert [(e.damage, e.revenue) for e in arch.entries] == [
                (0.5, 0.5), (1.0, 2.0), (3.0, 5.0)
            ]
            assert arch.hypervolume() == pytest.approx(area)

    def test_untagged_entry_raises(self):
        arch = ParetoArchive(0.0, 10.0)
        with pytest.raises(ValueError):
            arch.insert(_entry(10.0, 2.0, tagged=False))

    def test_hypervolume_rectangles(self):
        arch = ParetoArchive(0.0, 8.0)
        arch.insert(_entry(4.0, 1.0))
        arch.insert(_entry(10.0, 5.0))
        # (4-0)*(5-1) + (10-0)*(8-5)
        assert arch.hypervolume() == pytest.approx(46.0)

    def test_hypervolume_empty(self):
        assert ParetoArchive(0.0, 10.0).hypervolume() == 0.0

    def test_hypervolume_clipped_at_reference_damage(self):
        arch = ParetoArchive(0.2, 1.0)
        for r, d in [(0.3, 0.1), (0.7, 0.45), (1.1, 0.9), (2.0, 3.0)]:
            arch.insert(_entry(r, d))
        # 0.1*0.35 + 0.5*0.45 + 0.9*0.1; the entry past damage 1.0 adds nothing
        assert arch.hypervolume() == pytest.approx(0.35)

    def test_entries_past_the_reference_add_nothing(self):
        arch = ParetoArchive(0.0, 1.0)
        for r, d in [(5.0, 2.0), (9.0, 3.0), (3.0, 1.0)]:
            arch.insert(_entry(r, d))
        assert len(arch) == 3
        assert arch.hypervolume() == 0.0


# objective values with ties, duplicates and a signed zero among them
_objective_values = st.one_of(
    st.integers(0, 4).map(float),
    st.sampled_from([-0.0, 0.5, 1e-300]),
    st.floats(0.0, 1e6),
)

# bound on |kept area - full pass| over the area of the box from the
# reference point to the largest revenue and the least damage. Measured:
# at most 5.5e-16 over 60,000 generated archives of up to 60 entries, and
# 1.2e-15 on the final archives of `evolve` on the bundled model (438
# entries) and on the T = 1 embedding at population 400 (7,633 entries).
# A wrong update is off by a whole rectangle of the staircase.
HV_REL_BOUND = 2e-14


def _hv_bound(entries, ref_revenue, ref_damage):
    """HV_REL_BOUND of the box, plus one math.ulp(0.0) per area term. Below
    the normal range a product's rounding error is absolute, up to half of
    math.ulp(0.0), where the box's relative bound underflows to 0. The
    kept area takes one term per evicted row and one per insert, at most
    two per entry, and the full pass one per row: at most three per entry
    in all."""
    top = max([e.revenue for e in entries], default=ref_revenue)
    least = min([e.damage for e in entries], default=ref_damage)
    box = (top - ref_revenue) * max(0.0, ref_damage - least)
    return HV_REL_BOUND * box + math.ulp(0.0) * 3 * len(entries)


class TestOneListArchive:
    @given(
        pairs=st.lists(st.tuples(_objective_values, _objective_values), max_size=60),
        ref_damage=_objective_values,
    )
    # a subnormal reference damage: the kept area is 3 * 5e-324 = 1.5e-323
    # and the full pass rounds 1.5 * 5e-324 to 1e-323, one subnormal ulp
    # apart, while the box's relative bound underflows to 0
    @example(pairs=[(2.0, 0.0), (3.0, 0.0), (0.5, 0.0)], ref_damage=5e-324)
    @settings(max_examples=300)
    def test_matches_brute_force_and_three_lists(self, pairs, ref_damage):
        entries = [_entry(r, d) for r, d in pairs]
        # brute force: each pair no other pair dominates, first of equal ones
        kept = {}
        for e in entries:
            key = (e.revenue, e.damage)
            if key not in kept and not any(dominates(p, e) for p in entries):
                kept[key] = e
        expected = sorted(kept.values(), key=lambda e: e.damage)
        # a reference revenue no better than any entry's
        ref_revenue = min([r for r, _ in pairs], default=0.0)
        for ref in (ref_damage, 1e6, 0.0):
            arch, reference = ParetoArchive(ref_revenue, ref), ThreeListArchive()
            areas = [0.0]
            for e in entries:
                # the same admissions, hence the same evictions
                assert arch.insert(e) == reference.insert(e)
                areas.append(arch.hypervolume())
            assert [id(e) for e in arch.entries] == [
                id(e) for e in reference.entries
            ]
            assert [id(e) for e in arch.entries] == [id(e) for e in expected]
            assert len(arch) == len(expected)
            # the kept area only grows, and stays within rounding of the
            # full pass, which the three-list archive's area equals
            assert areas == sorted(areas)
            full = full_pass_hypervolume(arch.entries, ref_revenue, ref)
            assert full == reference.hypervolume(ref_revenue, ref)
            assert abs(arch.hypervolume() - full) <= _hv_bound(
                entries, ref_revenue, ref
            )

    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_evolve_keeps_the_full_pass_area(self, model, r):
        discounted = replace(model, r=r)
        result = evolve(discounted, EaConfig(20, 10, 3))
        entries = result.archive.entries
        ref_revenue, ref_damage = reference_point(discounted)
        full = full_pass_hypervolume(entries, ref_revenue, ref_damage)
        assert abs(result.hv_history[-1] - full) <= _hv_bound(
            entries, ref_revenue, ref_damage
        )


class TestSlottedValueTypes:
    @staticmethod
    def _values():
        strat = LeaderStrategy(tau=(1.0, 2.0))
        resp = BestResponse(q=(3.0, 0.0), a=2, profit=6.0, optimality_tag=True,
                            kkt_residual=0.5)
        return [
            strat,
            resp,
            ArchiveEntry(damage=5.0, revenue=4.0, strategy=strat, response=resp),
        ]

    def test_no_instance_dict(self):
        for v in self._values():
            assert not hasattr(v, "__dict__"), type(v).__name__

    def test_frozen(self):
        for v in self._values():
            with pytest.raises(AttributeError):
                setattr(v, v._fields[0], None)

    def test_replace_equality_and_hash(self):
        for v, twin in zip(self._values(), self._values()):
            assert v == twin and v is not twin
            fields = tuple(getattr(v, name) for name in v._fields)
            # hashed as its field tuple
            assert hash(v) == hash(twin) == hash(fields)
            assert replace(v) == v
            first = v._fields[0]
            other = replace(v, **{first: getattr(v, first) * 2})
            assert other != v
            assert getattr(other, first) == getattr(v, first) * 2


class TestNondominatedSort:
    def test_layered_fronts(self):
        pts = [
            _entry(10.0, 1.0),  # front 0
            _entry(5.0, 0.5),   # front 0
            _entry(9.0, 2.0),   # dominated by pts[0]
            _entry(4.0, 3.0),   # dominated twice over
        ]
        fronts = nondominated_sort(pts)
        assert sorted(fronts[0]) == [0, 1]
        assert fronts[1] == [2]
        assert fronts[2] == [3]

    def test_all_nondominated(self):
        pts = [_entry(float(i), float(i)) for i in range(5)]
        fronts = nondominated_sort(pts)
        assert len(fronts) == 1
        assert sorted(fronts[0]) == list(range(5))

    def test_second_front_in_index_order(self):
        # F1 = [2, 3]; point 0 is dominated only by 3, point 1 only by 2,
        # so Deb's queue emits 1 before 0, and the sort lists 0 first
        pts = _points([(9, 11), (0.5, 2), (1, 1), (10, 10)])
        assert nondominated_sort(pts) == [[2, 3], [0, 1]]
        assert deb_nondominated_sort(pts) == [[2, 3], [1, 0]]

    def test_signed_zeros_and_duplicates(self):
        # -0.0 == 0.0, so the float sorts tie them as one tuple sort did;
        # the three copies of (3, 0) and of (0, 1) each share a front
        pts = _points([
            (0.0, 1.0), (-0.0, 1.0), (3.0, -0.0), (3.0, 0.0),
            (0.0, 1.0), (3.0, -0.0), (-0.0, -0.0), (0.0, 0.0),
        ])
        expected = [[2, 3, 5], [6, 7], [0, 1, 4]]
        assert deb_fronts_in_index_order(pts) == expected
        assert nondominated_sort(pts) == expected

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=40))
    @settings(max_examples=300)
    def test_matches_reference_on_integer_grids(self, pairs):
        # small grids: ties in either objective and duplicate points
        pts = _points(pairs)
        assert nondominated_sort(pts) == deb_fronts_in_index_order(pts)

    @given(
        st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), max_size=60
        )
    )
    @settings(max_examples=200)
    def test_matches_reference_on_floats(self, pairs):
        pts = _points(pairs)
        assert nondominated_sort(pts) == deb_fronts_in_index_order(pts)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2))
    def test_matches_reference_on_tiny_inputs(self, pairs):
        pts = _points(pairs)
        assert nondominated_sort(pts) == deb_fronts_in_index_order(pts)

    @given(st.permutations(range(30)))
    @settings(max_examples=50)
    def test_chain_gives_one_front_per_point(self, perm):
        # point i has revenue -i and damage i: each dominates all later ones
        pts = _points([(-i, i) for i in perm])
        fronts = nondominated_sort(pts)
        assert fronts == deb_nondominated_sort(pts)
        assert fronts == [[perm.index(i)] for i in range(30)]


class TestSortInEvolve:
    """The sort's front order picks survivors and tournament entrants, so
    the reference sort, its fronts in index order, must reproduce a seeded
    run exactly."""

    def _same_run(self, model, cfg, monkeypatch):
        fast = evolve(model, cfg)
        monkeypatch.setattr(
            bilevel, "nondominated_sort", deb_fronts_in_index_order
        )
        slow = evolve(model, cfg)
        assert slow.archive.entries == fast.archive.entries
        assert slow.hv_history == fast.hv_history

    def test_analytical_embedding(self, params, monkeypatch):
        cfg = EaConfig(population_size=100, max_generations=5, seed=4)
        self._same_run(analytical_as_extended(params), cfg, monkeypatch)

    def test_bundled_model(self, model, monkeypatch):
        assert model.r == 0.0
        cfg = EaConfig(population_size=20, max_generations=5, seed=6)
        self._same_run(model, cfg, monkeypatch)

    def test_one_sort_per_generation(self, model, monkeypatch):
        calls = []
        sort = bilevel.nondominated_sort

        def counted(points):
            calls.append(len(points))
            return sort(points)

        monkeypatch.setattr(bilevel, "nondominated_sort", counted)
        cfg = EaConfig(population_size=8, max_generations=5, seed=6)
        assert evolve(model, cfg).generations_run == 5
        # the initial population, then each merged population
        assert calls == [8] + [16] * 5


class TestSelect:
    @given(st.data())
    @settings(max_examples=300)
    def test_whole_fronts_then_most_crowded(self, data):
        # small grids: ties in either objective and duplicate points
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=40,
            )
        )
        n = data.draw(st.integers(1, len(pairs)))
        merged = pts = _points(pairs)
        survivors, rank, crowd = bilevel._select(merged, n)
        assert len(survivors) == len(rank) == len(crowd) == n
        assert rank == sorted(rank)
        index = {id(e): i for i, e in enumerate(merged)}
        kept = [index[id(e)] for e in survivors]
        fronts = deb_fronts_in_index_order(pts)
        for i, r, c in zip(kept, rank, crowd):
            assert i in fronts[r]
            assert c == lambda_crowding_distance(fronts[r], pts)[i]
        last = rank[-1]
        for front in fronts[:last]:
            assert set(front) <= set(kept)
        front = fronts[last]
        cd = lambda_crowding_distance(front, pts)
        most_crowded = sorted(front, key=lambda i: (-cd[i], i))
        assert sorted(kept[rank.index(last):]) == sorted(
            most_crowded[: rank.count(last)]
        )

    @given(st.data())
    @settings(max_examples=300)
    def test_same_order_as_negated_key(self, data):
        # small grids: tied and infinite crowding distances
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=40,
            )
        )
        n = data.draw(st.integers(1, len(pairs)))
        merged = _points(pairs)
        survivors, rank, crowd = bilevel._select(merged, n)
        ref_survivors, ref_rank, ref_crowd = negated_key_select(merged, n)
        assert [id(e) for e in survivors] == [id(e) for e in ref_survivors]
        assert rank == ref_rank
        assert crowd == ref_crowd


class TestCrowdingDistance:
    @given(st.data())
    @settings(max_examples=300)
    def test_matches_reference_on_integer_grids(self, data):
        # small grids: tied values, duplicate points and equal extremes
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=30)
        )
        pts = _points(pairs)
        front = data.draw(st.permutations(range(len(pts))))
        front = front[: data.draw(st.integers(0, len(front)))]
        got = crowding_distance(front, pts)
        assert list(got.items()) == list(lambda_crowding_distance(front, pts).items())

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([0.0, -2.5, 7.0]), st.floats(-1e6, 1e6)),
                st.one_of(st.sampled_from([0.0, 1e-300, 3.0]), st.floats(-1e6, 1e6)),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200)
    def test_matches_reference_on_floats(self, pairs):
        pts = _points(pairs)
        front = list(range(len(pts)))[::-1]
        got = crowding_distance(front, pts)
        assert list(got.items()) == list(lambda_crowding_distance(front, pts).items())

    def test_evolve_unchanged_with_reference(self, params, monkeypatch):
        model = analytical_as_extended(params)
        cfg = EaConfig(population_size=100, max_generations=5, seed=4)
        fast = evolve(model, cfg)
        monkeypatch.setattr(bilevel, "crowding_distance", lambda_crowding_distance)
        slow = evolve(model, cfg)
        assert slow.archive.entries == fast.archive.entries
        assert slow.hv_history == fast.hv_history

    def test_extremes_infinite(self):
        pts = [_entry(float(i), float(i)) for i in range(4)]
        cd = crowding_distance([0, 1, 2, 3], pts)
        assert cd[0] == float("inf")
        assert cd[3] == float("inf")
        assert cd[1] == pytest.approx(4.0 / 3.0)

    def test_tiny_front(self):
        pts = [_entry(1.0, 1.0), _entry(2.0, 2.0)]
        cd = crowding_distance([0, 1], pts)
        assert all(v == float("inf") for v in cd.values())


class TestEaConfig:
    def test_odd_population_rejected(self):
        with pytest.raises(ValueError):
            EaConfig(population_size=7, max_generations=100, seed=0)

    def test_tiny_population_rejected(self):
        with pytest.raises(ValueError):
            EaConfig(population_size=2, max_generations=100, seed=0)

    def test_negative_seed_rejected(self):
        # random.Random(-1) would silently run seed 1
        with pytest.raises(ValueError, match="seed"):
            EaConfig(population_size=40, max_generations=100, seed=-1)

    def test_negative_generations_rejected(self):
        with pytest.raises(ValueError, match="generations"):
            EaConfig(population_size=40, max_generations=-1, seed=0)


class TestEvolve:
    def test_degenerate_bounds_give_single_point(self, model):
        fixed = ExtendedModel(
            T=model.T, alpha=model.alpha, beta=model.beta,
            techs=model.techs, strata=model.strata,
            tau_bounds=tuple((10.0, 10.0) for _ in range(model.T)),
        )
        # the degenerate box keeps SBX and mutation from moving a gene
        cfg = EaConfig(population_size=4, max_generations=3, seed=1)
        arch = evolve(fixed, cfg).archive
        assert len(arch) == 1
        strat = LeaderStrategy(tau=(10.0,) * model.T)
        br = best_response(strat, fixed)
        revenue, damage = leader_objectives(br, strat, fixed)
        got = arch.entries[0]
        assert got.revenue == pytest.approx(revenue)
        assert got.damage == pytest.approx(damage)

    @given(
        data=st.data(),
        r=st.sampled_from([0.0, 0.05]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_strategies_are_checked_taxes_inside_the_box(self, model, data, r, seed):
        # narrow boxes, and degenerate ones (lo == hi), so that SBX and
        # mutation clip genes onto the edges
        lows = data.draw(st.lists(st.floats(0.0, 80.0), min_size=5, max_size=5))
        widths = data.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 2.0)), min_size=5, max_size=5
        ))
        boxed = replace(
            model, r=r, tau_bounds=tuple((lo, lo + w) for lo, w in zip(lows, widths))
        )
        archive = evolve(boxed, EaConfig(8, 3, seed)).archive
        assert len(archive) > 0
        for e in archive.entries:
            assert type(e.strategy) is LeaderStrategy
            tau = e.strategy.tau
            assert type(tau) is tuple
            assert all(type(x) is float for x in tau)
            assert all(
                lo <= x <= hi for x, (lo, hi) in zip(tau, boxed.tau_bounds)
            )
            # LeaderStrategy's own check accepts it unchanged
            assert LeaderStrategy(tau=tau) == e.strategy

    def test_archive_entries_reevaluate_consistently(self, model):
        cfg = EaConfig(population_size=12, max_generations=8, seed=3)
        arch = evolve(model, cfg).archive
        assert len(arch) > 0
        for e in arch.entries[::5]:
            br = best_response(e.strategy, model)
            assert br.profit == pytest.approx(
                e.response.profit, rel=1e-9, abs=1e-6
            )
            revenue, damage = leader_objectives(e.response, e.strategy, model)
            assert revenue == pytest.approx(e.revenue)
            assert damage == pytest.approx(e.damage)

    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_evaluate_takes_the_profit_from_the_solve(self, model, r):
        discounted = replace(model, r=r)
        strats = random_strategies(model, 20, seed=31)
        entries = bilevel._solve([s.tau for s in strats], discounted)
        assert len(entries) == len(strats)
        for strat, entry in zip(strats, entries):
            br = best_response(strat, discounted)
            # the solve's answer, profit and tag included
            assert entry.response == br
            # revenue and damage to the bit
            assert (entry.revenue, entry.damage) == (
                leader_objectives(br, strat, discounted)
            )

    @pytest.mark.parametrize("r", [0.0, 0.05])
    @pytest.mark.parametrize("embedded", [False, True])
    def test_evaluate_builds_the_records_make_builds(self, model, params, r,
                                                     embedded):
        instance = analytical_as_extended(params) if embedded else model
        instance = replace(instance, r=r)
        strats = random_strategies(instance, 20, seed=37)
        # tuples of floats, as `evolve` breeds them
        entries = bilevel._solve([tuple(s.tau) for s in strats], instance)
        for strat, entry in zip(strats, entries, strict=True):
            made_strat = LeaderStrategy._make((tuple(strat.tau),))
            br = best_response(made_strat, instance)
            revenue, damage = leader_objectives(br, made_strat, instance)
            made = ArchiveEntry._make((damage, revenue, made_strat, br))
            assert type(entry) is ArchiveEntry
            assert type(entry.strategy) is LeaderStrategy
            assert type(entry.response) is BestResponse
            assert entry == made
            # repr tells -0.0 from 0.0, and shows every float to the bit
            assert repr(entry) == repr(made)

    def test_archive_mutually_nondominated(self, model):
        cfg = EaConfig(population_size=12, max_generations=8, seed=5)
        entries = evolve(model, cfg).archive.entries
        for a, b in zip(entries, entries[1:]):
            assert b.damage > a.damage
            assert b.revenue > a.revenue

    def test_hv_history_nondecreasing(self, model):
        cfg = EaConfig(population_size=12, max_generations=10, seed=7)
        result = evolve(model, cfg)
        assert result.generations_run >= 1
        assert len(result.hv_history) == result.generations_run + 1
        for a, b in zip(result.hv_history, result.hv_history[1:]):
            assert b >= a - 1e-12

    def test_seed_reproducibility(self, model):
        cfg = EaConfig(population_size=8, max_generations=5, seed=21)
        a = evolve(model, cfg).archive
        b = evolve(model, cfg).archive
        assert [e.strategy.tau for e in a.entries] == [
            e.strategy.tau for e in b.entries
        ]
        assert a.entries == b.entries

    def test_tech_filter_pins_technology(self, model):
        cfg = EaConfig(population_size=8, max_generations=5, seed=9)
        single = replace(model, techs=(model.tech(2),))
        arch = evolve(single, cfg).archive
        assert len(arch) > 0
        assert all(e.response.a == 2 for e in arch.entries)

    def test_no_failed_evaluations_in_deterministic_mode(self, model):
        cfg = EaConfig(population_size=8, max_generations=5, seed=11)
        assert evolve(model, cfg).failed_evaluations == 0

    def test_zero_generations_runs_initial_population(self, model):
        cfg = EaConfig(population_size=8, max_generations=0, seed=11)
        result = evolve(model, cfg)
        assert result.generations_run == 0
        assert len(result.hv_history) == 1
        assert len(result.archive) > 0
        assert result.termination_reason == "max_generations"

    def test_stops_on_hypervolume_stall(self, model, monkeypatch):
        # no gain can reach this tolerance
        monkeypatch.setattr(bilevel, "HV_STALL_TOL", 1e30)
        monkeypatch.setattr(bilevel, "HV_STALL_GENERATIONS", 2)
        cfg = EaConfig(population_size=8, max_generations=10, seed=11)
        result = evolve(model, cfg)
        # the hypervolume after the initial population and 2 generations
        assert len(result.hv_history) == 3
        assert result.termination_reason == "hv_stall"

    def test_zero_damage_does_not_stall(self, params):
        # with k = 0 the reference damage, and so every hypervolume, is 0
        model = analytical_as_extended(replace(params, k=0.0))
        cfg = EaConfig(population_size=24, max_generations=40, seed=1)
        result = evolve(model, cfg)
        assert set(result.hv_history) == {0.0}
        assert result.termination_reason == "max_generations"
        assert result.generations_run == 40


class TestVerbatimCopies:
    """A child that is its own parent's tax vector bit for bit is that
    parent's entry again: no follower solve and no archive insert."""

    CFG = EaConfig(population_size=8, max_generations=5, seed=0)

    def _run(self, model, monkeypatch, follower=best_response):
        """`evolve` with its follower solves counted and each child paired
        with its own parent: the result, the solves and the children that
        copy their parent bit for bit."""
        solves, parents, children = [], [], []

        def counted(strat, m):
            solves.append(strat)
            return follower(strat, m)

        def crossed(p1, p2, *args):
            parents.extend((p1, p2))
            return sbx_crossover(p1, p2, *args)

        def mutated(x, *args):
            children.append(polynomial_mutation(x, *args))
            return children[-1]

        monkeypatch.setattr(bilevel, "best_response", counted)
        monkeypatch.setattr(bilevel, "sbx_crossover", crossed)
        monkeypatch.setattr(bilevel, "polynomial_mutation", mutated)
        result = evolve(model, self.CFG)
        # float.hex tells -0.0 from 0.0
        copies = sum(
            list(map(float.hex, c)) == list(map(float.hex, p))
            for p, c in zip(parents, children)
        )
        return result, len(solves), copies

    def test_a_copy_is_not_solved(self, model, monkeypatch):
        discounted = replace(model, r=0.05)
        _, solves, copies = self._run(discounted, monkeypatch)
        assert copies > 0
        assert solves + copies == 8 * 6

    def test_same_run_without_the_reuse(self, model, monkeypatch):
        discounted = replace(model, r=0.05)
        reused, _, _ = self._run(discounted, monkeypatch)
        monkeypatch.setattr(bilevel, "_same_floats", lambda x, y: False)
        solved, solves, _ = self._run(discounted, monkeypatch)
        assert solves == 8 * 6
        assert reused.hv_history == solved.hv_history
        assert reused.archive.entries == solved.archive.entries
        assert reused.failed_evaluations == solved.failed_evaluations == 0

    def test_an_untagged_copy_counts_as_failed(self, model, monkeypatch):
        def untagged(strat, m):
            return BestResponse(
                q=(0.0,) * m.T, a=m.techs[0].tech_id, profit=0.0,
                optimality_tag=False,
            )

        result, _, copies = self._run(
            replace(model, r=0.05), monkeypatch, follower=untagged
        )
        assert copies > 0
        assert result.failed_evaluations == 8 * 6
        assert len(result.archive) == 0


def _hex_fields(entry):
    """Every field of an archive entry, each float as float.hex, which
    tells -0.0 from 0.0 and shows every bit."""
    response = entry.response
    residual = response.kkt_residual
    return (
        entry.damage.hex(), entry.revenue.hex(),
        tuple(map(float.hex, entry.strategy.tau)),
        tuple(map(float.hex, response.q)), response.a, response.profit.hex(),
        response.optimality_tag, residual if residual is None else residual.hex(),
    )


def _same_run(phased, interleaved):
    """The two results are one run: every archive entry field, the
    hypervolume history, the failed count and the stop reason, to the bit."""
    assert [_hex_fields(e) for e in phased.archive.entries] == [
        _hex_fields(e) for e in interleaved.archive.entries
    ]
    assert list(map(float.hex, phased.hv_history)) == list(
        map(float.hex, interleaved.hv_history)
    )
    assert phased.failed_evaluations == interleaved.failed_evaluations
    assert phased.termination_reason == interleaved.termination_reason


@st.composite
def _evolve_runs(draw):
    """(model, config, stall window): tables of 1-3 convex technologies
    over 1-4 periods, drawn at random or from the bundled table's first
    periods, at r = 0, 0.05 or 1e4 (where the follower leaves a few of the
    bundled table's answers untagged), with zero-width tax bounds in some
    periods (in all of them, every child is a verbatim copy of its
    parent), population 4-16 and 0-6 generations; a stall window of 2
    lets the stall stop fire within them."""
    T = draw(st.integers(1, 4))
    n_techs = draw(st.integers(1, 3))
    if draw(st.booleans()):
        bundled = default_config().extended
        alpha, beta, strata = bundled.alpha[:T], bundled.beta[:T], bundled.strata
        techs = tuple(draw(st.permutations(bundled.techs))[:n_techs])
    else:
        M = draw(st.integers(1, 3))
        alpha = tuple(draw(st.floats(1.0, 100.0)) for _ in range(T))
        beta = tuple(draw(st.floats(0.05, 5.0)) for _ in range(T))
        strata = StrataTable(amounts=tuple(
            draw(st.floats(0.5, 50.0)) for _ in range(M)
        ))
        techs = tuple(
            TechParams(
                tech_id=i + 1, k=draw(st.floats(0.0, 10.0)),
                alpha_er=draw(st.floats(0.0, 2.0)),
                beta_er=draw(st.floats(0.0, 10.0)),
                gamma_er=draw(st.floats(0.0, 10.0)),
                slopes=tuple(itertools.accumulate(
                    draw(st.floats(0.0, 10.0)) for _ in range(M)
                )),
            )
            for i in range(n_techs)
        )
    all_pinned = draw(st.integers(0, 4)) == 0
    tau_bounds = []
    for a in alpha:
        lo = draw(st.floats(0.0, a))
        pinned = all_pinned or draw(st.integers(0, 2)) == 0
        tau_bounds.append((lo, lo if pinned else draw(st.floats(lo, a))))
    model = ExtendedModel(
        T=T, alpha=alpha, beta=beta, techs=techs, strata=strata,
        r=draw(st.sampled_from([0.0, 0.05, 1e4])), tau_bounds=tau_bounds,
    )
    config = EaConfig(
        population_size=2 * draw(st.integers(2, 8)),
        max_generations=draw(st.integers(0, 6)),
        seed=draw(st.integers(0, 2**16)),
    )
    return model, config, draw(st.sampled_from([bilevel.HV_STALL_GENERATIONS, 2]))


def _untagged_copies_run():
    """A run in which children copy untagged parents: the bundled table's
    first four periods at r = 1e4 with technology 1 alone and period 1's
    tax pinned at alpha_1 / 2; 2 of its 6 failed evaluations are copies."""
    bundled = default_config().extended
    T = 4
    tau_bounds = [(bundled.alpha[0] / 2,) * 2] + [(0.0, a) for a in bundled.alpha[1:T]]
    model = ExtendedModel(
        T=T, alpha=bundled.alpha[:T], beta=bundled.beta[:T],
        techs=bundled.techs[:1], strata=bundled.strata, r=1e4,
        tau_bounds=tau_bounds,
    )
    return model, EaConfig(16, 6, 5), bilevel.HV_STALL_GENERATIONS


class TestPhasedGenerations:
    """`evolve` breeds a whole generation, then solves it, then archives
    it. The follower draws no random numbers, so the run must be the one
    that solves and archives each child as it is drawn, to the bit."""

    @given(run=_evolve_runs())
    @example(run=_untagged_copies_run())
    @settings(max_examples=250, deadline=None)
    def test_matches_the_interleaved_run(self, run):
        model, config, window = run
        with mock.patch.object(bilevel, "HV_STALL_GENERATIONS", window):
            _same_run(evolve(model, config), interleaved_evolve(model, config))

    def test_matches_at_the_cli_defaults(self, model):
        config = EaConfig(population_size=40, max_generations=100, seed=0)
        _same_run(evolve(model, config), interleaved_evolve(model, config))

    def test_solves_after_all_draws_and_archives_after_all_solves(
        self, model, monkeypatch
    ):
        # the order of calls within one generation: every variation draw,
        # then every solve, then every archive insert
        events = []

        def logged(name, fn):
            def call(*args):
                events.append(name)
                return fn(*args)
            return call

        monkeypatch.setattr(
            bilevel, "sbx_crossover", logged("breed", sbx_crossover)
        )
        monkeypatch.setattr(
            bilevel, "polynomial_mutation", logged("breed", polynomial_mutation)
        )
        monkeypatch.setattr(
            bilevel, "best_response", logged("solve", best_response)
        )
        monkeypatch.setattr(
            bilevel.ParetoArchive, "insert",
            logged("archive", bilevel.ParetoArchive.insert),
        )
        evolve(model, EaConfig(population_size=8, max_generations=2, seed=5))
        phases = [name for name, _ in itertools.groupby(events)]
        assert phases == ["solve", "archive"] + ["breed", "solve", "archive"] * 2


class TestFrontierComposition:
    """T = 1, two technologies, each the follower's choice on a tax range.

    Profit is (94 - tau) q - 2 q^2 with technology 1 and (79 - tau) q -
    1.2 q^2 with technology 2, so the follower switches from 2 to 1 at
    tau* = 27.4526. The only nondominated technology-2 outcome under free
    choice is the switch point (revenue 589.6, damage 42.96); the
    technology-2 frontier proper (tau >= 39.5) is never played.
    """

    SWITCH_TAU = 27.4526

    @pytest.fixture(scope="class")
    def two_tech(self):
        techs = (
            TechParams(tech_id=1, k=1.0, alpha_er=1.0, beta_er=5.0,
                       gamma_er=0.0, slopes=(1.0,)),
            TechParams(tech_id=2, k=2.0, alpha_er=0.2, beta_er=20.0,
                       gamma_er=0.0, slopes=(1.0,)),
        )
        model = ExtendedModel(
            T=1, alpha=(100.0,), beta=(1.0,), techs=techs,
            strata=StrataTable(amounts=(200.0,)),
        )
        # Seeds 0-29 at this budget: both epsilons <= 1.9e-3. In 26 of 30
        # the free-choice run holds the switch point; the other four never
        # sample the window 23.9 < tau <= 27.45 (3.5% of the tax box) where
        # a technology-2 outcome is nondominated.
        cfg = EaConfig(population_size=30, max_generations=40, seed=2)
        tech_frontiers = {
            t.tech_id: evolve(
                replace(model, techs=(t,)), cfg
            ).archive.entries
            for t in techs
        }
        return model, tech_frontiers, evolve(model, cfg).archive.entries

    def test_both_inclusions_hold(self, two_tech):
        model, tech_frontiers, full = two_tech
        comp = frontier_composition(model, tech_frontiers, full, tol=5e-3)
        assert comp.eps_lower <= 5e-3
        assert comp.eps_upper <= 5e-3
        # the unplayed technology-2 frontier keeps the old union equality
        # from holding on this instance
        assert comp.eps_union > 0.1

    def test_free_choice_uses_both_technologies(self, two_tech):
        _, _, full = two_tech
        assert {e.response.a for e in full} == {1, 2}
        for e in full:
            assert (e.response.a == 2) == (e.strategy.tau[0] < self.SWITCH_TAU)


class TestReferencePoint:
    def test_worst_case_corner(self, model):
        ref_r, ref_d = reference_point(model)
        assert ref_r == 0.0
        k_max = max(t.k for t in model.techs)
        total = sum(hi for _, hi in model.q_bounds)
        assert ref_d == pytest.approx(k_max * total)

    def test_filtered_uses_single_tech(self, model):
        single = replace(model, techs=(model.tech(1),))
        _, ref_d = reference_point(single)
        total = sum(hi for _, hi in model.q_bounds)
        assert ref_d == pytest.approx(model.tech(1).k * total)


class TestDetectStrataKinks:
    def test_synthetic_slope_break(self):
        # piecewise-linear frontier: slope 10 up to damage 5, slope 2 after;
        # total extraction crosses the boundary 20 exactly at the break
        entries = []
        for i in range(11):
            d = 0.5 * i
            entries.append(_synthetic(d, 10.0 * d, 4.0 * d))
        for i in range(1, 11):
            d = 5.0 + 0.5 * i
            entries.append(_synthetic(d, 50.0 + 2.0 * (d - 5.0), 20.0 + 4.0 * (d - 5.0)))
        assert detect_strata_kinks(entries, [20.0, 1000.0]) == [20.0]

    def test_smooth_frontier_clean(self):
        entries = [_synthetic(0.5 * i, 5.0 * i, 2.0 * i) for i in range(20)]
        assert detect_strata_kinks(entries, [10.0]) == []

    def test_too_few_points(self):
        entries = [_synthetic(0.0, 0.0, 0.0), _synthetic(1.0, 1.0, 5.0)]
        assert detect_strata_kinks(entries, [2.0]) == []


def _synthetic(damage, revenue, total_extraction):
    return ArchiveEntry(
        damage=damage,
        revenue=revenue,
        strategy=LeaderStrategy(tau=(0.0,)),
        response=BestResponse(
            q=(total_extraction,), a=1, profit=0.0, optimality_tag=True
        ),
    )
