"""The constructive procedure, step by step and end to end."""

import copy
from fractions import Fraction
from pathlib import Path

import pytest

from compauction import attainability, synthesis
from compauction.attainability import check_attainable, optimal_ratio
from compauction.auctions import competitive_ratio, expected_revenue
from compauction.benchmarks import BenchmarkTable, builtin_table
from compauction.grid import BidGrid, DomainTooLargeError, enumerate_upsets
from compauction.synthesis import (
    IterationLimitError,
    NotAttainableError,
    RevenueTables,
    StepEvent,
    SynthesisInvariantError,
    TraceRecorder,
    check_invariants,
    eq_slack,
    rate_shares,
    slack_shares,
    synthesize,
    verify_ls2,
    x_to_z,
)
from tests.conftest import (
    random_monotone_table,
    random_symmetric_monotone_table,
    small_grids,
    two_tier_table,
)

G22 = BidGrid(Fraction(1), 2, 2)
DATA = Path(__file__).parent / "data"

H = Fraction(1, 2)


def members(state, mask):
    """The points a chain mask holds."""
    return frozenset(p for k, p in enumerate(state.points) if mask >> k & 1)


def mask_of(state, upset):
    """An upset as a mask over ``state.points``."""
    return sum(1 << state.index[p] for p in upset.points)


def summed(state, shares, upset):
    """An upset's total of per-point ``shares`` in ``state.points`` order."""
    return sum((shares[state.index[p]] for p in upset.points), Fraction(0))


def exact_rates(state, d):
    """``rate_shares`` of a direction by point, as exact values."""
    shares = rate_shares(state, d.i, d.cut)
    return {state.points[k]: Fraction(r, state.scale) for k, r in shares.items()}


class Snapshots:
    """Observer keeping a deep copy of the state after every step."""

    def __init__(self):
        self.f = []
        self.g = []
        self.x = []
        self.chains = []
        self.directions = []
        self.outcomes = []
        self.total = None

    def _keep(self, state):
        exact = state.exact
        self.f.append({p: exact(v) for p, v in state.f.items()})
        self.g.append([{o: exact(v) for o, v in t.items()} for t in state.g])
        self.x.append(
            [{o: [exact(v) for v in row] for o, row in t.items()} for t in state.x])
        self.chains.append([members(state, s) for s in state.chain])

    def initial(self, state):
        self._keep(state)

    def step(self, number, state, direction, outcome):
        self._keep(state)
        self.directions.append(direction)
        self.outcomes.append(outcome)

    def finished(self, steps):
        self.total = steps


def up(*points):
    return frozenset(points)


def test_two_tier_walkthrough_matches_the_published_tables():
    """Every intermediate f/g/x table of the 2x2 walkthrough, exactly."""
    snap = Snapshots()
    revenue = synthesize(two_tier_table(), Fraction(1), observer=snap,
                         validate_steps=True)
    assert snap.total == 5

    # initial state
    assert snap.f[0] == {(0, 0): Fraction(3, 2), (0, 1): Fraction(3, 2),
                         (1, 0): Fraction(3, 2), (1, 1): Fraction(7, 2)}
    assert snap.g[0][0] == {(0,): 1, (1,): 1}
    assert snap.g[0][1] == {(0,): 1, (1,): 1}
    assert snap.chains[0] == [frozenset(G22.points()), frozenset()]

    # step 1: push along coordinate 1 from the bottom of both columns
    d, o = snap.directions[0], snap.outcomes[0]
    assert (d.i, d.members, d.cut) == (0, [(0,), (1,)], {(0,): 0, (1,): 0})
    assert o.eps == H
    assert o.handled is StepEvent.NEW_TIGHT
    assert {s.points for s in o.new_tight} == {
        up((1, 0), (1, 1)),
        up((1, 1)),
    }
    assert snap.f[1] == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 3}
    assert snap.g[1][0] == {(0,): H, (1,): H}
    assert snap.g[1][1] == {(0,): 1, (1,): 1}
    assert snap.x[1][0] == {(0,): [H, H], (1,): [H, H]}
    assert snap.x[1][1] == {(0,): [0, 0], (1,): [0, 0]}
    assert snap.chains[1] == [
        frozenset(G22.points()),
        up((1, 0), (1, 1)),
        up((1, 1)),
        frozenset(),
    ]

    # step 2: the first coordinate is exhausted, so the second must act
    d, o = snap.directions[1], snap.outcomes[1]
    assert (d.i, d.members, d.cut) == (1, [(0,)], {(0,): 0})
    assert o.eps == 1
    assert o.handled is StepEvent.F_ZERO
    assert o.f_hits == [(0, 0), (0, 1)]
    assert o.g_hits == [(0,)]
    assert snap.f[2] == {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 3}
    assert snap.g[2][1] == {(0,): 0, (1,): 1}
    assert snap.x[2][1] == {(0,): [1, 1], (1,): [0, 0]}
    assert snap.chains[2] == [up((1, 0), (1, 1)), up((1, 1)), frozenset()]

    # step 3: last positive value in the bottom row is pushed at its boundary
    d, o = snap.directions[2], snap.outcomes[2]
    assert (d.i, d.members, d.cut) == (0, [(0,)], {(0,): 1})
    assert o.eps == 1
    assert o.handled is StepEvent.F_ZERO
    assert o.f_hits == [(1, 0)]
    assert o.g_hits == [(0,)]
    assert snap.f[3] == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 3}
    assert snap.g[3][0] == {(0,): 0, (1,): H}
    assert snap.x[3][0] == {(0,): [H, Fraction(3, 2)], (1,): [H, H]}
    assert snap.chains[3] == [up((1, 1)), frozenset()]

    # step 4: only the budget binds
    d, o = snap.directions[3], snap.outcomes[3]
    assert (d.i, d.members, d.cut) == (0, [(1,)], {(1,): 1})
    assert o.eps == 1
    assert o.handled is StepEvent.G_ZERO
    assert o.f_hits == [] and o.g_hits == [(1,)]
    assert snap.f[4][(1, 1)] == 2
    assert snap.g[4][0] == {(0,): 0, (1,): 0}
    assert snap.x[4][0] == {(0,): [H, Fraction(3, 2)], (1,): [H, Fraction(3, 2)]}
    assert snap.chains[4] == [up((1, 1)), frozenset()]

    # step 5: the top corner drains through the second coordinate
    d, o = snap.directions[4], snap.outcomes[4]
    assert (d.i, d.members, d.cut) == (1, [(1,)], {(1,): 1})
    assert o.eps == 2
    assert o.handled is StepEvent.F_ZERO
    assert o.f_hits == [(1, 1)] and o.g_hits == [(1,)]
    assert all(v == 0 for v in snap.f[5].values())
    assert snap.chains[5] == [frozenset()]

    # final revenue tables
    assert revenue.x[0] == {(0,): [H, Fraction(3, 2)], (1,): [H, Fraction(3, 2)]}
    assert revenue.x[1] == {(0,): [1, 1], (1,): [0, 2]}
    assert verify_ls2(revenue, two_tier_table(), Fraction(1))


def test_two_tier_profile_and_ratio():
    revenue = synthesize(two_tier_table(), Fraction(1))
    profile = x_to_z(revenue)
    # first bidder: coin flip between the two prices, whatever the other bids
    assert profile.z[0] == {(0,): {0: H, 1: H}, (1,): {0: H, 1: H}}
    # second bidder: offered exactly the first bidder's bid
    assert profile.z[1] == {(0,): {0: Fraction(1)}, (1,): {1: Fraction(1)}}
    # the mechanism is asymmetric although the benchmark is symmetric
    assert profile.z[0] != profile.z[1]
    assert expected_revenue(profile, (1, 1)) == Fraction(7, 2)
    assert expected_revenue(profile, (0, 0)) == Fraction(3, 2)
    report = competitive_ratio(profile, two_tier_table())
    assert report.ratio == 1


def test_two_tier_trace_is_stable():
    recorder = TraceRecorder(G22, Fraction(1))
    synthesize(two_tier_table(), Fraction(1), observer=recorder)
    golden = (DATA / "two_tier_trace.txt").read_text(encoding="utf-8")
    assert recorder.text() == golden


def test_a_run_that_grows_its_unit_keeps_its_trace():
    """f2 on 2x2 at delta 5/2 and its optimum 59/49: the unit grows by an
    integer factor in the first step and again later, and the trace stays
    byte-identical to the pinned one."""
    grid, lam = BidGrid(Fraction(5, 2), 2, 2), Fraction(59, 49)
    units = []

    class UnitWatch(TraceRecorder):
        def initial(self, state):
            units.append(state.unit)
            super().initial(state)

        def step(self, number, state, direction, outcome):
            units.append(state.unit)
            super().step(number, state, direction, outcome)

    recorder = UnitWatch(grid, lam)
    synthesize(builtin_table(grid, "f2"), lam, observer=recorder)
    golden = (DATA / "f2_2x2_delta_5_2_trace.txt").read_text(encoding="utf-8")
    assert recorder.text() == golden
    assert all(b % a == 0 for a, b in zip(units, units[1:]))
    assert units[1] > units[0] and any(b > a for a, b in zip(units[1:], units[2:]))


@pytest.mark.parametrize("grid", small_grids(), ids=str)
def test_rate_shares_give_every_slack_change(grid, rng, monkeypatch):
    """Each step moves every upset's slack by eps times its summed rate shares."""
    apply_step = synthesis.apply_step
    moved = []

    def rate(rates, points):
        return sum((rates.get(p, 0) for p in points), Fraction(0))

    def checked_step(state, d, eps):
        rates = exact_rates(state, d)
        assert all(rate(rates, members(state, s)) == 0 for s in state.chain)
        before = slack_shares(state)
        apply_step(state, d, eps)
        after = slack_shares(state)
        for upset in enumerate_upsets(grid):
            assert summed(state, after, upset) == (
                summed(state, before, upset) - eps * rate(rates, upset.points)
            )
        moved.append(eps)

    monkeypatch.setattr(synthesis, "apply_step", checked_step)
    for _ in range(4):
        table = random_monotone_table(grid, rng, nonzero=True)
        lam = optimal_ratio(table).ratio
        for target in (lam, lam * Fraction(5, 4)):
            synthesize(table, target)
    assert any(moved)


def scan_step(state, d):
    """The step as the upset scan found it: every upset's slack over its rate.

    Returns eps, f_hits, g_hits, the handled event and the new tight sets in
    enumeration order.
    """
    grid, lam = state.grid, state.lam
    f = {p: state.exact(v) for p, v in state.f.items()}
    g = {o: state.exact(v) for o, v in state.g[d.i].items()}
    fibers = [(o, t) for o in d.members for t in range(d.cut[o], grid.num_levels)]
    bound_f = min(f[synthesis._insert_at(o, d.i, t)] / lam for o, t in fibers)
    bound_g = min(g[o] * grid.level_value(d.cut[o]) for o in d.members)
    rates, shares = exact_rates(state, d), slack_shares(state)
    binding = []
    for upset in enumerate_upsets(grid):
        rate = sum((rates.get(p, 0) for p in upset.points), Fraction(0))
        if rate > 0:
            slack = summed(state, shares, upset)
            binding.append((slack / rate, upset))
    eps = min([bound_f, bound_g] + [e for e, _ in binding])
    f_hits = sorted(synthesis._insert_at(o, d.i, t) for o, t in fibers
                    if f[synthesis._insert_at(o, d.i, t)] == lam * eps)
    g_hits = sorted(o for o in d.members
                    if g[o] * grid.level_value(d.cut[o]) == eps)
    handled = (StepEvent.F_ZERO if f_hits else
               StepEvent.G_ZERO if g_hits else StepEvent.NEW_TIGHT)
    return eps, f_hits, g_hits, handled, [u for e, u in binding if e == eps]


def scan_chain(state, new_tight):
    """The chain after a new-tight event, splicing in every listed set."""
    head, chain = state.chain[0], list(state.chain)
    for fresh in sorted(new_tight, key=lambda s: (len(s), sorted(s.points))):
        merged = (mask_of(state, fresh) & head) | chain[1]
        if merged not in (chain[1], head):
            chain.insert(1, merged)
    return chain


def synthesize_against_the_scan(tables, monkeypatch):
    """Synthesize each table at its optimum and at 5/4 of it, checking that
    every cut step finds what scanning every upset finds."""
    max_step, handle_event = synthesis.max_step, synthesis.handle_event
    scanned = {}

    def checked_step(state, d):
        outcome = max_step(state, d)
        eps, f_hits, g_hits, handled, new_tight = scan_step(state, d)
        assert (outcome.eps, outcome.f_hits, outcome.g_hits, outcome.handled) == (
            eps, f_hits, g_hits, handled)
        assert outcome.new_tight == new_tight
        scanned[id(outcome)] = new_tight
        return outcome

    def checked_event(state, outcome):
        expected = scan_chain(state, scanned.pop(id(outcome)))
        handle_event(state, outcome)
        if outcome.handled is StepEvent.NEW_TIGHT:
            assert state.chain == expected

    monkeypatch.setattr(synthesis, "max_step", checked_step)
    monkeypatch.setattr(synthesis, "handle_event", checked_event)
    for table in tables:
        lam = optimal_ratio(table).ratio
        for target in (lam, lam * Fraction(5, 4)):
            assert verify_ls2(synthesize(table, target), table, target)
    assert not scanned


@pytest.mark.parametrize("delta", [Fraction(1), Fraction(1, 3), Fraction(5, 2)], ids=str)
@pytest.mark.parametrize(
    "shape", [(g.num_levels, g.n) for g in small_grids()] + [(4, 2)], ids=str)
def test_cut_steps_match_the_upset_scan(shape, delta, rng, monkeypatch):
    grid = BidGrid(delta, *shape)
    tables = [builtin_table(grid, "f2"), builtin_table(grid, "maxv")]
    tables += [random_monotone_table(grid, rng, nonzero=True) for _ in range(2)]
    tables += [random_symmetric_monotone_table(grid, rng) for _ in range(3)]
    synthesize_against_the_scan(tables, monkeypatch)


def test_tight_sets_of_one_size_splice_in_key_order(monkeypatch):
    """Symmetric tables tie new tight sets in size, and which of two such
    sets is spliced in first changes the chain; on these two the order
    decides it at the optimum."""
    grid = BidGrid(Fraction(5, 2), 2, 3)
    tables = [
        BenchmarkTable(grid, {p: Fraction(by_tops[sum(p)]) for p in grid.points()})
        for by_tops in ((1, 1, 13, 20), (0, 5, 8, 18))
    ]
    synthesize_against_the_scan(tables, monkeypatch)


def test_tight_sets_that_cover_the_support_together_are_skipped():
    """Two tight sets of one event may together cover the whole support.

    After the first is spliced in, the second's union with ``S_1`` is the
    support, whose rate against the grown chain is 0, so it is skipped; here
    that happens at the optimum of a symmetric 2x3 table.
    """
    grid = BidGrid(Fraction(1, 3), 2, 3)
    by_tops = [Fraction(0), Fraction(1), Fraction(9, 4), Fraction(9, 4)]
    table = BenchmarkTable(grid, {p: by_tops[sum(p)] for p in grid.points()})
    lam = optimal_ratio(table).ratio
    assert lam == Fraction(87, 128)
    revenue = synthesize(table, lam, validate_steps=True)
    assert verify_ls2(revenue, table, lam)
    assert competitive_ratio(x_to_z(revenue), table).ratio == lam


def test_synthesis_checks_its_size_before_any_cut(monkeypatch):
    def no_cut(*args):
        raise AssertionError("a cut ran before the size check")

    monkeypatch.setattr(attainability, "max_closure", no_cut)
    monkeypatch.setattr(synthesis, "max_closure", no_cut)
    for levels, n in ((33, 2), (2, 11)):
        table = builtin_table(BidGrid(Fraction(1), levels, n), "f2")
        with pytest.raises(DomainTooLargeError, match="synthesis cap of 1024"):
            synthesize(table, Fraction(2))
    # a trace lists upsets, so it keeps the enumeration bound
    for levels, n in ((5, 2), (2, 5)):
        grid = BidGrid(Fraction(1), levels, n)
        with pytest.raises(DomainTooLargeError, match="trace cap of 16"):
            synthesize(builtin_table(grid, "f2"), Fraction(2),
                       observer=TraceRecorder(grid, Fraction(2)))


def test_zero_benchmark_synthesizes_to_zero():
    table = BenchmarkTable(G22, {p: Fraction(0) for p in G22.points()})
    snap = Snapshots()
    revenue = synthesize(table, Fraction(0), observer=snap)
    assert snap.total == 0
    assert all(v == 0 for rows in revenue.x for row in rows.values() for v in row)
    profile = x_to_z(revenue)
    assert all(not offers for rows in profile.z for offers in rows.values())


def test_not_attainable_raises():
    table = two_tier_table()
    with pytest.raises(NotAttainableError):
        synthesize(table, Fraction(63, 64))
    with pytest.raises(NotAttainableError):
        synthesize(table, Fraction(0))


def test_not_attainable_names_the_witness_of_check_attainable(rng):
    # the start cut of the kept slack finds the upset check_attainable finds
    for n in (1, 2, 3):
        for levels in (2, 3) if n < 3 else (2,):
            grid = BidGrid(Fraction(1), levels, n)
            for _ in range(4):
                table = random_monotone_table(grid, rng, nonzero=True)
                lam = optimal_ratio(table).ratio * Fraction(63, 64)
                size = len(check_attainable(table, lam).witness)
                with pytest.raises(NotAttainableError) as caught:
                    synthesize(table, lam)
                assert str(caught.value) == (
                    f"benchmark is not attainable at ratio {lam}; "
                    f"witness set of size {size}"
                )


def test_synthesis_builds_the_cover_graph_once(monkeypatch):
    built = []

    build = attainability.cover_graph

    def counted(grid):
        built.append(grid)
        return build(grid)

    monkeypatch.setattr(attainability, "cover_graph", counted)
    monkeypatch.setattr(synthesis, "cover_graph", counted)
    table = builtin_table(BidGrid(Fraction(1), 3, 2), "f2")
    lam = optimal_ratio(table).ratio
    built.clear()
    synthesize(table, lam)
    assert len(built) == 1
    with pytest.raises(NotAttainableError):
        synthesize(table, lam * Fraction(63, 64))
    assert len(built) == 2


def test_iteration_cap_trips():
    with pytest.raises(IterationLimitError):
        synthesize(two_tier_table(), Fraction(1), max_steps=1)


@pytest.mark.parametrize("grid", small_grids(), ids=str)
def test_random_benchmarks_synthesize_exactly(grid, rng):
    for _ in range(6):
        table = random_monotone_table(grid, rng, nonzero=True)
        lam = optimal_ratio(table).ratio
        revenue = synthesize(table, lam, validate_steps=True)
        assert verify_ls2(revenue, table, lam)
        # the construction drains f completely: revenue covers f with equality
        for p in grid.points():
            assert lam * revenue.revenue_at(p) == table[p]
        report = competitive_ratio(x_to_z(revenue), table)
        assert report.ratio == lam
        assert report.argmax is not None and table[report.argmax] > 0


def test_synthesis_above_the_optimal_ratio(rng):
    # a slack target also synthesizes; the support is not tight initially
    grid = BidGrid(Fraction(1), 3, 2)
    table = random_monotone_table(grid, rng, nonzero=True)
    lam = optimal_ratio(table).ratio + 1
    revenue = synthesize(table, lam, validate_steps=True)
    assert verify_ls2(revenue, table, lam)


@pytest.mark.parametrize("kind", ["f2", "maxv"])
@pytest.mark.parametrize("shape", [(5, 2), (3, 3), (2, 5)], ids=str)
def test_synthesis_past_the_enumeration_bound(shape, kind):
    """Grids with more upsets than the enumeration lists synthesize exactly,
    with every invariant checked after every step."""
    table = builtin_table(BidGrid(Fraction(1), *shape), kind)
    lam = optimal_ratio(table).ratio
    revenue = synthesize(table, lam, validate_steps=True)
    assert verify_ls2(revenue, table, lam)
    assert competitive_ratio(x_to_z(revenue), table).ratio == lam


@pytest.mark.parametrize("delta", [Fraction(1), Fraction(1, 3), Fraction(5, 2)], ids=str)
@pytest.mark.parametrize(
    "shape", [(g.num_levels, g.n) for g in small_grids()] + [(4, 2), (3, 3)], ids=str)
def test_kept_slack_matches_the_recomputed_slack(shape, delta, rng):
    """``validate_steps`` compares the slack that each step moves on its
    direction's fibers with ``slack_shares`` over the whole grid."""
    grid = BidGrid(delta, *shape)
    tables = [builtin_table(grid, "f2"), builtin_table(grid, "maxv")]
    tables += [random_monotone_table(grid, rng, nonzero=True) for _ in range(2)]
    tables.append(random_symmetric_monotone_table(grid, rng))
    for table in tables:
        lam = optimal_ratio(table).ratio
        for target in (lam, lam * Fraction(5, 4)):
            revenue = synthesize(table, target, validate_steps=True)
            assert verify_ls2(revenue, table, target)


def test_check_invariants_rejects_a_stale_kept_slack():
    class KeepState:
        def initial(self, state):
            self.state = state

        def step(self, number, state, direction, outcome):
            pass

        def finished(self, steps):
            pass

    kept = KeepState()
    synthesize(two_tier_table(), Fraction(1), observer=kept)
    state = kept.state
    check_invariants(state)
    state.slack[0] += 1
    with pytest.raises(SynthesisInvariantError, match="kept slack"):
        check_invariants(state)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        ("head", "chain head differs from the support"),
        ("repeated", "chain is not strictly decreasing"),
        ("swapped", "chain is not strictly decreasing"),
        ("loose", "lost tightness"),
        ("open", "not upward closed"),
    ],
)
def test_check_invariants_rejects_a_broken_chain(corrupt, message):
    """A mid-run chain, full > {(1,0),(1,1)} > {(1,1)} > empty, broken in one
    way at a time."""

    class KeepFirstStep:
        def initial(self, state):
            pass

        def step(self, number, state, direction, outcome):
            if number == 1:
                self.state = copy.deepcopy(state)

        def finished(self, steps):
            pass

    kept = KeepFirstStep()
    synthesize(two_tier_table(), Fraction(1), observer=kept)
    state = kept.state

    def mask(*points):
        return sum(1 << state.index[p] for p in points)

    assert state.chain == [mask(*G22.points()), mask((1, 0), (1, 1)), mask((1, 1)), 0]
    check_invariants(state)
    chain = state.chain
    if corrupt == "head":  # still closed and above S_1, but not the support
        chain[0] = mask((0, 1), (1, 0), (1, 1))
    elif corrupt == "repeated":
        chain.insert(1, chain[1])
    elif corrupt == "swapped":
        chain[1], chain[2] = chain[2], chain[1]
    elif corrupt == "loose":  # closed and between its neighbours, slack 1/4
        chain[1] = mask((0, 1), (1, 0), (1, 1))
        assert state.exact(eq_slack(state, chain[1])) == Fraction(1, 4)
    else:  # below S_1 and tight, but (1,0) lacks its cover (1,1)
        chain[2] = mask((1, 0))
        assert state.exact(eq_slack(state, chain[2])) == 0
    with pytest.raises(SynthesisInvariantError, match=message):
        check_invariants(state)


def test_x_to_z_difference_quotients():
    revenue = RevenueTables(
        G22,
        [
            {(0,): [H, Fraction(3, 2)], (1,): [H, Fraction(3, 2)]},
            {(0,): [0, 0], (1,): [0, 0]},
        ],
    )
    profile = x_to_z(revenue)
    # increments 1/2 then 1 across prices 1 and 2
    assert profile.z[0][(0,)] == {0: H, 1: H}


def test_x_to_z_rejects_non_monotone():
    revenue = RevenueTables(
        G22,
        [
            {(0,): [Fraction(1), Fraction(0)], (1,): [0, 0]},
            {(0,): [0, 0], (1,): [0, 0]},
        ],
    )
    with pytest.raises(ValueError):
        x_to_z(revenue)


def test_x_to_z_round_trip(rng):
    for grid in small_grids():
        table = random_monotone_table(grid, rng, nonzero=True)
        lam = optimal_ratio(table).ratio
        revenue = synthesize(table, lam)
        profile = x_to_z(revenue)
        for i in range(grid.n):
            for others in grid.others_points():
                rebuilt = Fraction(0)
                for t in range(grid.num_levels):
                    rebuilt += grid.level_value(t) * profile.z[i][others].get(t, 0)
                    assert rebuilt == revenue.x[i][others][t]


def test_offer_mass_equals_weighted_revenue_mass(rng):
    # by the telescoping tail sums, the total offer probability equals the
    # weighted revenue mass, so the budget constraint caps it at one
    from compauction.grid import weight_level

    grid = BidGrid(Fraction(1), 3, 2)
    table = random_monotone_table(grid, rng, nonzero=True)
    revenue = synthesize(table, optimal_ratio(table).ratio)
    profile = x_to_z(revenue)
    for i in range(grid.n):
        for others in grid.others_points():
            offered = sum(profile.z[i][others].values(), Fraction(0))
            mass = sum(
                weight_level(grid, t) * revenue.x[i][others][t]
                for t in range(grid.num_levels)
            )
            assert offered == mass <= 1


def test_verify_ls2_detects_scaling():
    revenue = synthesize(two_tier_table(), Fraction(1))
    assert verify_ls2(revenue, two_tier_table(), Fraction(1))
    assert not verify_ls2(revenue, two_tier_table().scaled(2), Fraction(1))
    zero = RevenueTables(
        G22,
        [
            {(0,): [0, 0], (1,): [0, 0]},
            {(0,): [0, 0], (1,): [0, 0]},
        ],
    )
    zero_table = BenchmarkTable(G22, {p: Fraction(0) for p in G22.points()})
    assert verify_ls2(zero, zero_table, Fraction(1))
