"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.adoption import SigmoidAdoption, StepAdoption
from repro.core.bundle import Bundle
from repro.core.pricing import PriceGrid, price_pure
from repro.core.revenue import RevenueEngine
from repro.core.wtp import WTPMatrix
from repro.ilp.branch_and_bound import solve_branch_and_bound, solve_greedy
from repro.ilp.model import SetPackingProblem
from repro.matching.backends import _brute_force
from repro.matching.blossom import matching_weight, max_weight_matching

wtp_vectors = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


@given(wtp=wtp_vectors)
@settings(max_examples=80, deadline=None)
def test_exact_pricing_dominates_grid(wtp):
    """The exact scan is an upper bound for any grid resolution."""
    exact = price_pure(wtp, grid=PriceGrid(mode="exact")).revenue
    for levels in (3, 17, 100):
        grid = price_pure(wtp, grid=PriceGrid(n_levels=levels)).revenue
        assert grid <= exact + 1e-9


@given(wtp=wtp_vectors)
@settings(max_examples=80, deadline=None)
def test_exact_pricing_is_optimal_over_all_prices(wtp):
    """No single price beats the exact-scan optimum (step adoption)."""
    best = price_pure(wtp, grid=PriceGrid(mode="exact"))
    for price in np.unique(wtp[wtp > 0]):
        revenue = price * np.sum(wtp >= price)
        assert revenue <= best.revenue + 1e-9


@given(wtp=wtp_vectors, scale=st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_pricing_scale_equivariance(wtp, scale):
    """Scaling all WTP by c scales optimal revenue by c (grid pricing)."""
    base = price_pure(wtp, grid=PriceGrid(100)).revenue
    scaled = price_pure(wtp * scale, grid=PriceGrid(100)).revenue
    assert scaled == np.float64(base * scale).item() or abs(scaled - base * scale) < 1e-6 * max(1, base)


@given(
    wtp=wtp_vectors,
    price=st.floats(min_value=0.1, max_value=120.0),
    gamma=st.floats(min_value=0.05, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_adoption_probability_monotonicity(wtp, price, gamma):
    model = SigmoidAdoption(gamma=gamma)
    probs = model.probability(np.sort(wtp), price)
    assert np.all(np.diff(probs) >= -1e-12)  # non-decreasing in WTP
    lower = model.probability(np.sort(wtp), price + 1.0)
    assert np.all(lower <= probs + 1e-12)  # non-increasing in price


@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=-5, max_value=30),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=100, deadline=None)
def test_blossom_matches_brute_force(data):
    edges = []
    seen = set()
    for u, v, w in data:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        edges.append((key[0], key[1], float(w)))
    if not edges:
        return
    mate = max_weight_matching(edges)
    ours = matching_weight(edges, mate)
    lookup = {(min(u, v), max(u, v)): w for u, v, w in edges}
    brute = sum(lookup[p] for p in _brute_force(edges))
    assert abs(ours - brute) < 1e-9


@given(
    n_items=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50, deadline=None)
def test_set_packing_greedy_respects_bound(n_items, seed):
    rng = np.random.default_rng(seed)
    n_sets = int(rng.integers(1, 10))
    itemsets = [
        list(rng.choice(n_items, size=int(rng.integers(1, n_items + 1)), replace=False))
        for _ in range(n_sets)
    ]
    weights = [float(rng.uniform(0, 10)) for _ in range(n_sets)]
    problem = SetPackingProblem.from_itemsets(n_items, itemsets, weights)
    exact = solve_branch_and_bound(problem)
    greedy = solve_greedy(problem)
    assert greedy.weight <= exact.weight + 1e-9
    assert greedy.weight >= exact.weight / np.sqrt(n_items) - 1e-9


@given(
    matrix=arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 12), st.integers(2, 5)),
        elements=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    ),
    theta=st.floats(min_value=-0.5, max_value=0.5),
)
@settings(max_examples=50, deadline=None)
def test_engine_bundle_wtp_consistency(matrix, theta):
    """Equation 1: bundle WTP is the theta-scaled sum of member columns."""
    engine = RevenueEngine(WTPMatrix(matrix), theta=theta)
    n_items = matrix.shape[1]
    full = Bundle(range(n_items))
    expected = matrix.sum(axis=1) * ((1 + theta) if n_items >= 2 else 1.0)
    np.testing.assert_allclose(engine.bundle_wtp(full), expected)


@given(
    matrix=arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 15), st.integers(2, 4)),
        elements=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_pure_configuration_never_worse_than_components(matrix):
    """The safety property: heuristics revert to Components when beaten."""
    from repro.algorithms.components import Components
    from repro.algorithms.matching_iterative import IterativeMatching

    if matrix.sum() == 0:
        return
    engine = RevenueEngine(WTPMatrix(matrix))
    components = Components().fit(engine).expected_revenue
    bundled = IterativeMatching(strategy="pure").fit(engine).expected_revenue
    assert bundled >= components - 1e-9


@given(
    matrix=arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 15), st.integers(2, 4)),
        elements=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_step_evaluation_matches_stored_revenue(matrix):
    """Components' evaluated revenue equals its stored per-offer revenue."""
    from repro.algorithms.components import Components
    from repro.core.evaluation import expected_pure_revenue

    if matrix.sum() == 0:
        return
    engine = RevenueEngine(WTPMatrix(matrix))
    result = Components().fit(engine)
    recomputed, _ = expected_pure_revenue(result.configuration, engine)
    assert abs(recomputed - result.expected_revenue) < 1e-9


@given(
    matrix=arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(3, 12), st.integers(2, 4)),
        elements=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    ),
    gamma=st.floats(min_value=0.2, max_value=5.0),
)
@settings(max_examples=30, deadline=None)
def test_mixed_state_recursion_equals_enumeration(matrix, gamma):
    """The closed-form MNL equals explicit antichain enumeration."""
    from repro.core.choice import build_forest, choose_mnl_enumerated, evaluate_forest
    from repro.core.pricing import PricedBundle

    wtp = WTPMatrix(matrix)
    engine = RevenueEngine(wtp, adoption=SigmoidAdoption(gamma=gamma))
    n = wtp.n_items
    offers = [PricedBundle(Bundle.of(i), 3.0 + i, 0.0, 0.0) for i in range(n)]
    offers.append(PricedBundle(Bundle(range(n)), 3.0 * n - 1.0, 0.0, 0.0))
    roots = build_forest(offers)
    closed = evaluate_forest(roots, engine.bundle_wtp, engine.adoption)
    enumerated = choose_mnl_enumerated(roots, engine.bundle_wtp, engine.adoption)
    assert abs(closed.revenue - enumerated.revenue) < 1e-6 * max(1.0, enumerated.revenue)



@st.composite
def laminar_menus(draw):
    """A random laminar offer family: up to 8 offers, up to 4 levels deep.

    Each new offer covers 0–3 current top offers plus 0–2 fresh items, so
    nodes get uneven child counts and items of a bundle may have no offer
    of their own.  Returns ``(n_items, offers)``.
    """
    from repro.core.pricing import PricedBundle

    tops: list[tuple[frozenset, int]] = []  # (items, height)
    bundles: list[frozenset] = []
    n_items = 0
    for _ in range(draw(st.integers(1, 8))):
        eligible = [index for index, (_, height) in enumerate(tops) if height < 3]
        chosen = []
        if eligible:
            chosen = draw(st.lists(st.sampled_from(eligible), unique=True, max_size=3))
        fresh = draw(st.integers(0 if len(chosen) >= 2 else 1, 2))
        items = frozenset(range(n_items, n_items + fresh)).union(
            *(tops[index][0] for index in chosen)
        )
        n_items += fresh
        height = 1 + max((tops[index][1] for index in chosen), default=-1)
        tops = [top for index, top in enumerate(tops) if index not in chosen]
        tops.append((items, height))
        bundles.append(items)
    n_offers = len(bundles)
    prices = st.lists(st.floats(0.5, 20.0), min_size=n_offers, max_size=n_offers)
    return n_items, [
        PricedBundle(Bundle(sorted(items)), price, 0.0, 0.0)
        for items, price in zip(bundles, draw(prices))
    ]


@st.composite
def forest_cases(draw):
    """A laminar menu, a WTP matrix over its items, and an adoption spec."""
    from repro.api import AdoptionSpec

    n_items, offers = draw(laminar_menus())
    matrix = draw(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(2, 10), st.just(n_items)),
            elements=st.floats(min_value=0.0, max_value=15.0, allow_nan=False),
        )
    )
    if draw(st.booleans()):
        spec = AdoptionSpec(kind="step")
    else:
        spec = AdoptionSpec(kind="sigmoid", gamma=draw(st.floats(0.2, 5.0)))
    return n_items, offers, matrix, spec


class _ArgmaxStep:
    """Step surpluses scaled so that the enumerated softmax is the argmax."""

    def __init__(self, step):
        self.step = step

    def utility(self, wtp, price):
        return 1e6 * self.step.utility(wtp, price)


def _step_near_tie(roots, wtp_of, adoption, gap=1e-3):
    """True when some consumer's two best antichains (or none) nearly tie."""
    from repro.core.choice import enumerate_antichains

    for root in roots:
        nodes = root.descendants()
        utilities = np.stack(
            [adoption.utility(wtp_of(n.bundle), n.offer.price) for n in nodes]
        )
        options = [np.zeros(utilities.shape[1])]
        for antichain in enumerate_antichains(root, 4096):
            options.append(sum(utilities[nodes.index(node)] for node in antichain))
        best = np.sort(np.stack(options), axis=0)[-2:]
        if np.any(best[1] - best[0] < gap):
            return True
    return False


@given(case=forest_cases())
@settings(max_examples=60, deadline=None)
def test_forest_plan_equals_enumeration(case):
    """Level-by-level payments and buyers equal antichain enumeration."""
    from hypothesis import assume

    from repro.core.choice import ForestPlan, build_forest, choose_mnl_enumerated

    _n_items, offers, matrix, spec = case
    adoption = spec.build()
    engine = RevenueEngine(WTPMatrix(matrix), theta=0.1, adoption=adoption)
    roots = build_forest(offers)
    outcome = ForestPlan(roots).evaluate(engine.bundle_wtp, adoption)
    reference_model = adoption
    if adoption.is_deterministic:
        assume(not _step_near_tie(roots, engine.bundle_wtp, adoption))
        reference_model = _ArgmaxStep(adoption)
    reference = choose_mnl_enumerated(roots, engine.bundle_wtp, reference_model)
    np.testing.assert_allclose(
        outcome.payments, reference.payments, rtol=1e-7, atol=1e-9
    )
    assert list(outcome.buyers_per_offer) == list(reference.buyers_per_offer)
    for bundle, buyers in reference.buyers_per_offer.items():
        assert abs(outcome.buyers_per_offer[bundle] - buyers) <= 1e-7 * max(1.0, buyers)


def _node_by_node(roots, wtp_of, adoption):
    """Reference walk of the forest, one node at a time (no plan).

    Bottom-up subtree states fold children left to right; buyers come from
    a top-down pass, P(node) = P(node | subtree) · P(no ancestor taken).
    """
    from repro.core.adoption import decision_tolerance
    from repro.core.choice import SubtreeState, merged_state, upgrade_probability

    buyers: dict = {}

    def bottom_up(node):
        utility = adoption.utility(wtp_of(node.bundle), node.offer.price)
        kids = [bottom_up(child) for child in node.children]
        if kids:
            base = kids[0][0]
            for state, _take, _grandkids in kids[1:]:
                base = base + state
        else:
            zero = np.zeros_like(utility)
            base = SubtreeState(zero, zero)
        take = upgrade_probability(utility, base.score, adoption)
        if adoption.is_deterministic:
            take = take * (utility >= -decision_tolerance(node.offer.price))
        return merged_state(base, utility, node.offer.price, adoption), take, kids

    def top_down(node, take, kids, alive):
        taken = float((alive * take).sum())
        buyers[node.bundle] = buyers.get(node.bundle, 0.0) + taken
        for child, (_state, child_take, grandkids) in zip(node.children, kids):
            top_down(child, child_take, grandkids, alive * (1.0 - take))

    total = None
    for root in roots:
        state, take, kids = bottom_up(root)
        total = state.pay if total is None else total + state.pay
        top_down(root, take, kids, np.ones_like(take))
    return (np.zeros(0) if total is None else total), buyers


@given(case=forest_cases(), block=st.sampled_from([1, 7, 1 << 18]))
@settings(max_examples=60, deadline=None)
def test_forest_plan_bits_equal_node_by_node_walk(case, block):
    """The plan reproduces a node-by-node walk bit for bit, in any blocks."""
    from unittest import mock

    from repro.core import choice

    _n_items, offers, matrix, spec = case
    adoption = spec.build()
    roots = choice.build_forest(offers)
    engine = RevenueEngine(WTPMatrix(matrix), theta=0.1, adoption=adoption)
    payments, buyers = _node_by_node(roots, engine.bundle_wtp, adoption)
    with mock.patch.object(choice, "_BLOCK_ELEMENTS", block):
        plan = choice.ForestPlan(roots)
        outcome = plan.evaluate(engine.bundle_wtp, adoption)
        served = plan.payments(WTPMatrix(matrix), adoption, 0.1)
    assert outcome.payments.tobytes() == payments.tobytes() == served.tobytes()
    assert list(outcome.buyers_per_offer) == list(buyers)
    assert [v.hex() for v in outcome.buyers_per_offer.values()] == [
        v.hex() for v in buyers.values()
    ]


@given(case=forest_cases(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_forest_plan_row_split_is_bit_identical(case, data):
    """Pricing rows ``[0, k)`` and ``[k, M)`` apart gives one pass's bits."""
    from repro.core.choice import ForestPlan, build_forest

    _n_items, offers, matrix, spec = case
    adoption = spec.build()
    plan = ForestPlan(build_forest(offers))
    k = data.draw(st.integers(1, matrix.shape[0] - 1))

    def evaluated(rows):
        engine = RevenueEngine(WTPMatrix(rows), theta=0.1, adoption=adoption)
        return plan.evaluate(engine.bundle_wtp, adoption).payments

    def served(rows):
        return plan.payments(WTPMatrix(rows), adoption, 0.1)

    whole = evaluated(matrix).tobytes()
    halves = np.split(matrix, [k])
    assert np.concatenate([evaluated(rows) for rows in halves]).tobytes() == whole
    assert np.concatenate([served(rows) for rows in halves]).tobytes() == whole
    assert served(matrix).tobytes() == whole


@given(case=forest_cases(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_serving_batch_equals_blocks_quoted_alone(case, data):
    """A ``ServingState`` batch prices each block exactly as it would alone."""
    from repro.api import AlgorithmSpec, EngineConfig
    from repro.api.solution import BundlingSolution
    from repro.core.configuration import MixedConfiguration
    from repro.serving import ServingState

    n_items, offers, matrix, spec = case
    solution = BundlingSolution(
        configuration=MixedConfiguration(offers, n_items),
        engine_config=EngineConfig(theta=0.1, adoption=spec),
        algorithm_spec=AlgorithmSpec("mixed_greedy"),
        algorithm="mixed_greedy",
        strategy="mixed",
        expected_revenue=0.0,
        coverage=0.0,
    )
    state = ServingState(solution)
    cuts = st.lists(st.integers(1, matrix.shape[0] - 1), unique=True, max_size=3)
    parts = np.split(matrix, sorted(data.draw(cuts)))
    blocks = [state.prepare_rows(rows) for rows in parts]
    for block, rows, quote in zip(blocks, parts, state.quote_batch(blocks)):
        alone_quotes = (
            state.quote_batch([block])[0],
            state.quote_single(block),
            solution.quote(rows),
        )
        for alone in alone_quotes:
            assert quote.payments.tobytes() == alone.payments.tobytes()
            assert quote.revenue.hex() == alone.revenue.hex()
            assert quote.coverage.hex() == alone.coverage.hex()

@given(seed=st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=25, deadline=None)
def test_step_choice_never_pays_above_wtp_total(seed):
    """No consumer ever pays more than her total willingness to pay."""
    from repro.algorithms.matching_iterative import IterativeMatching
    from repro.core.choice import evaluate_forest

    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0, 15, size=(12, 4)) * (rng.random((12, 4)) < 0.7)
    engine = RevenueEngine(WTPMatrix(matrix))
    result = IterativeMatching(strategy="mixed").fit(engine)
    outcome = evaluate_forest(
        result.configuration.forest(), engine.bundle_wtp, engine.adoption
    )
    totals = matrix.sum(axis=1)
    # step consumers only buy at non-negative surplus, per offer subtree.
    assert np.all(outcome.payments <= totals + 1e-6)
