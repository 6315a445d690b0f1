"""Consumer choice over a set of offers (paper, Sections 4.1–4.2).

Pure bundling offers disjoint bundles, so each adoption decision is
independent and Equation 6 applies verbatim.  Mixed bundling offers a
*laminar* family (a bundle may be offered together with its components —
Problem 2's nesting condition), so a consumer faces real alternatives and
the paper's "upgrade" logic applies: with components A, B priced p_A, p_B
and the bundle priced p_AB, a consumer buys the bundle only when upgrading
beats buying components alone (Section 4.2's example).

This module implements that logic exactly, for forests of any shape.  The
consumer's feasible purchase decisions are the *antichains* of the offer
forest (sets of offers none of which contains another), and:

* under the deterministic step model the consumer picks the antichain with
  maximum total surplus, ties toward the bundle (the ancestor — the
  convention of the paper's Table 1);
* under the sigmoid model the choice is multinomial logit over antichains
  with utilities ``γ(α·w − p + ε)`` — the exact multi-option
  generalization of Equation 6 (binary logit), to which it reduces for a
  single offer.

Both are computed in O(#offers · M) arithmetic via a *subtree state*.  For
every subtree, two per-consumer arrays suffice:

=================  =============================  ==============================
                   deterministic (step)           stochastic (MNL)
=================  =============================  ==============================
``score``          best achievable surplus (≥0)   log partition fn Σ_A e^{u(A)}
``pay``            payment at the best choice     expected payment
=================  =============================  ==============================

Merging two subtrees under a new bundle offer ``(b, p)`` updates the state
in closed form: deterministically the consumer upgrades iff
``u_b ≥ score₁ + score₂``; stochastically the upgrade probability is
``σ(u_b − score₁ − score₂)`` because antichain utilities are additive and
the partition function factorizes across sibling subtrees.  The same
merge powers the incremental mixed-merge pricing of Section 4.2, so gains
measured during search agree exactly with the final evaluation.

A whole forest is evaluated through a :class:`ForestPlan`, compiled once
per menu: nodes are grouped into levels by height, so every node of a
level merges its (already final) children at once and the forest costs
O(#levels) numpy calls rather than O(#offers).  Each per-consumer step is
elementwise and every reduction keeps the order of a node-by-node walk,
so the plan's results do not depend on how many consumers are priced
together.

Enumeration-based reference implementations (:func:`choose_mnl_enumerated`,
:func:`enumerate_antichains`) are kept for cross-validation in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from repro.core.adoption import AdoptionModel, decision_tolerance
from repro.core.bundle import Bundle
from repro.core.pricing import PricedBundle
from repro.errors import ConfigurationError
from repro.utils.rng import ensure_rng


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


# ------------------------------------------------------------------- forest
@dataclass
class OfferNode:
    """One offer in the laminar forest; children are the maximal sub-offers."""

    offer: PricedBundle
    children: list["OfferNode"] = field(default_factory=list)

    @property
    def bundle(self) -> Bundle:
        return self.offer.bundle

    def descendants(self) -> list["OfferNode"]:
        """This node and every node below it, preorder."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.descendants())
        return nodes


def build_forest(offers: list[PricedBundle]) -> list[OfferNode]:
    """Arrange a laminar family of offers into a forest.

    Each offer's parent is its smallest strict superset among the offers.
    Raises :class:`ConfigurationError` on duplicates or non-laminar overlap.
    """
    ordered = sorted(offers, key=lambda po: (-po.bundle.size, po.bundle.items))
    nodes = [OfferNode(offer) for offer in ordered]
    roots: list[OfferNode] = []
    for index, node in enumerate(nodes):
        parent: OfferNode | None = None
        # Candidates appear earlier in the ordering (larger or equal size).
        for candidate in nodes[:index]:
            if node.bundle == candidate.bundle:
                raise ConfigurationError(f"duplicate offer for bundle {node.bundle}")
            if node.bundle.issubset(candidate.bundle):
                # The latest (smallest) superset seen so far wins.
                if parent is None or candidate.bundle.size <= parent.bundle.size:
                    parent = candidate
            elif node.bundle.intersects(candidate.bundle):
                raise ConfigurationError(
                    f"offers {node.bundle} and {candidate.bundle} overlap without nesting"
                )
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


# ------------------------------------------------------------ subtree state
@dataclass(frozen=True)
class SubtreeState:
    """Per-consumer choice state of one offer subtree (see module docs).

    Mixed-strategy search keeps one state (two O(M) arrays) per live offer,
    which at a million users dominates the scan's working set.  States may
    therefore be stored in ``float32`` (:meth:`astype`; the engine's
    ``state_dtype`` option) — the streaming kernels widen them back to
    float64 on the fly when filling score/pay columns, so only the resident
    arrays shrink.
    """

    score: np.ndarray
    pay: np.ndarray

    def __add__(self, other: "SubtreeState") -> "SubtreeState":
        # Sibling subtrees are independent: surpluses add (deterministic)
        # and log partition functions add (stochastic).  Sums are forced to
        # the float64 loop so float32-stored states are widened *before*
        # the addition — the same rule as the streaming fill path — and a
        # merge selected by the scan is applied on bit-identical base
        # arrays.  (A no-op for the default float64 states.)
        return SubtreeState(
            np.add(self.score, other.score, dtype=np.float64),
            np.add(self.pay, other.pay, dtype=np.float64),
        )

    @property
    def nbytes(self) -> int:
        """Resident bytes of the two per-consumer arrays."""
        return int(self.score.nbytes + self.pay.nbytes)

    def astype(self, dtype) -> "SubtreeState":
        """This state with both arrays in *dtype* (``self`` when already so)."""
        dtype = np.dtype(dtype)
        if self.score.dtype == dtype and self.pay.dtype == dtype:
            return self
        return SubtreeState(self.score.astype(dtype), self.pay.astype(dtype))


def singleton_state(
    wtp: np.ndarray, price: float, adoption: AdoptionModel
) -> SubtreeState:
    """State of a leaf offer (a bundle offered with no sub-offers)."""
    utility = adoption.utility(wtp, price)
    if adoption.is_deterministic:
        take = utility >= -decision_tolerance(price)
        return SubtreeState(np.maximum(utility, 0.0), np.where(take, price, 0.0))
    return SubtreeState(np.logaddexp(0.0, utility), price * _sigmoid(utility))


def upgrade_probability(
    bundle_utility: np.ndarray, base_score: np.ndarray, adoption: AdoptionModel
) -> np.ndarray:
    """P(consumer takes the covering bundle instead of the base choice).

    Deterministic: an indicator of ``u_b ≥ base_score`` (ties toward the
    bundle, the Table 1 convention; equality is tested with a vanishing
    relative tolerance so ulp-level price-grid arithmetic cannot flip a
    genuine tie).  Stochastic: ``σ(u_b − base_score)``, the exact MNL
    probability because the base score is the log partition function of
    all alternatives.
    """
    if adoption.is_deterministic:
        slack = 1e-9 * (1.0 + np.abs(bundle_utility) + np.abs(base_score))
        return (bundle_utility >= base_score - slack).astype(np.float64)
    return _sigmoid(bundle_utility - base_score)


def _cover(base_score, base_pay, bundle_utility, price, adoption: AdoptionModel):
    """``(score, pay, take)`` once an offer ``(b, price)`` covers a base choice.

    ``take`` is the probability that the consumer takes the covering offer;
    a negative-utility offer is never taken under step choice, even over an
    empty base.  Every step is elementwise, so *price* may be a scalar or a
    column of per-offer prices broadcast against per-offer rows.
    """
    take = upgrade_probability(bundle_utility, base_score, adoption)
    if adoption.is_deterministic:
        taken = take.astype(bool) & (bundle_utility >= -decision_tolerance(price))
        score = np.maximum(np.maximum(base_score, bundle_utility), 0.0)
        return score, np.where(taken, price, base_pay), taken.astype(np.float64)
    score = np.logaddexp(base_score, bundle_utility)
    return score, take * price + (1.0 - take) * base_pay, take


def merged_state(
    base: SubtreeState,
    bundle_utility: np.ndarray,
    price: float,
    adoption: AdoptionModel,
) -> SubtreeState:
    """State of a subtree whose root offer ``(b, p)`` covers *base*."""
    score, pay, _take = _cover(base.score, base.pay, bundle_utility, price, adoption)
    return SubtreeState(score, pay)


# -------------------------------------------------------------- evaluation
@dataclass(frozen=True)
class ChoiceOutcome:
    """Aggregate result of all M consumers choosing over an offer forest.

    ``payments``: per-consumer expected payment (exact under step choice).
    ``buyers_per_offer``: expected number of consumers selecting each offer,
    keyed by bundle.
    """

    payments: np.ndarray
    buyers_per_offer: dict[Bundle, float]

    @property
    def revenue(self) -> float:
        return float(self.payments.sum())


@dataclass(frozen=True)
class _Group:
    """Equal-size bundles of one level: level positions ``[start, stop)``."""

    start: int
    stop: int
    items: np.ndarray  # (stop - start, k) item indices, one bundle per row


@dataclass(frozen=True)
class _Level:
    """The nodes of one height: plan rows ``[lo, hi)``.

    ``slots[j]`` holds the level positions of the nodes that have a j-th
    child (``None`` when all of them do) and those children's plan rows.
    ``parents`` holds each node's parent row; a root points one past the
    last node, at the top-down pass's row of ones.
    """

    lo: int
    hi: int
    prices: np.ndarray  # (hi - lo, 1)
    groups: tuple[_Group, ...]
    slots: tuple[tuple[np.ndarray | None, np.ndarray], ...]
    parents: np.ndarray


#: Values per level temporary (2 MiB of float64) before the users are
#: split into blocks.  Bounds the working set of a large evaluation below
#: the node-by-node walk's; a quote batch of up to ~2,000 users against a
#: 117-offer menu is a single block.
_BLOCK_ELEMENTS = 1 << 18


def _indices(values):
    """*values* as an index array (``None`` stays ``None``)."""
    return None if values is None else np.asarray(values, dtype=np.intp)


class ForestPlan:
    """A laminar offer forest compiled for level-by-level evaluation.

    The nodes are numbered in postorder and grouped into levels by height
    (leaves first); a node's children all sit in lower levels, so one pass
    over the levels settles every subtree state.  Within a level the nodes
    are grouped by bundle size, each group holding an ``(n_k, k)``
    item-index matrix for :meth:`payments`.
    Per-node arrays are node-major, ``(n_nodes, users)``, so each node's
    buyer count is a contiguous row sum; large populations are priced in
    blocks of users, since every user's choice is independent.

    The results are bit-identical to walking the forest node by node:
    per-consumer steps are elementwise, children fold left to right in
    ``node.children`` order (missing child slots are skipped, never
    zero-padded, since ``-0.0 + 0.0`` flips a sign bit), and roots fold
    left to right in the given order.  :meth:`payments` applies
    Equation 1's ``theta`` to raw item sums; :meth:`evaluate` takes bundle
    WTP from its caller instead.
    """

    def __init__(self, roots: list[OfferNode]) -> None:
        postorder: list[OfferNode] = []
        heights: list[int] = []
        parents: list[int] = []
        children: list[list[int]] = []

        def visit(node: OfferNode) -> int:
            kids = [visit(child) for child in node.children]
            index = len(postorder)
            postorder.append(node)
            heights.append(1 + max((heights[kid] for kid in kids), default=-1))
            parents.append(-1)
            children.append(kids)
            for kid in kids:
                parents[kid] = index
            return index

        root_indices = [visit(root) for root in roots]
        order = sorted(
            range(len(postorder)),
            key=lambda index: (heights[index], postorder[index].bundle.size, index),
        )
        row_of = {index: row for row, index in enumerate(order)}
        n_nodes = len(order)
        self.nodes: tuple[OfferNode, ...] = tuple(postorder[index] for index in order)
        self.roots: tuple[int, ...] = tuple(row_of[index] for index in root_indices)

        def preorder(index: int):
            yield row_of[index]
            for kid in children[index]:
                yield from preorder(kid)

        self._preorder = tuple(row for index in root_indices for row in preorder(index))

        levels: list[_Level] = []
        lo = 0
        for _height, level in groupby(order, key=heights.__getitem__):
            members = list(level)
            groups: list[_Group] = []
            for _, group in groupby(members, key=lambda i: postorder[i].bundle.size):
                bundles = [postorder[index].bundle.items for index in group]
                start = groups[-1].stop if groups else 0
                items = np.asarray(bundles, dtype=np.intp)
                groups.append(_Group(start, start + len(bundles), items))
            slots = []
            for slot in range(max(len(children[index]) for index in members)):
                holders = [p for p, i in enumerate(members) if len(children[i]) > slot]
                rows = [row_of[children[members[p]][slot]] for p in holders]
                positions = holders if len(holders) < len(members) else None
                slots.append((_indices(positions), _indices(rows)))
            prices = [[postorder[index].offer.price] for index in members]
            above = [n_nodes if parents[i] < 0 else row_of[parents[i]] for i in members]
            levels.append(
                _Level(
                    lo=lo,
                    hi=lo + len(members),
                    prices=np.asarray(prices, dtype=np.float64),
                    groups=tuple(groups),
                    slots=tuple(slots),
                    parents=_indices(above),
                )
            )
            lo += len(members)
        self.levels: tuple[_Level, ...] = tuple(levels)

    def evaluate(self, wtp_of, adoption: AdoptionModel) -> ChoiceOutcome:
        """Payments and per-offer buyers; ``wtp_of`` maps a bundle to its WTP.

        Per-offer buyer counts come from a top-down pass, one level at a
        time: P(node) = P(node | subtree) · P(no ancestor taken).
        """
        if not self.nodes:
            return ChoiceOutcome(payments=np.zeros(0), buyers_per_offer={})
        # One buffer, one row per node plus a row of ones (the roots'
        # "alive" weight).  A node's row holds its WTP until its level is
        # priced, and its take probability from then on.
        first = wtp_of(self.nodes[0].bundle)
        n_users = len(first)
        take = np.empty((len(self.nodes) + 1, n_users))
        take[0] = first
        for row in range(1, len(self.nodes)):
            take[row] = wtp_of(self.nodes[row].bundle)
        take[-1] = 1.0

        def block_wtp(users: slice):
            return lambda level: take[level.lo : level.hi, users]

        payments = self._bottom_up(block_wtp, adoption, n_users, take)
        counts = np.zeros(len(self.nodes))
        chunk = max(1, _BLOCK_ELEMENTS // max(1, n_users))
        for level in reversed(self.levels):
            for lo in range(level.lo, level.hi, chunk):
                hi = min(lo + chunk, level.hi)
                alive = take[level.parents[lo - level.lo : hi - level.lo]]
                node_take = take[lo:hi]
                counts[lo:hi] = (alive * node_take).sum(axis=1)
                take[lo:hi] = alive * (1.0 - node_take)
        buyers: dict[Bundle, float] = {}
        for row in self._preorder:
            bundle = self.nodes[row].bundle
            buyers[bundle] = buyers.get(bundle, 0.0) + float(counts[row])
        return ChoiceOutcome(payments=payments, buyers_per_offer=buyers)

    def payments(self, matrix, adoption: AdoptionModel, theta: float) -> np.ndarray:
        """Per-consumer expected payments for the rows of a ``WTPMatrix``.

        Bundle WTP is Equation 1 over *matrix* with interaction factor
        *theta*, one :meth:`~repro.core.wtp.WTPMatrix.raw_sums` call per
        group; no buyer counts are kept.
        """
        if not self.nodes:
            return np.zeros(0)

        def block_wtp(users: slice):
            block = matrix
            if users.stop - users.start < matrix.n_users:
                block = matrix.subset_users(range(users.start, users.stop))

            def level_wtp(level: _Level) -> np.ndarray:
                wtp = np.empty((level.hi - level.lo, block.n_users))
                for group in level.groups:
                    raw = block.raw_sums(group.items)
                    scale = 1.0 + theta if group.items.shape[1] >= 2 else 1.0
                    np.multiply(raw.T, scale, out=wtp[group.start : group.stop])
                return wtp

            return level_wtp

        return self._bottom_up(block_wtp, adoption, matrix.n_users)

    def _bottom_up(self, block_wtp, adoption, n_users: int, take=None) -> np.ndarray:
        """Per-consumer payments, one block of users at a time.

        ``block_wtp(users)`` returns the level-WTP function of a block of
        users.  Each node's take probability is written into ``take`` when
        given (after the block's WTP of that level has been read).  Blocks
        keep every level temporary near :data:`_BLOCK_ELEMENTS` values; a
        serving batch is one block.
        """
        payments = np.empty(n_users)
        width = max(1, _BLOCK_ELEMENTS // len(self.nodes))
        for start in range(0, n_users, width):
            users = slice(start, min(start + width, n_users))
            level_wtp = block_wtp(users)
            score = np.empty((len(self.nodes), users.stop - users.start))
            pay = np.empty_like(score)
            for level in self.levels:
                utility = adoption.utility(level_wtp(level), level.prices)
                if level.slots:
                    (_all, rows), *others = level.slots
                    base_score, base_pay = score[rows], pay[rows]
                    for positions, rows in others:
                        if positions is None:
                            base_score += score[rows]
                            base_pay += pay[rows]
                        else:
                            base_score[positions] += score[rows]
                            base_pay[positions] += pay[rows]
                else:
                    base_score = base_pay = np.zeros_like(utility)
                node_score, node_pay, node_take = _cover(
                    base_score, base_pay, utility, level.prices, adoption
                )
                score[level.lo : level.hi] = node_score
                pay[level.lo : level.hi] = node_pay
                if take is not None:
                    take[level.lo : level.hi, users] = node_take
            # Roots fold left to right, in the given order.
            payments[users] = pay[self.roots[0]]
            for row in self.roots[1:]:
                payments[users] += pay[row]
        return payments

    def __repr__(self) -> str:
        groups = sum(len(level.groups) for level in self.levels)
        return (
            f"ForestPlan({len(self.nodes)} offers, {len(self.roots)} roots, "
            f"{len(self.levels)} levels, {groups} groups)"
        )


def evaluate_forest(
    roots: list[OfferNode], wtp_of, adoption: AdoptionModel
) -> ChoiceOutcome:
    """Exact expected choice outcome over a laminar offer forest.

    ``wtp_of`` maps a :class:`Bundle` to the per-user WTP vector (the
    engine supplies Equation 1).  Works for deterministic and stochastic
    adoption alike; see :class:`ForestPlan`, which callers that price one
    menu repeatedly compile once.
    """
    return ForestPlan(roots).evaluate(wtp_of, adoption)


def sample_forest(
    roots: list[OfferNode], wtp_of, adoption: AdoptionModel, rng=None
) -> ChoiceOutcome:
    """One realized choice per consumer, drawn exactly from the MNL.

    Top-down conditional sampling: the root is taken with its exact
    marginal probability; given it is not taken, the children's subtree
    choices are conditionally independent — so recursing with each child's
    own conditional probability samples the full antichain distribution
    without enumeration.  Deterministic adoption short-circuits to the
    exact DP.
    """
    rng = ensure_rng(rng)
    if adoption.is_deterministic:
        return evaluate_forest(roots, wtp_of, adoption)
    buyers: dict[Bundle, float] = {}
    total_pay: np.ndarray | None = None

    def bottom_up(node: OfferNode):
        utility = adoption.utility(wtp_of(node.bundle), node.offer.price)
        child_results = [bottom_up(child) for child in node.children]
        if child_results:
            base_score = sum(result[0].score for result in child_results)
        else:
            base_score = np.zeros_like(utility)
        prob = _sigmoid(utility - base_score)
        score = np.logaddexp(base_score, utility)
        return SubtreeState(score, np.zeros(0)), prob, child_results, node

    def sample(prob, child_results, node: OfferNode, alive: np.ndarray) -> np.ndarray:
        take = alive & (rng.random(size=prob.shape) < prob)
        count = float(np.count_nonzero(take))
        if count:
            buyers[node.bundle] = buyers.get(node.bundle, 0.0) + count
        pay = np.where(take, node.offer.price, 0.0)
        remaining = alive & ~take
        for _state, child_prob, kids, child_node in child_results:
            pay = pay + sample(child_prob, kids, child_node, remaining)
        return pay

    for root in roots:
        _state, prob, kids, node = bottom_up(root)
        pay = sample(prob, kids, node, np.ones(prob.shape, dtype=bool))
        total_pay = pay if total_pay is None else total_pay + pay
    if total_pay is None:
        total_pay = np.zeros(0)
    return ChoiceOutcome(payments=total_pay, buyers_per_offer=buyers)


# --------------------------------------------- reference implementations
def enumerate_antichains(root: OfferNode, limit: int) -> list[tuple[OfferNode, ...]]:
    """All antichains of the subtree at *root* (excluding the empty one).

    Exponential; kept as the reference against which the closed-form
    recursion is validated.  Raises :class:`ConfigurationError` beyond
    *limit* antichains.
    """

    def visit(node: OfferNode) -> list[tuple[OfferNode, ...]]:
        # Antichains within this subtree, including the empty antichain.
        combos: list[tuple[OfferNode, ...]] = [()]
        for child in node.children:
            child_combos = visit(child)
            combos = [left + right for left in combos for right in child_combos]
            if len(combos) > limit:
                raise ConfigurationError(
                    f"offer tree has more than {limit} antichains; "
                    "use the closed-form evaluation"
                )
        return combos + [(node,)]

    return [combo for combo in visit(root) if combo]


def choose_mnl_enumerated(
    roots: list[OfferNode],
    wtp_of,
    adoption: AdoptionModel,
    antichain_limit: int = 4096,
) -> ChoiceOutcome:
    """Expected MNL choice by explicit antichain enumeration (reference).

    The utility of an antichain is the sum of its members' logit utilities;
    the outside option has utility 0.  Probabilities use a max-shifted
    softmax, so the γ→∞ limit degenerates gracefully to the argmax.
    """
    buyers: dict[Bundle, float] = {}
    total_pay: np.ndarray | None = None
    for root in roots:
        antichains = enumerate_antichains(root, antichain_limit)
        node_list = root.descendants()
        node_index = {id(node): k for k, node in enumerate(node_list)}
        utilities = np.stack(
            [
                adoption.utility(wtp_of(node.bundle), node.offer.price)
                for node in node_list
            ]
        )  # (K, M)
        membership = np.zeros((len(antichains), len(node_list)))
        option_price = np.zeros(len(antichains))
        for row, antichain in enumerate(antichains):
            for node in antichain:
                membership[row, node_index[id(node)]] = 1.0
                option_price[row] += node.offer.price
        option_util = membership @ utilities  # (A, M)
        stacked = np.vstack([np.zeros((1, option_util.shape[1])), option_util])
        stacked -= stacked.max(axis=0, keepdims=True)
        weights = np.exp(np.clip(stacked, -500.0, 500.0))
        probs = weights / weights.sum(axis=0, keepdims=True)
        inside = probs[1:, :]  # (A, M)
        pay = option_price @ inside
        total_pay = pay if total_pay is None else total_pay + pay
        per_node = membership.T @ inside  # (K, M)
        for node, node_buyers in zip(node_list, per_node.sum(axis=1)):
            buyers[node.bundle] = buyers.get(node.bundle, 0.0) + float(node_buyers)
    if total_pay is None:
        total_pay = np.zeros(0)
    return ChoiceOutcome(payments=total_pay, buyers_per_offer=buyers)
