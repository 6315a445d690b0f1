"""Warm serving state: a solution's menu precomputed for batched quoting.

:meth:`repro.api.BundlingSolution.quote` is correct but *cold*: every call
re-validates the solution, rebuilds a :class:`RevenueEngine` from the stored
config, rebuilds the adoption model, and (for mixed menus) re-derives the
laminar offer forest — all menu-side work that never changes between
requests.  :class:`ServingState` does that work exactly once:

* the **offer supports** (per-offer item-index arrays) and Equation-1 scale
  factors;
* the **per-offer price vector** and the price-grid levels of the fit;
* the **compiled offer forest** (mixed menus, a
  :class:`~repro.core.choice.ForestPlan`) and a single built adoption model;
* the solution **fingerprint**, stamped on every response so clients can
  detect version skew across hot reloads.

Bit-identity is the design constraint: a quote answered from warm state
must equal ``solution.quote()`` to the last ulp.  The warm path therefore
runs the *same* arithmetic as the cold one — :meth:`WTPMatrix.raw_sum` (or
its grouped form :meth:`WTPMatrix.raw_sums`) for bundle WTP, the adoption
model's vectorized ``probability``, and the forest plan that
:func:`repro.core.choice.evaluate_forest` runs for mixed menus — only the
per-call rebuild work is skipped.  A mixed menu's plan is compiled once
here, so pricing a batch costs O(#levels) numpy calls (13 levels for the
117-offer ``mixed_greedy`` menu) instead of one recursion step per offer,
and serving skips the plan's per-offer buyer counts.  Because every
per-user quantity in those primitives is computed elementwise (or reduced
along each user's own row), stacking many requests' rows into one batch
matrix and pricing them with one kernel call yields, for each request,
exactly the payments, revenue, and coverage that quoting its rows alone
would have produced.  That claim is pinned by ``tests/test_serving.py``
across batch sizes, adoption models, and backends.

The ``quote_batch`` fault site lives here: when armed it raises
:class:`~repro.errors.ServingError` before pricing, standing in for a
faulting batched kernel so the micro-batcher's sequential fallback can be
exercised deterministically.  The sequential path
(:meth:`ServingState.quote_single`) never consults the site — it *is* the
degraded mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import faults
# ``evaluate_forest`` is re-exported for the traced launcher in
# ``perfbench/``, which wraps ``state.evaluate_forest`` as a span.
from repro.core.choice import ForestPlan, evaluate_forest  # noqa: F401
from repro.core.configuration import MixedConfiguration
from repro.core.pricing import PriceGrid
from repro.core.wtp import WTPMatrix
from repro.errors import ServingError, ValidationError

#: Strategy tags (mirrors :mod:`repro.algorithms.base`).
_PURE = "pure"
_MIXED = "mixed"


@dataclass(frozen=True)
class PreparedRows:
    """One request's consumer rows, validated and backend-converted.

    ``raw`` keeps the rows exactly as received so a request admitted under
    one :class:`ServingState` can be re-prepared coherently if a hot reload
    swaps the state before its batch is priced.  ``matrix`` is the rows
    converted to the serving backend (the stored config's precision /
    storage, exactly as a cold ``quote()``'s engine build would convert
    them) and ``total_wtp`` its aggregate WTP — the coverage denominator,
    computed on this request's rows alone so it matches the cold path
    bit-for-bit.
    """

    raw: object
    matrix: WTPMatrix
    total_wtp: float
    state: "ServingState"

    @property
    def n_users(self) -> int:
        return self.matrix.n_users


@dataclass(frozen=True)
class ServedQuote:
    """One request's priced outcome, as served.

    ``payments``/``revenue``/``coverage`` are bit-identical to the
    :class:`~repro.api.solution.QuoteResult` fields of
    ``solution.quote(rows)`` for the same rows.  ``fingerprint`` names the
    exact solution that priced this request — across a hot reload, every
    response is stamped with the state that actually served it.
    ``batched`` is False when the micro-batcher degraded this request to
    the sequential path.
    """

    payments: np.ndarray
    revenue: float
    coverage: float
    fingerprint: str
    batched: bool = True

    @property
    def n_users(self) -> int:
        return int(self.payments.size)


class ServingState:
    """A frozen, precomputed view of one :class:`BundlingSolution`'s menu.

    Instances are immutable by convention (nothing mutates after
    construction) and safe to share across threads: hot reload swaps the
    *reference* to a fresh state atomically rather than mutating one in
    place, so a batch priced under a captured state reference is coherent
    even while a reload lands.

    ``shared`` (a :class:`~repro.core.shm.SharedServingBlocks`) lets a
    fleet worker attach to menu-side arrays the supervisor published once
    in shared memory — price vector, support indices, scale factors —
    instead of materializing a private copy per process.  The blocks must
    carry this solution's fingerprint; a mismatch raises
    :class:`~repro.errors.ValidationError` rather than pricing from a
    skewed menu.  Shared or private, the arrays hold the same bits, so
    quotes remain bit-identical to cold ``solution.quote()`` either way.
    """

    def __init__(self, solution, shared=None) -> None:
        config = solution.engine_config
        self.solution = solution
        self.fingerprint: str = solution.fingerprint()
        self.strategy: str = solution.strategy
        self.algorithm: str = solution.algorithm
        self.n_items: int = solution.n_items
        self.theta: float = config.theta
        self.adoption = config.adoption.build()
        self.precision = config.precision
        self.storage = config.storage
        # Menu-side precomputes: per-offer supports (item-index arrays),
        # Equation-1 scale factors, and the price vector.  The level grid
        # the fit priced on is rebuilt once for introspection/health.
        offers = solution.configuration.offers
        self.offers = offers
        self.shared = shared
        if shared is None:
            self.offer_supports: tuple[np.ndarray, ...] = tuple(
                np.asarray(offer.bundle.items, dtype=np.intp) for offer in offers
            )
            self.offer_scales: tuple[float, ...] = tuple(
                1.0 + self.theta if offer.bundle.size >= 2 else 1.0 for offer in offers
            )
            self.price_vector: np.ndarray = np.asarray(
                [offer.price for offer in offers], dtype=np.float64
            )
        else:
            if shared.fingerprint != self.fingerprint:
                raise ValidationError(
                    "shared serving blocks were published for solution "
                    f"{shared.fingerprint[:12]}..., not {self.fingerprint[:12]}..."
                )
            prices, supports, offsets, scales = shared.open()
            if prices.shape[0] != len(offers):
                raise ValidationError(
                    f"shared serving blocks hold {prices.shape[0]} offers; "
                    f"the solution has {len(offers)}"
                )
            # Zero-copy views into the supervisor's blocks: N workers, one
            # resident copy of the menu arrays.
            self.offer_supports = tuple(
                supports[int(offsets[index]) : int(offsets[index + 1])]
                for index in range(len(offers))
            )
            self.offer_scales = tuple(float(scale) for scale in scales)
            self.price_vector = prices
        self.price_vector.setflags(write=False)
        self.grid = PriceGrid(n_levels=config.n_levels)
        # Mixed menus: the offer forest compiled once, for this state's
        # lifetime (every worker and every reload builds its own).
        self.plan: ForestPlan | None = None
        if isinstance(solution.configuration, MixedConfiguration):
            self.plan = ForestPlan(solution.configuration.forest())

    def close_shared(self) -> None:
        """Detach from shared menu blocks, if any (reload/retire path)."""
        if self.shared is not None:
            self.shared.close()

    def publish(self, store, key_prefix: str = "serving"):
        """Publish this state's menu arrays into a ``SharedWTPStore``.

        Returns the picklable :class:`~repro.core.shm.SharedServingBlocks`
        handle bundle a fleet worker passes back as ``shared=`` — the
        supervisor-side half of the one-copy-per-host contract.
        ``key_prefix`` namespaces the store keys (rolling reloads stage a
        second menu alongside the first).
        """
        from repro.core.shm import publish_serving_blocks

        return publish_serving_blocks(
            store,
            fingerprint=self.fingerprint,
            price_vector=self.price_vector,
            offer_supports=self.offer_supports,
            offer_scales=self.offer_scales,
            key_prefix=key_prefix,
        )

    # -------------------------------------------------------------- admission
    def prepare_rows(self, rows) -> PreparedRows:
        """Validate one request's WTP rows and convert them for serving.

        Mirrors the cold path's input handling exactly: the rows are built
        into a (validating) :class:`WTPMatrix` — non-numeric, ragged,
        negative, NaN, or infinite input raises
        :class:`~repro.errors.ValidationError` here, before the request is
        ever queued — then converted to the stored config's WTP backend
        the same way ``EngineConfig.build`` would.
        """
        if isinstance(rows, WTPMatrix):
            raise ValidationError(
                "serving expects raw consumer rows (list / ndarray / SciPy "
                "sparse), not a WTPMatrix — the server owns backend conversion"
            )
        matrix = WTPMatrix(rows)
        if self.precision is not None or self.storage is not None:
            matrix = matrix.with_backend(storage=self.storage, dtype=self.precision)
        if matrix.n_items != self.n_items:
            raise ValidationError(
                f"quote rows have {matrix.n_items} items; the serving solution "
                f"was fitted on {self.n_items}"
            )
        return PreparedRows(raw=rows, matrix=matrix, total_wtp=matrix.total, state=self)

    # ---------------------------------------------------------------- pricing
    def quote_batch(self, blocks: list[PreparedRows]) -> list[ServedQuote]:
        """Price several requests' rows with one warm kernel pass.

        The blocks' converted matrices are stacked into one batch matrix
        and priced together; each block's slice of the result is assembled
        into a :class:`ServedQuote` whose payments, revenue, and coverage
        are bit-identical to quoting that block alone.  Consults the
        ``quote_batch`` fault site first, so resilience tests can make the
        batched kernel fail on demand.
        """
        if faults.fire("quote_batch") is not None:
            raise ServingError("injected quote_batch fault")
        return self._quote_blocks(blocks, batched=True)

    def quote_single(self, block: PreparedRows) -> ServedQuote:
        """Price one request sequentially (the degraded fallback path)."""
        return self._quote_blocks([block], batched=False)[0]

    def _quote_blocks(
        self, blocks: list[PreparedRows], batched: bool
    ) -> list[ServedQuote]:
        if not blocks:
            return []
        for block in blocks:
            if block.matrix.n_items != self.n_items:
                raise ValidationError(
                    f"quote rows have {block.matrix.n_items} items; the serving "
                    f"solution was fitted on {self.n_items}"
                )
        matrix = blocks[0].matrix if len(blocks) == 1 else self._stack(blocks)
        bounds = np.cumsum([0] + [block.n_users for block in blocks])
        if self.plan is None:
            payments, per_offer_probs = self._pure_pass(matrix)
        else:
            payments = self.plan.payments(matrix, self.adoption, self.theta)
            per_offer_probs = None
        quotes = []
        for block, lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
            lo, hi = int(lo), int(hi)
            if per_offer_probs is not None:
                # Pure menus: replay evaluate()'s per-offer accumulation
                # order over this block's slice of the batch probabilities
                # (a contiguous slice sums bit-identically to the
                # standalone array the cold path would have reduced).
                revenue = 0.0
                for offer, probs in zip(self.offers, per_offer_probs):
                    if offer.price <= 0:
                        continue
                    revenue += offer.price * float(probs[lo:hi].sum())
            else:
                revenue = float(payments[lo:hi].sum())
            quotes.append(
                ServedQuote(
                    payments=payments[lo:hi].copy(),
                    revenue=float(revenue),
                    coverage=self._coverage(revenue, block.total_wtp),
                    fingerprint=self.fingerprint,
                    batched=batched,
                )
            )
        return quotes

    # ------------------------------------------------------------- internals
    def _pure_pass(self, matrix: WTPMatrix) -> tuple[np.ndarray, list]:
        """Per-user payments + per-offer adoption over the whole batch.

        The exact loop of :func:`repro.core.evaluation._pure_pass`, run
        against the precomputed offer supports instead of a rebuilt engine.
        """
        payments = np.zeros(matrix.n_users)
        per_offer_probs: list[np.ndarray | None] = []
        for items, scale, offer in zip(
            self.offer_supports, self.offer_scales, self.offers
        ):
            if offer.price <= 0:
                per_offer_probs.append(None)
                continue
            bundle_wtp = matrix.raw_sum(items) * scale
            probs = self.adoption.probability(bundle_wtp, offer.price)
            payments += offer.price * probs
            per_offer_probs.append(probs)
        return payments, per_offer_probs

    def _stack(self, blocks: list[PreparedRows]) -> WTPMatrix:
        """The blocks' raw rows stacked and converted as one batch matrix.

        Conversion runs once over the stacked rows through the exact cold
        sequence (``WTPMatrix`` then ``with_backend``); both steps are
        elementwise, so each block's rows convert to the same bits they
        converted to individually at admission.
        """
        raws = [block.raw for block in blocks]
        if any(hasattr(raw, "tocsc") for raw in raws):
            import scipy.sparse as sp

            def to_csc(raw):
                if hasattr(raw, "tocsc"):
                    return raw.tocsc()
                return sp.csc_array(np.asarray(raw, dtype=np.float64))

            stacked = sp.vstack([to_csc(raw) for raw in raws], format="csc")
        else:
            stacked = np.vstack([np.asarray(raw, dtype=np.float64) for raw in raws])
        matrix = WTPMatrix(stacked)
        if self.precision is not None or self.storage is not None:
            matrix = matrix.with_backend(storage=self.storage, dtype=self.precision)
        return matrix

    @staticmethod
    def _coverage(revenue: float, total_wtp: float) -> float:
        """``RevenueEngine.coverage`` against a precomputed denominator."""
        if total_wtp <= 0:
            return 0.0
        return revenue / total_wtp

    def __repr__(self) -> str:
        return (
            f"ServingState({self.algorithm}/{self.strategy}, "
            f"{len(self.offers)} offers over {self.n_items} items, "
            f"fingerprint={self.fingerprint[:12]}...)"
        )
