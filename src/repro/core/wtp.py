"""The willingness-to-pay matrix ``W`` (paper, Section 3).

``W`` is an M×N non-negative matrix: ``W[u, i]`` is how much consumer ``u``
is willing to pay for item ``i``.  The matrix is the single input every
bundling algorithm consumes; Section 6.1.1's ratings-to-WTP mapping (in
:mod:`repro.data.wtp_mapping`) is one way to produce it.

Bundle-level willingness to pay follows Equation 1:

    w_{u,b} = (1 + θ) · Σ_{i∈b} w_{u,i}

with the convention — implied by the paper's statement that "θ only applies
to bundling, Components is not affected by θ" — that the interaction factor
``(1 + θ)`` applies only to bundles of two or more items.

Storage backends
----------------
Ratings-derived WTP matrices (Section 6.1.1) are overwhelmingly sparse —
most consumers rate a tiny fraction of the catalogue — and the scalability
study (Section 6.3) clones users into populations where a dense float64
copy alone dominates memory.  The matrix therefore supports three storage
backends behind one interface:

``storage="dense", dtype=float64``
    The default; numerically identical to the original implementation.
``storage="dense", dtype=float32``
    Half the memory; per-user sums are computed in float32 and returned as
    float64, so downstream pricing differs only by float32 rounding.
``storage="sparse"``
    SciPy CSC (column-compressed — every kernel access is column-oriented),
    float64 or float32 data; column sums and support masks cost
    density-proportional work and memory.

The kernel-facing contract is :meth:`WTPMatrix.raw_sum` (per-user sum over
item columns, always float64 out; :meth:`WTPMatrix.raw_sums` for several
equal-size bundles at once) and :meth:`WTPMatrix.support_mask` (boolean
"values any item positive" mask); both are exact for the default backend —
bit-identical to ``values[:, items].sum(axis=1)`` on two or more users —
and a user's sum never depends on which other users share the matrix.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from pathlib import Path

import numpy as np

from repro.core.bundle import Bundle
from repro.core.kernels import check_chunk_elements, chunk_width, iter_chunks
from repro.errors import ValidationError

DENSE = "dense"
SPARSE = "sparse"
STORAGES = (DENSE, SPARSE)

_DTYPE_NAMES = {"float64": np.float64, "float32": np.float32}


def _resolve_dtype(dtype) -> type:
    """Normalize a dtype spec to ``np.float64`` or ``np.float32``."""
    if dtype is None:
        return np.float64
    if isinstance(dtype, str) and dtype in _DTYPE_NAMES:
        return _DTYPE_NAMES[dtype]
    resolved = np.dtype(dtype)
    for candidate in (np.float64, np.float32):
        if resolved == np.dtype(candidate):
            return candidate
    raise ValidationError(
        f"WTP dtype must be float64 or float32, got {dtype!r}"
    )


def _scipy_sparse():
    """The sparse backend's only dependency, imported lazily."""
    try:
        import scipy.sparse as sp
    except ImportError as exc:  # pragma: no cover - scipy ships with the image
        raise ValidationError(
            "the sparse WTP backend requires scipy; install it or use storage='dense'"
        ) from exc
    return sp


def _fold_last_axis(block: np.ndarray) -> np.ndarray:
    """A gathered ``(users, ..., items)`` block summed over items, as float64.

    With two or more users numpy sums the gathered items of each user left
    to right (the summed axis is not its innermost loop); a lone user's
    items would be summed pairwise instead, so a user's sum would depend
    on how many users share the matrix.  ``np.add.accumulate`` folds that
    single row left to right as well.
    """
    if block.shape[0] == 1 and block.shape[-1]:
        total = np.add.accumulate(block, axis=-1)[..., -1].copy()
    else:
        total = block.sum(axis=-1)
    return total.astype(np.float64, copy=False)


def _is_sparse(values) -> bool:
    try:
        import scipy.sparse as sp
    except ImportError:  # pragma: no cover
        return False
    return sp.issparse(values)


class WTPMatrix:
    """M×N willingness-to-pay matrix with pluggable storage.

    Parameters
    ----------
    values:
        Array-like of shape ``(n_users, n_items)`` — or a SciPy sparse
        matrix.  Entries must be finite and non-negative.  Input is copied
        (dense storage is frozen read-only).
    item_labels:
        Optional human-readable item names (used by case-study reports).
    storage:
        ``"dense"`` or ``"sparse"``; ``None`` (default) keeps sparse input
        sparse and everything else dense.
    dtype:
        ``float64`` (default) or ``float32``.
    """

    def __init__(
        self,
        values,
        item_labels: Sequence[str] | None = None,
        *,
        storage: str | None = None,
        dtype=None,
    ) -> None:
        if isinstance(values, WTPMatrix):
            if item_labels is None:
                item_labels = values.item_labels
            values = values._csc if values.storage == SPARSE else values._values
        if storage is None:
            storage = SPARSE if _is_sparse(values) else DENSE
        if storage not in STORAGES:
            raise ValidationError(f"storage must be one of {STORAGES}, got {storage!r}")
        self._storage = storage
        self._dtype = _resolve_dtype(dtype)
        if storage == DENSE:
            self._values = self._build_dense(values)
            self._csc = None
        else:
            self._csc = self._build_sparse(values)
            self._values = None
        if item_labels is not None:
            labels = [str(label) for label in item_labels]
            if len(labels) != self.n_items:
                raise ValidationError(
                    f"got {len(labels)} item labels for {self.n_items} items"
                )
            self._item_labels: tuple[str, ...] | None = tuple(labels)
        else:
            self._item_labels = None

    # ------------------------------------------------------------ construction
    def _build_dense(self, values) -> np.ndarray:
        if _is_sparse(values):
            values = values.toarray()
        try:
            array = np.asarray(values, dtype=self._dtype)
        except (TypeError, ValueError) as exc:
            # Ragged rows or non-numeric entries: numpy's coercion error,
            # re-raised as the API's validation error.
            raise ValidationError(f"WTP matrix input is not numeric 2-D: {exc}") from exc
        if array.ndim != 2:
            raise ValidationError(f"WTP matrix must be 2-D, got shape {array.shape}")
        if array.shape[0] == 0 or array.shape[1] == 0:
            raise ValidationError(f"WTP matrix must be non-empty, got shape {array.shape}")
        if not np.all(np.isfinite(array)):
            raise ValidationError("WTP matrix contains non-finite entries")
        if np.any(array < 0):
            raise ValidationError("WTP matrix contains negative entries")
        array = array.copy()
        array.setflags(write=False)
        return array

    def _build_sparse(self, values):
        sp = _scipy_sparse()
        if not sp.issparse(values):
            try:
                values = np.asarray(values, dtype=self._dtype)
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"WTP matrix input is not numeric 2-D: {exc}"
                ) from exc
            if values.ndim != 2:
                raise ValidationError(
                    f"WTP matrix must be 2-D, got shape {values.shape}"
                )
        matrix = sp.csc_array(values, dtype=self._dtype)
        if matrix.ndim != 2:
            raise ValidationError(f"WTP matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ValidationError(
                f"WTP matrix must be non-empty, got shape {matrix.shape}"
            )
        matrix.sum_duplicates()
        if not np.all(np.isfinite(matrix.data)):
            raise ValidationError("WTP matrix contains non-finite entries")
        if np.any(matrix.data < 0):
            raise ValidationError("WTP matrix contains negative entries")
        # Stored structure == positive support, relied on by support_mask.
        matrix.eliminate_zeros()
        return matrix

    # ------------------------------------------------------------------ shape
    @property
    def n_users(self) -> int:
        """M, the number of consumers."""
        return self._shape[0]

    @property
    def n_items(self) -> int:
        """N, the number of items."""
        return self._shape[1]

    @property
    def _shape(self) -> tuple[int, int]:
        return self._values.shape if self._csc is None else self._csc.shape

    @property
    def storage(self) -> str:
        """``"dense"`` or ``"sparse"``."""
        return self._storage

    @property
    def dtype(self) -> np.dtype:
        """Element dtype of the backing store."""
        return np.dtype(self._dtype)

    @property
    def nnz(self) -> int:
        """Number of positive entries."""
        if self._csc is not None:
            return int(self._csc.nnz)
        return int(np.count_nonzero(self._values))

    @property
    def density(self) -> float:
        """Fraction of positive entries."""
        return self.nnz / (self.n_users * self.n_items)

    @property
    def values(self) -> np.ndarray:
        """The matrix as a read-only dense array.

        For the sparse backend this *materializes* an M×N array on every
        access — use :meth:`raw_sum` / :meth:`support_mask` / :meth:`column`
        in anything performance- or memory-sensitive.
        """
        if self._csc is not None:
            dense = self._csc.toarray()
            dense.setflags(write=False)
            return dense
        return self._values

    @property
    def item_labels(self) -> tuple[str, ...] | None:
        """Item names if provided at construction."""
        return self._item_labels

    def label_of(self, item: int) -> str:
        """Readable name for *item* (falls back to ``"item <i>"``)."""
        if self._item_labels is not None:
            return self._item_labels[item]
        return f"item {item}"

    # ------------------------------------------------------------- aggregates
    @property
    def total(self) -> float:
        """Aggregate willingness to pay — the revenue upper bound.

        The denominator of the paper's *revenue coverage* metric
        (Section 6.1.2).
        """
        if self._csc is not None:
            return float(self._csc.data.sum(dtype=np.float64))
        return float(self._values.sum())

    def column(self, item: int) -> np.ndarray:
        """Per-user WTP for a single item (read-only, storage dtype)."""
        if self._csc is not None:
            dense = self._csc[:, [item]].toarray().ravel()
            dense.setflags(write=False)
            return dense
        return self._values[:, item]

    def iter_columns(
        self, chunk_elements: int | None = None
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, block)`` dense column blocks under a budget.

        ``block`` holds the item columns ``[start, stop)`` as a read-only
        dense ``(n_users, stop-start)`` array in the storage dtype: a
        zero-copy view for dense storage, a chunk-materialized array for
        sparse storage.  At most ``chunk_elements`` dense values are alive
        per block, so consumers that scan the whole matrix — transaction
        building, subset enumeration, list-price baselines — never
        materialize the full M×N array.  ``chunk_elements=None`` yields one
        all-columns block (the streaming kernels' convention for
        "unchunked").
        """
        width = chunk_width(
            self.n_items, self.n_users, check_chunk_elements(chunk_elements)
        )
        for start, stop in iter_chunks(self.n_items, width):
            if self._csc is not None:
                block = self._csc[:, start:stop].toarray()
                block.setflags(write=False)
            else:
                block = self._values[:, start:stop]
            yield start, stop, block

    # --------------------------------------------------------- kernel contract
    def raw_sum(self, items: Sequence[int]) -> np.ndarray:
        """Per-user WTP summed over *items*, as float64.

        This is the kernel-facing raw-WTP primitive.  For the default dense
        float64 backend it is ``values[:, list(items)].sum(axis=1)``
        (bit-identical to the original implementation), with a lone user's
        row folded left to right like every row of a larger matrix, so a
        user's sum does not depend on the other rows; the float32 backend
        sums in float32 before widening; the sparse backend sums only
        stored entries.
        """
        items = list(items)
        if self._csc is not None:
            out = self._csc[:, items].sum(axis=1)
            return np.asarray(out, dtype=np.float64).ravel()
        return _fold_last_axis(self._values[:, items])

    def raw_sums(self, index_matrix) -> np.ndarray:
        """Per-user WTP of several equal-size bundles at once, as float64.

        ``index_matrix`` is an ``(n_bundles, k)`` integer array, one bundle
        per row; column ``j`` of the ``(n_users, n_bundles)`` result is
        bit-identical to ``raw_sum(index_matrix[j])``: the dense backends
        sum each user's ``k`` gathered values in the same order, and the
        sparse backend calls :meth:`raw_sum` per bundle.
        """
        index_matrix = np.asarray(index_matrix, dtype=np.intp)
        if self._csc is not None:
            return np.stack([self.raw_sum(items) for items in index_matrix], axis=1)
        return _fold_last_axis(self._values[:, index_matrix])

    def support_mask(self, items: Sequence[int]) -> np.ndarray:
        """Boolean mask of users with positive WTP for *any* of *items*."""
        items = list(items)
        if self._csc is not None:
            mask = np.zeros(self.n_users, dtype=bool)
            indptr, indices = self._csc.indptr, self._csc.indices
            for item in items:
                mask[indices[indptr[item] : indptr[item + 1]]] = True
            return mask
        return (self._values[:, items] > 0).any(axis=1)

    def bundle_wtp(self, bundle: Bundle, theta: float = 0.0) -> np.ndarray:
        """Per-user WTP for *bundle* under Equation 1 (float64).

        The ``(1 + θ)`` interaction factor applies only when the bundle has
        two or more items; a singleton's WTP is the item's WTP unchanged.
        """
        if bundle.size == 1:
            return np.asarray(self.column(bundle.items[0]), dtype=np.float64).copy()
        return self.raw_sum(bundle.items) * (1.0 + theta)

    def support(self, bundle: Bundle) -> np.ndarray:
        """Boolean mask of users with positive WTP for any item of *bundle*."""
        return self.support_mask(bundle.items)

    # ------------------------------------------------------------ persistence
    def save_npz(self, path) -> None:
        """Persist to a compressed ``.npz`` in storage-native form.

        Dense storage writes the value array (the historical ``values``
        layout, still loadable by older readers); sparse storage writes its
        CSC triplet — the matrix is never densified to serialize it.
        """
        payload: dict[str, np.ndarray] = {}
        if self._item_labels is not None:
            payload["labels"] = np.array(self._item_labels)
        if self._csc is not None:
            payload["shape"] = np.array(self._csc.shape, dtype=np.int64)
            payload["data"] = self._csc.data
            payload["indices"] = self._csc.indices
            payload["indptr"] = self._csc.indptr
        else:
            payload["values"] = self._values
        np.savez_compressed(Path(path), **payload)

    @classmethod
    def load_npz(cls, path) -> "WTPMatrix":
        """Inverse of :meth:`save_npz` (reads both layouts).

        The stored payload's dtype is preserved, so a float32 matrix
        round-trips as float32 instead of silently widening to the
        constructor's float64 default.
        """
        with np.load(Path(path), allow_pickle=False) as archive:
            labels = archive["labels"].tolist() if "labels" in archive.files else None
            if "values" in archive.files:
                values = archive["values"]
                return cls(values, item_labels=labels, dtype=values.dtype)
            sp = _scipy_sparse()
            matrix = sp.csc_array(
                (archive["data"], archive["indices"], archive["indptr"]),
                shape=tuple(archive["shape"]),
            )
            return cls(matrix, item_labels=labels, dtype=matrix.dtype)

    # ----------------------------------------------------------- derivations
    def with_backend(self, storage: str | None = None, dtype=None) -> "WTPMatrix":
        """This matrix converted to another storage backend / dtype.

        Returns ``self`` when nothing changes.
        """
        target_storage = storage if storage is not None else self._storage
        target_dtype = _resolve_dtype(dtype) if dtype is not None else self._dtype
        if target_storage == self._storage and target_dtype == self._dtype:
            return self
        source = self._csc if self._csc is not None else self._values
        return WTPMatrix(
            source,
            item_labels=self._item_labels,
            storage=target_storage,
            dtype=target_dtype,
        )

    def subset_items(self, items: Sequence[int]) -> "WTPMatrix":
        """A new matrix restricted to the given item columns (reindexed 0..)."""
        items = list(items)
        if not items:
            raise ValidationError("cannot build a WTP matrix with zero items")
        labels = None
        if self._item_labels is not None:
            labels = [self._item_labels[i] for i in items]
        source = (
            self._csc[:, items] if self._csc is not None else self._values[:, items]
        )
        return WTPMatrix(
            source, item_labels=labels, storage=self._storage, dtype=self._dtype
        )

    def subset_users(self, users: Sequence[int]) -> "WTPMatrix":
        """A new matrix restricted to the given user rows."""
        users = list(users)
        if not users:
            raise ValidationError("cannot build a WTP matrix with zero users")
        if self._csc is not None:
            source = self._csc.tocsr()[users, :]
        else:
            source = self._values[users, :]
        return WTPMatrix(
            source,
            item_labels=self._item_labels,
            storage=self._storage,
            dtype=self._dtype,
        )

    def apply_delta(self, removed: Sequence[int], added=None) -> "WTPMatrix":
        """Population churn: drop user rows, append new ones (same backend).

        ``removed`` holds indices into the *current* population; ``added``
        is an optional ``(n_added, n_items)`` array-like of new rows.
        Retained users keep their relative order and the added rows are
        appended after them, so every retained user's row — and with it any
        per-user aggregate (:meth:`raw_sum`, :meth:`support_mask`) — is
        bit-identical to the pre-delta matrix.  This is the matrix-level
        primitive behind :class:`repro.core.delta.PopulationDelta`.
        """
        removed = list(removed)
        if len(set(removed)) != len(removed):
            raise ValidationError("removed user indices must be unique")
        for user in removed:
            if not 0 <= int(user) < self.n_users:
                raise ValidationError(
                    f"removed user index {user} out of range for {self.n_users} users"
                )
        keep = np.ones(self.n_users, dtype=bool)
        if removed:
            keep[np.asarray(removed, dtype=np.intp)] = False
        if added is not None:
            added = np.asarray(added, dtype=np.float64)
            if added.ndim != 2 or (added.size and added.shape[1] != self.n_items):
                raise ValidationError(
                    f"added rows must have shape (n, {self.n_items}), "
                    f"got {added.shape}"
                )
        if not np.any(keep) and (added is None or added.shape[0] == 0):
            raise ValidationError("a delta may not remove the entire population")
        if self._csc is not None:
            sp = _scipy_sparse()
            parts = [self._csc.tocsr()[np.flatnonzero(keep), :]]
            if added is not None and added.shape[0]:
                parts.append(sp.csr_array(added.astype(self._dtype)))
            source = sp.vstack(parts, format="csc") if len(parts) > 1 else parts[0]
        else:
            parts = [self._values[keep]]
            if added is not None and added.shape[0]:
                parts.append(added.astype(self._dtype))
            source = np.vstack(parts) if len(parts) > 1 else parts[0]
        return WTPMatrix(
            source,
            item_labels=self._item_labels,
            storage=self._storage,
            dtype=self._dtype,
        )

    def clone_users(self, factor: int) -> "WTPMatrix":
        """Stack *factor* copies of the user population (Section 6.3).

        The paper's scalability study "clones the users in the same dataset
        using a multiplication factor"; this reproduces that workload.
        """
        if factor < 1:
            raise ValidationError(f"clone factor must be >= 1, got {factor}")
        if self._csc is not None:
            sp = _scipy_sparse()
            source = sp.vstack([self._csc] * factor, format="csc")
        else:
            source = np.vstack([self._values] * factor)
        return WTPMatrix(
            source,
            item_labels=self._item_labels,
            storage=self._storage,
            dtype=self._dtype,
        )

    def scaled(self, factor: float) -> "WTPMatrix":
        """A new matrix with every entry multiplied by *factor* (> 0)."""
        if factor <= 0:
            raise ValidationError(f"scale factor must be > 0, got {factor}")
        source = (
            self._csc * factor if self._csc is not None else self._values * factor
        )
        return WTPMatrix(
            source,
            item_labels=self._item_labels,
            storage=self._storage,
            dtype=self._dtype,
        )

    def __repr__(self) -> str:
        backend = ""
        if self._storage != DENSE or self._dtype is not np.float64:
            backend = f", storage={self._storage!r}, dtype={np.dtype(self._dtype).name!r}"
        return (
            f"WTPMatrix(n_users={self.n_users}, n_items={self.n_items}, "
            f"total={self.total:.2f}{backend})"
        )
