"""Deterministic, dependency-free surrogate training.

One :class:`GroupModel` per ``(operating context, port count)`` pair
(see :func:`repro.surrogate.dataset.context_signature`): a polynomial
ridge regression on ``L = ln load`` — fitted in log-target space
whenever the target is strictly positive, which linearises the
near-proportional power-vs-load curves the paper's figures sweep —
plus the verbatim training operating points, which double as an
exact-match memo and a nearest-operating-point interpolator for the
uncertainty band.  Port count is deliberately *not* interpolated:
fabrics exist at discrete (power-of-two) port counts and power scales
geometrically across them (crossbar wiring ~N^2, banyan ~N log N), so
a query at an untrained port count is out-of-distribution and falls
back to the real engines rather than being extrapolated.

Everything is pure Python floats and ``json`` round-trips (``repr``
float serialisation is exact), so a :class:`SurrogateModel` saved to
disk and loaded back produces bit-identical predictions.  Training is
seed-free and deterministic: the holdout split hashes record keys
(:func:`is_holdout_key`), the normal equations are solved by
Gauss-Jordan with partial pivoting, and serialisation orders groups by
context signature.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ConfigurationError

from repro.surrogate.dataset import (
    TARGET_FIELDS,
    DatasetRow,
    SurrogateDataset,
)

#: Basis term vocabulary; per-group subsets are chosen by how many
#: distinct loads the training slice actually covers.
_BASIS_TERMS = ("1", "L", "L2", "L3")

#: Index of the headline target inside :data:`TARGET_FIELDS`.
_TOTAL_INDEX = TARGET_FIELDS.index("total_power_w")


def is_holdout_key(key: str, modulus: int) -> bool:
    """Deterministic validation-slice membership for a record key.

    Hash-based (first 8 hex chars of the scenario content hash), so the
    same records land in the same slice in every process and PR.
    """
    return int(key[:8], 16) % modulus == 0


def _features(terms: tuple[str, ...], load: float, ports: int) -> list[float]:
    L = math.log(load)
    values = {"1": 1.0, "L": L, "L2": L * L, "L3": L * L * L}
    return [values[t] for t in terms]


def _gauss_jordan_inverse(matrix: list[list[float]]) -> list[list[float]]:
    """Invert a small symmetric positive-definite matrix in place-free
    Gauss-Jordan with partial pivoting (m <= 6, ridge guarantees
    invertibility)."""
    m = len(matrix)
    aug = [list(row) + [1.0 if i == j else 0.0 for j in range(m)]
           for i, row in enumerate(matrix)]
    for col in range(m):
        pivot_row = max(range(col, m), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot_row][col]) < 1e-300:
            raise ConfigurationError("singular normal-equation matrix")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for row in range(m):
            if row == col:
                continue
            factor = aug[row][col]
            if factor:
                aug[row] = [a - factor * b
                            for a, b in zip(aug[row], aug[col])]
    return [row[m:] for row in aug]


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(map(operator.mul, a, b))


def _mat_vec(
    matrix: Sequence[Sequence[float]], vec: Sequence[float]
) -> list[float]:
    return [_dot(row, vec) for row in matrix]


@dataclass
class GroupModel:
    """The fitted surrogate for one operating context."""

    terms: tuple[str, ...]
    #: One coefficient vector per target (aligned with TARGET_FIELDS).
    coef: tuple[tuple[float, ...], ...]
    #: Whether each target was fitted in log space.
    log_target: tuple[bool, ...]
    #: Per-target residual RMSE (log-space for log targets).
    rmse: tuple[float, ...]
    #: Inverse of the ridge normal matrix, for leverage checks.
    ainv: tuple[tuple[float, ...], ...]
    load_min: float
    load_max: float
    ports_min: int
    ports_max: int
    leverage_max: float
    #: Training operating points: (load, ports, targets tuple).
    points: tuple[tuple[float, int, tuple[float, ...]], ...]
    _exact: dict[tuple[float, int], tuple[float, ...]] | None = field(
        default=None, repr=False, compare=False
    )

    def exact_match(self, load: float, ports: int) -> tuple[float, ...] | None:
        if self._exact is None:
            self._exact = {(p[0], p[1]): p[2] for p in self.points}
        return self._exact.get((load, ports))

    def predict_target(self, index: int, x: list[float]) -> float:
        raw = _dot(self.coef[index], x)
        if self.log_target[index]:
            return math.exp(raw)
        return max(0.0, raw)

    def leverage(self, x: list[float]) -> float:
        return _dot(x, _mat_vec(self.ainv, x))

    @cached_property
    def _log_points(
        self,
    ) -> tuple[tuple[float, float, tuple[float, ...]], ...]:
        """The training points as (ln load, log2 ports, targets),
        computed once per curve."""
        return tuple(
            (math.log(load), math.log2(ports), targets)
            for load, ports, targets in self.points
        )

    def nearest_total(self, load: float, ports: int, k: int = 4) -> float:
        """Inverse-distance-weighted total power of the nearest
        training operating points (in (ln load, log2 ports) space)."""
        L, P = math.log(load), math.log2(ports)
        scored = sorted(
            ((pl - L) ** 2 + (pp - P) ** 2, targets)
            for pl, pp, targets in self._log_points
        )[:k]
        num = den = 0.0
        for dist2, targets in scored:
            w = 1.0 / (dist2 + 1e-12)
            num += w * targets[_TOTAL_INDEX]
            den += w
        return num / den

    def to_dict(self) -> dict[str, Any]:
        return {
            "terms": list(self.terms),
            "coef": [list(c) for c in self.coef],
            "log_target": list(self.log_target),
            "rmse": list(self.rmse),
            "ainv": [list(r) for r in self.ainv],
            "load_min": self.load_min,
            "load_max": self.load_max,
            "ports_min": self.ports_min,
            "ports_max": self.ports_max,
            "leverage_max": self.leverage_max,
            "points": [
                [load, ports, list(targets)]
                for load, ports, targets in self.points
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GroupModel":
        return cls(
            terms=tuple(data["terms"]),
            coef=tuple(tuple(c) for c in data["coef"]),
            log_target=tuple(bool(b) for b in data["log_target"]),
            rmse=tuple(data["rmse"]),
            ainv=tuple(tuple(r) for r in data["ainv"]),
            load_min=data["load_min"],
            load_max=data["load_max"],
            ports_min=data["ports_min"],
            ports_max=data["ports_max"],
            leverage_max=data["leverage_max"],
            points=tuple(
                (load, ports, tuple(targets))
                for load, ports, targets in data["points"]
            ),
        )


@dataclass
class SurrogateModel:
    """A JSON-round-trippable bundle of per-context surrogates."""

    store_hash: str
    ridge_lambda: float
    holdout_modulus: int
    #: context signature -> str(ports) -> fitted curve.
    groups: dict[str, dict[str, GroupModel]]
    n_train: int
    n_holdout: int
    target_fields: tuple[str, ...] = TARGET_FIELDS
    version: int = 1

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self, context: str, load: float, ports: int
    ) -> tuple[dict[str, float] | None, float, str | None]:
        """Raw surrogate evaluation: ``(values, band_w, ood_reason)``.

        ``values`` is ``None`` only when no curve exists for the
        (context, ports) pair at all.  A non-None ``ood_reason`` means
        the caller must fall back to simulation; ``values`` (when
        available) are then the extrapolated guess, useful only for
        drift accounting.
        """
        by_ports = self.groups.get(context)
        if by_ports is None:
            return None, math.inf, "unknown operating context"
        group = by_ports.get(str(ports))
        if group is None:
            trained = ", ".join(sorted(by_ports, key=int))
            return None, math.inf, (
                f"ports {ports} not in trained set {{{trained}}}"
            )
        exact = group.exact_match(load, ports)
        if exact is not None:
            values = dict(zip(self.target_fields, exact))
            return values, 0.0, None
        reason = None
        if not group.load_min <= load <= group.load_max:
            reason = (
                f"load {load:g} outside training range "
                f"[{group.load_min:g}, {group.load_max:g}]"
            )
        x = _features(group.terms, load, ports)
        if reason is None:
            leverage = group.leverage(x)
            threshold = 2.0 * group.leverage_max + 1e-9
            if leverage > threshold:
                reason = (
                    f"leverage {leverage:.3g} exceeds training threshold "
                    f"{threshold:.3g}"
                )
        values = {
            name: group.predict_target(i, x)
            for i, name in enumerate(self.target_fields)
        }
        total = values["total_power_w"]
        nearest = group.nearest_total(load, ports)
        rmse = group.rmse[_TOTAL_INDEX]
        if group.log_target[_TOTAL_INDEX]:
            rmse_w = total * (math.exp(rmse) - 1.0)
        else:
            rmse_w = rmse
        band = abs(total - nearest) + rmse_w
        return values, band, reason

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "store_hash": self.store_hash,
            "ridge_lambda": self.ridge_lambda,
            "holdout_modulus": self.holdout_modulus,
            "n_train": self.n_train,
            "n_holdout": self.n_holdout,
            "target_fields": list(self.target_fields),
            "groups": {
                context: {
                    ports: self.groups[context][ports].to_dict()
                    for ports in sorted(self.groups[context], key=int)
                }
                for context in sorted(self.groups)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SurrogateModel":
        if data.get("version") != 1:
            raise ConfigurationError(
                f"unsupported surrogate model version: {data.get('version')!r}"
            )
        return cls(
            store_hash=data["store_hash"],
            ridge_lambda=data["ridge_lambda"],
            holdout_modulus=data["holdout_modulus"],
            n_train=data["n_train"],
            n_holdout=data["n_holdout"],
            target_fields=tuple(data["target_fields"]),
            groups={
                context: {
                    ports: GroupModel.from_dict(group)
                    for ports, group in by_ports.items()
                }
                for context, by_ports in data["groups"].items()
            },
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SurrogateModel":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"invalid surrogate model JSON: {exc}"
            ) from exc
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                "surrogate model JSON must be an object"
            )
        try:
            return cls.from_dict(data)
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed surrogate model JSON: {exc!r}"
            ) from exc

    def content_hash(self) -> str:
        """Stable digest of the model — tied (via ``store_hash``) to
        the exact training records it was fitted on."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def save(self, path: str | os.PathLike) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "SurrogateModel":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read surrogate model '{path}': {exc}"
            ) from exc
        return cls.from_json(text)

    @property
    def n_curves(self) -> int:
        return sum(len(by_ports) for by_ports in self.groups.values())

    def stats(self) -> dict[str, Any]:
        return {
            "contexts": len(self.groups),
            "curves": self.n_curves,
            "n_train": self.n_train,
            "n_holdout": self.n_holdout,
            "store_hash": self.store_hash,
            "content_hash": self.content_hash(),
        }


def _fit_group(
    rows: list[DatasetRow], ridge_lambda: float
) -> GroupModel:
    loads = sorted({row.load for row in rows})
    ports = sorted({row.ports for row in rows})
    terms = ["1"]
    if len(loads) > 1:
        terms += ["L", "L2"]
    if len(loads) >= 6:
        terms += ["L3"]
    terms = tuple(t for t in _BASIS_TERMS if t in terms)
    m = len(terms)
    xs = [_features(terms, row.load, row.ports) for row in rows]
    # Ridge normal matrix (X'X + lambda I) and its inverse.
    normal = [[0.0] * m for _ in range(m)]
    for x in xs:
        for i in range(m):
            for j in range(m):
                normal[i][j] += x[i] * x[j]
    for i in range(m):
        normal[i][i] += ridge_lambda
    ainv = _gauss_jordan_inverse(normal)
    coef: list[tuple[float, ...]] = []
    log_flags: list[bool] = []
    rmse: list[float] = []
    for t_index in range(len(TARGET_FIELDS)):
        ys = [row.targets[t_index] for row in rows]
        use_log = all(y > 0.0 for y in ys)
        zs = [math.log(y) for y in ys] if use_log else ys
        xtz = [sum(x[i] * z for x, z in zip(xs, zs)) for i in range(m)]
        beta = _mat_vec(ainv, xtz)
        residuals = [_dot(x, beta) - z for x, z in zip(xs, zs)]
        coef.append(tuple(beta))
        log_flags.append(use_log)
        rmse.append(math.sqrt(sum(r * r for r in residuals) / len(rows)))
    leverage_max = max(_dot(x, _mat_vec(ainv, x)) for x in xs)
    return GroupModel(
        terms=terms,
        coef=tuple(coef),
        log_target=tuple(log_flags),
        rmse=tuple(rmse),
        ainv=tuple(tuple(row) for row in ainv),
        load_min=loads[0],
        load_max=loads[-1],
        ports_min=ports[0],
        ports_max=ports[-1],
        leverage_max=leverage_max,
        points=tuple(
            (row.load, row.ports, row.targets)
            for row in sorted(rows, key=lambda r: (r.load, r.ports, r.key))
        ),
    )


def train_surrogate(
    dataset: SurrogateDataset,
    *,
    ridge_lambda: float = 1e-6,
    holdout_modulus: int = 4,
) -> SurrogateModel:
    """Fit one surrogate per operating context in the dataset.

    Records whose key hashes into the holdout slice
    (:func:`is_holdout_key`, 1-in-``holdout_modulus``) are withheld for
    drift detection; everything else trains.  Fully deterministic.
    """
    if ridge_lambda <= 0.0:
        raise ConfigurationError("ridge_lambda must be > 0")
    if holdout_modulus < 2:
        raise ConfigurationError("holdout_modulus must be >= 2")
    train_rows = [
        row for row in dataset.rows
        if not is_holdout_key(row.key, holdout_modulus)
    ]
    n_holdout = len(dataset.rows) - len(train_rows)
    if not train_rows:
        raise ConfigurationError(
            "holdout split left no training rows; lower holdout_modulus "
            "or grow the store"
        )
    groups: dict[str, dict[str, list[DatasetRow]]] = {}
    for row in train_rows:
        groups.setdefault(row.context, {}).setdefault(
            str(row.ports), []
        ).append(row)
    fitted = {
        context: {
            ports: _fit_group(rows, ridge_lambda)
            for ports, rows in sorted(by_ports.items(), key=lambda kv: int(kv[0]))
        }
        for context, by_ports in sorted(groups.items())
    }
    return SurrogateModel(
        store_hash=dataset.store_hash,
        ridge_lambda=ridge_lambda,
        holdout_modulus=holdout_modulus,
        groups=fitted,
        n_train=len(train_rows),
        n_holdout=n_holdout,
    )
