"""Dataset ingestion, schemas, standardization, stratified folds, and a
synthetic generator with known ground truth.

Conventions baked in here:

* missing numeric cells impute to raw 0.0 BEFORE any standardization;
* categorical vocabularies are ordered by first appearance, with a
  reserved UNK index (== len(vocabulary)) for categories never seen at
  fit time;
* standardization uses the population std with a 1e-8 floor, and its
  statistics must come from training rows only (the fit/apply split
  makes that explicit);
* stratification shuffles within each class and deals round-robin, so
  per-fold class counts differ from the proportional share by at most 1.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .autodiff import Tensor, sigmoid
from .errors import ConfigError, DataError, check_field_types, from_dict
from .seeding import stream_rng

NUMERIC = "numeric"
CATEGORICAL = "categorical"

_STD_FLOOR = 1e-8

# substream ids for the generator's draw order (per-column values, then
# labels, label noise, and per-column missingness masks)
_GEN_LABELS = 1_000_000
_GEN_NOISE = 1_000_001
_GEN_MISSING_BASE = 2_000_000


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str
    vocabulary: Tuple[str, ...] = ()
    mean: Optional[float] = None
    std: Optional[float] = None

    def __post_init__(self):
        check_field_types(self)

    @property
    def n_categories(self) -> int:
        """Vocabulary size including the reserved UNK slot."""
        return len(self.vocabulary) + 1

    @property
    def unk_index(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True)
class FeatureSchema:
    columns: Tuple[ColumnSchema, ...]

    def __post_init__(self):
        check_field_types(self)
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names in schema")
        for c in self.columns:
            if c.kind not in (NUMERIC, CATEGORICAL):
                raise ConfigError(f"unknown column kind {c.kind!r} for {c.name!r}")
            if len(set(c.vocabulary)) != len(c.vocabulary):
                raise DataError(f"duplicate vocabulary entries in column {c.name!r}")
            if c.std is not None and c.std < 0:
                raise DataError(f"negative std in column {c.name!r}")

    @property
    def names(self) -> list:
        return [c.name for c in self.columns]

    @property
    def n_features(self) -> int:
        return len(self.columns)

    def numeric_indices(self) -> np.ndarray:
        return np.array([i for i, c in enumerate(self.columns) if c.kind == NUMERIC], dtype=int)

    def categorical_indices(self) -> np.ndarray:
        return np.array([i for i, c in enumerate(self.columns) if c.kind == CATEGORICAL], dtype=int)

    def fingerprint(self) -> str:
        """Hash of names/kinds/vocabularies. Standardization stats are
        fold-dependent and deliberately excluded."""
        payload = json.dumps(
            [[c.name, c.kind, list(c.vocabulary)] for c in self.columns],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> dict:
        return asdict(self)

    from_dict = classmethod(from_dict)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix + binary labels + schema.

    ``rows`` holds imputed raw values: numeric columns unscaled (missing
    cells already 0.0), categorical columns as float-typed vocabulary
    indices. Standardized copies are produced per training split.
    """

    rows: np.ndarray
    labels: np.ndarray
    schema: FeatureSchema

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[0] != self.labels.shape[0]:
            raise DataError(f"rows {self.rows.shape} and labels {self.labels.shape} disagree")
        if self.rows.shape[1] != self.schema.n_features:
            raise DataError(
                f"matrix has {self.rows.shape[1]} columns, schema has {self.schema.n_features}"
            )
        if not np.isfinite(self.rows).all():
            raise DataError("dataset contains non-finite values after imputation")
        if self.labels.size and not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        for j, col in enumerate(self.schema.columns):
            if col.kind == CATEGORICAL:
                vals = self.rows[:, j]
                if vals.size and (vals.min() < 0 or vals.max() >= col.n_categories):
                    raise DataError(f"categorical index out of range in column {col.name!r}")

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            rows=self.rows[idx].copy(),
            labels=self.labels[idx].copy(),
            schema=self.schema,
        )


# ---------------------------------------------------------------------------
# CSV ingestion


def _parse_numeric(token: str) -> Optional[float]:
    try:
        return float(token)
    except ValueError:
        return None


def _parse_label(token: str, line_no: int) -> int:
    v = _parse_numeric(token.strip())
    if v is None or v not in (0.0, 1.0):
        raise DataError(f"line {line_no}: label {token!r} is not 0 or 1")
    return int(v)


def _build_dataset(
    names: Sequence[str],
    cells: Sequence[Sequence[str]],
    labels: Sequence[int],
    schema_hints: Optional[dict] = None,
    add_missing_indicators: bool = False,
) -> Dataset:
    """Shared builder behind load_csv and the synthetic generator.

    Kind inference: a column is numeric when every non-empty cell parses
    as a float; hints override. Empty cells are missing for numeric
    columns (imputed 0.0) and a first-class empty-string category for
    categorical ones.
    """
    hints = dict(schema_hints or {})
    for name in hints:
        if name not in names:
            raise ConfigError(f"schema hint for unknown column {name!r}")
    n_cols = len(names)
    kinds = []
    for j, name in enumerate(names):
        if name in hints:
            kind = hints[name]
            if kind not in (NUMERIC, CATEGORICAL):
                raise ConfigError(f"schema hint for {name!r} must be numeric or categorical")
        else:
            kind = NUMERIC
            for row in cells:
                tok = row[j].strip()
                if tok and _parse_numeric(tok) is None:
                    kind = CATEGORICAL
                    break
        kinds.append(kind)

    n = len(cells)
    matrix = np.zeros((n, n_cols), dtype=np.float64)
    missing = np.zeros((n, n_cols), dtype=bool)
    columns = []
    for j, (name, kind) in enumerate(zip(names, kinds)):
        if kind == NUMERIC:
            for i, row in enumerate(cells):
                tok = row[j].strip()
                if not tok:
                    missing[i, j] = True  # imputed as raw 0.0
                    continue
                v = _parse_numeric(tok)
                if v is None:
                    raise DataError(f"line {i + 2}: column {name!r} value {tok!r} is not numeric")
                matrix[i, j] = v
            columns.append(ColumnSchema(name=name, kind=NUMERIC))
        else:
            vocab: dict = {}
            for i, row in enumerate(cells):
                tok = row[j].strip()
                if tok not in vocab:
                    vocab[tok] = len(vocab)  # first-appearance order
                matrix[i, j] = vocab[tok]
            columns.append(ColumnSchema(name=name, kind=CATEGORICAL, vocabulary=tuple(vocab)))

    if add_missing_indicators:
        indicator_cols = [j for j, k in enumerate(kinds) if k == NUMERIC]
        extra = missing[:, indicator_cols].astype(np.float64)
        matrix = np.hstack([matrix, extra])
        for j in indicator_cols:
            columns.append(ColumnSchema(name=f"{names[j]}__missing", kind=NUMERIC))

    schema = FeatureSchema(tuple(columns))
    labels_arr = np.asarray(labels, dtype=np.int64)
    return Dataset(rows=matrix, labels=labels_arr, schema=schema)


def load_csv(
    path,
    target_column: str,
    schema_hints: Optional[dict] = None,
    add_missing_indicators: bool = False,
) -> Dataset:
    """Load a UTF-8, comma-separated, headered CSV into a Dataset.

    Empty string means missing. Labels must parse to exactly 0 or 1.
    Ragged rows fail with the offending file line number (header = 1).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if target_column not in header:
            raise DataError(f"{path}: target column {target_column!r} not in header")
        target_idx = header.index(target_column)
        names = [h for i, h in enumerate(header) if i != target_idx]

        cells = []
        labels = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"line {line_no}: expected {len(header)} cells, found {len(row)}"
                )
            labels.append(_parse_label(row[target_idx], line_no))
            cells.append([c for i, c in enumerate(row) if i != target_idx])

    return _build_dataset(names, cells, labels, schema_hints, add_missing_indicators)


# ---------------------------------------------------------------------------
# Standardization


@dataclass(frozen=True)
class Standardizer:
    """Per-numeric-column mean/std, fitted on training rows only."""

    numeric_indices: np.ndarray
    means: np.ndarray
    stds: np.ndarray


def fit_standardizer(rows: np.ndarray, schema: FeatureSchema) -> Standardizer:
    if rows.shape[0] < 2:
        raise DataError("standardizer needs at least 2 training rows")
    idx = schema.numeric_indices()
    cols = rows[:, idx]
    return Standardizer(
        numeric_indices=idx,
        means=cols.mean(axis=0),
        stds=cols.std(axis=0),  # population std
    )


def apply_standardizer(rows: np.ndarray, stats: Standardizer) -> np.ndarray:
    """(x - mean) / max(std, 1e-8) on numeric columns; categorical untouched."""
    out = rows.astype(np.float64, copy=True)
    idx = stats.numeric_indices
    if idx.size:
        out[:, idx] = (out[:, idx] - stats.means) / np.maximum(stats.stds, _STD_FLOOR)
    return out


def schema_with_stats(schema: FeatureSchema, stats: Standardizer) -> FeatureSchema:
    """Schema copy carrying the fitted statistics (for checkpoints)."""
    by_index = {int(j): k for k, j in enumerate(stats.numeric_indices)}
    cols = []
    for j, col in enumerate(schema.columns):
        if j in by_index:
            k = by_index[j]
            cols.append(replace(col, mean=float(stats.means[k]), std=float(stats.stds[k])))
        else:
            cols.append(col)
    return FeatureSchema(tuple(cols))


def standardizer_from_schema(schema: FeatureSchema) -> Standardizer:
    idx = schema.numeric_indices()
    means = []
    stds = []
    for j in idx:
        col = schema.columns[j]
        if col.mean is None or col.std is None:
            raise DataError(f"column {col.name!r} carries no fitted statistics")
        means.append(col.mean)
        stds.append(col.std)
    return Standardizer(numeric_indices=idx, means=np.array(means), stds=np.array(stds))


# ---------------------------------------------------------------------------
# Stratified folds


@dataclass(frozen=True)
class FoldAssignment:
    k: int
    assignment: np.ndarray
    seed: int

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def other_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def stratified_k_fold(labels: np.ndarray, k: int, seed: int) -> FoldAssignment:
    """Shuffle within each class (seeded), deal round-robin to k folds.

    Guarantees per-fold class counts within +-1 of the proportional
    share and a deterministic assignment for a fixed seed.
    """
    if k < 2:
        raise ConfigError(f"k must be at least 2, got {k}")
    labels = np.asarray(labels)
    rng = stream_rng(seed, "folds")
    assignment = np.full(labels.shape[0], -1, dtype=np.int64)
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if members.size < k:
            raise DataError(
                f"class {cls} has {members.size} members, fewer than k={k} folds"
            )
        shuffled = rng.permutation(members)
        assignment[shuffled] = np.arange(shuffled.size) % k
    return FoldAssignment(k=k, assignment=assignment, seed=seed)


def stratified_holdout(labels: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Boolean mask selecting a stratified holdout of roughly ``fraction``.

    Implemented as one fold of a round(1/fraction)-fold stratified deal,
    which inherits the +-1 class balance guarantee.
    """
    if not 0.0 < fraction < 0.5:
        raise ConfigError(f"holdout fraction must be in (0, 0.5), got {fraction}")
    parts = int(round(1.0 / fraction))
    assignment = stratified_k_fold(labels, parts, seed)
    return assignment.assignment == 0


# ---------------------------------------------------------------------------
# Synthetic generator


@dataclass(frozen=True)
class GeneratorColumn:
    name: str
    kind: str = NUMERIC
    categories: int = 2
    missing: bool = False

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class GeneratorSpec:
    """Ground-truth recipe: numeric columns are standard normals,
    categorical columns uniform indices, and labels are Bernoulli draws
    of sigmoid(weights . values + interaction products + bias).

    Categorical columns enter the logit through their integer index.
    ``missing_rate`` applies only to columns flagged ``missing`` and
    blanks the cell after the label was drawn from the full value.
    """

    columns: Tuple[GeneratorColumn, ...]
    weights: Tuple[float, ...]
    bias: float = 0.0
    noise_rate: float = 0.0
    missing_rate: float = 0.0
    # ((i, j), weight) pairs added to the logit
    interactions: Tuple[Tuple[Tuple[int, int], float], ...] = ()
    seed: int = 0
    target: str = "label"

    def __post_init__(self):
        check_field_types(self)
        if len(self.weights) != len(self.columns):
            raise ConfigError(
                f"{len(self.weights)} weights for {len(self.columns)} columns"
            )
        for rate, label in ((self.noise_rate, "noise_rate"), (self.missing_rate, "missing_rate")):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{label} must lie in [0, 1], got {rate}")
        for (i, j), _w in self.interactions:
            if not (0 <= i < len(self.columns) and 0 <= j < len(self.columns)):
                raise ConfigError(f"interaction pair ({i}, {j}) out of range")
        for col in self.columns:
            if col.kind not in (NUMERIC, CATEGORICAL):
                raise ConfigError(f"unknown generator column kind {col.kind!r}")
            if col.kind == CATEGORICAL and col.categories < 2:
                raise ConfigError(f"column {col.name!r} needs at least 2 categories")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["interactions"] = [{"pair": [i, j], "weight": w} for (i, j), w in self.interactions]
        return doc

    @classmethod
    def from_dict(cls, doc) -> "GeneratorSpec":
        """The shared reader, once each ``{"pair": [i, j], "weight": w}``
        interaction is the ``((i, j), w)`` pair it stands for."""
        if isinstance(doc, dict) and isinstance(doc.get("interactions"), list):
            pairs = []
            for e in doc["interactions"]:
                if not isinstance(e, dict) or set(e) != {"pair", "weight"}:
                    raise ConfigError(f'an interaction is {{"pair": [i, j], "weight": w}}, got {e!r}')
                pairs.append((e["pair"], e["weight"]))
            doc = {**doc, "interactions": pairs}
        return from_dict(cls, doc)


def load_generator_spec(path) -> GeneratorSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"spec file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return GeneratorSpec.from_dict(doc)


def _draw_values(spec: GeneratorSpec, n: int, seed: int) -> np.ndarray:
    values = np.zeros((n, len(spec.columns)), dtype=np.float64)
    for j, col in enumerate(spec.columns):
        rng = stream_rng(seed, "synth", j)
        if col.kind == NUMERIC:
            values[:, j] = rng.standard_normal(n)
        else:
            values[:, j] = rng.integers(0, col.categories, size=n).astype(np.float64)
    return values


def true_probabilities(spec: GeneratorSpec, values: np.ndarray) -> np.ndarray:
    """Ground-truth P(y=1 | values); the Bayes-optimal scorer."""
    logit = values @ np.asarray(spec.weights, dtype=np.float64) + spec.bias
    for (i, j), w in spec.interactions:
        logit = logit + w * values[:, i] * values[:, j]
    return sigmoid(Tensor(logit)).data


def bayes_probabilities(spec: GeneratorSpec, n: int, seed: Optional[int] = None) -> np.ndarray:
    """Ground-truth P(y=1) for row i of generate_table(spec, n, seed).

    Scores the generator's own value draw, so it stays aligned with the
    emitted rows even when vocabulary encoding reorders category codes.
    """
    seed = spec.seed if seed is None else int(seed)
    return true_probabilities(spec, _draw_values(spec, n, seed))


def generate_table(spec: GeneratorSpec, n: int, seed: Optional[int] = None):
    """Raw generated table: (header, string rows, labels).

    Missing cells are empty strings, exactly as they would appear in the
    CSV interchange format. Numeric cells use repr() so a CSV round trip
    is bit-exact.
    """
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    seed = spec.seed if seed is None else int(seed)
    values = _draw_values(spec, n, seed)
    p = true_probabilities(spec, values)
    y = (stream_rng(seed, "synth", _GEN_LABELS).random(n) < p).astype(np.int64)
    if spec.noise_rate > 0.0:
        flips = stream_rng(seed, "synth", _GEN_NOISE).random(n) < spec.noise_rate
        y = np.where(flips, 1 - y, y)

    blank = np.zeros((n, len(spec.columns)), dtype=bool)
    if spec.missing_rate > 0.0:
        for j, col in enumerate(spec.columns):
            if col.missing:
                mask = stream_rng(seed, "synth", _GEN_MISSING_BASE + j).random(n)
                blank[:, j] = mask < spec.missing_rate

    header = [c.name for c in spec.columns] + [spec.target]
    rows = []
    for i in range(n):
        row = []
        for j, col in enumerate(spec.columns):
            if blank[i, j]:
                row.append("")
            elif col.kind == NUMERIC:
                row.append(repr(float(values[i, j])))
            else:
                row.append(f"c{int(values[i, j])}")
        row.append(str(int(y[i])))
        rows.append(row)
    return header, rows, y


def generate_synthetic(spec: GeneratorSpec, n: int, seed: Optional[int] = None) -> Dataset:
    """Generate a Dataset through the same builder the CSV loader uses,
    so generate -> write -> load is value-identical."""
    header, rows, y = generate_table(spec, n, seed)
    names = header[:-1]
    cells = [row[:-1] for row in rows]
    hints = {c.name: c.kind for c in spec.columns}
    return _build_dataset(names, cells, list(y), schema_hints=hints)


def write_csv(header: Sequence[str], rows: Sequence[Sequence[str]], path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
