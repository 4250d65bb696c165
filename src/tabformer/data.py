"""Dataset ingestion, schemas, standardization, stratified folds, and a
synthetic generator with known ground truth.

Ingest works on columns. ``load_csv`` transposes the reader's rows a
chunk at a time into one list of stripped tokens per column, and the
builder makes one pass over each column: one float conversion per cell
both decides the column's kind and gives its values, one dict pass gives
a categorical column's codes, and each column is written into one
preallocated matrix. The generator formats its table a column at a time
and hands those columns to the same builder.

Conventions baked in here:

* missing numeric cells impute to raw 0.0 BEFORE any standardization;
* categorical vocabularies are ordered by first appearance, with a
  reserved UNK index (== len(vocabulary)) for categories never seen at
  fit time;
* standardization uses the population std with a 1e-8 floor, and its
  statistics must come from training rows only (the fit/apply split
  makes that explicit). They live only in the schema's numeric columns
  (``mean``, ``std``), so a checkpoint's schema is its standardizer;
* stratification shuffles within each class and deals round-robin, so
  per-fold class counts differ from the proportional share by at most 1.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, replace
from itertools import islice, repeat
from typing import Optional, Sequence, Tuple

import numpy as np

from .autodiff import Tensor, sigmoid
from .errors import ConfigError, DataError, check_field_types, from_dict, read_json
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
        if not self.columns:
            raise DataError("schema has no feature columns")
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


_CHUNK_ROWS = 4096  # rows transposed at a time: the table is never held as rows


def _floats(tokens: Sequence[str], blank: float) -> Optional[list]:
    """One float conversion per cell, ``blank`` for an empty cell; None
    when some cell is not a number."""
    try:
        return [float(tok) if tok else blank for tok in tokens]
    except ValueError:
        return None


def _first_bad(items: Sequence, ok) -> tuple:
    """File line (header = 1) and value of the first of a column's cells,
    or a chunk's rows, that ``ok`` rejects. Only error messages walk a
    column a cell at a time."""
    i = next(i for i, item in enumerate(items) if not ok(item))
    return i + 2, items[i]


def _build_dataset(
    names: Sequence[str],
    columns: Sequence[Sequence[str]],
    labels: Sequence[float],
    schema_hints: Optional[dict] = None,
    add_missing_indicators: bool = False,
) -> Dataset:
    """Shared builder behind load_csv and the synthetic generator: one
    pass over each column of stripped tokens, written into one matrix.

    Kind inference: a column is numeric when every non-empty cell parses
    as a float; hints override. Empty cells are missing for numeric
    columns (imputed 0.0) and a first-class empty-string category for
    categorical ones.
    """
    hints = dict(schema_hints or {})
    for name, kind in hints.items():
        if name not in names:
            raise ConfigError(f"schema hint for unknown column {name!r}")
        if kind not in (NUMERIC, CATEGORICAL):
            raise ConfigError(f"schema hint for {name!r} must be numeric or categorical")

    matrix = np.empty((len(labels), len(names)), dtype=np.float64)
    schema = []
    indicators = []  # (name, blank flags) of each numeric column
    for j, (name, tokens) in enumerate(zip(names, columns)):
        kind = hints.get(name)
        values = None if kind == CATEGORICAL else _floats(tokens, 0.0)
        if values is None and kind == NUMERIC:
            line, tok = _first_bad(tokens, lambda t: _floats([t], 0.0) is not None)
            raise DataError(f"line {line}: column {name!r} value {tok!r} is not numeric")
        if values is None:
            vocab: dict = {}  # first-appearance order
            matrix[:, j] = [vocab.setdefault(tok, len(vocab)) for tok in tokens]
            schema.append(ColumnSchema(name=name, kind=CATEGORICAL, vocabulary=tuple(vocab)))
        else:
            matrix[:, j] = values
            schema.append(ColumnSchema(name=name, kind=NUMERIC))
            if add_missing_indicators:
                indicators.append((f"{name}__missing", [not tok for tok in tokens]))

    if indicators:
        matrix = np.column_stack([matrix, *(blank for _, blank in indicators)])
        schema += [ColumnSchema(name=name, kind=NUMERIC) for name, _ in indicators]
    labels_arr = np.asarray(labels, dtype=np.int64)
    return Dataset(rows=matrix, labels=labels_arr, schema=FeatureSchema(tuple(schema)))


def load_csv(
    path,
    target_column: str,
    schema_hints: Optional[dict] = None,
    add_missing_indicators: bool = False,
) -> Dataset:
    """Load a UTF-8, comma-separated, headered CSV into a Dataset.

    Empty string means missing. Labels must parse to exactly 0 or 1.
    Faults name the offending file line (header = 1): a ragged row
    anywhere is reported before a bad label, and a bad label before a
    bad feature cell. A leading byte-order mark is skipped; a file that
    is not UTF-8 or not CSV is a DataError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty")
            header = [h.strip() for h in header]
            if repeated := sorted(h for h, count in Counter(header).items() if count > 1):
                raise DataError(f"{path}: repeated header names {repeated}")
            if target_column not in header:
                raise DataError(f"{path}: target column {target_column!r} not in header")
            columns = [[] for _ in header]
            while chunk := list(islice(reader, _CHUNK_ROWS)):
                if set(map(len, chunk)) != {len(header)}:
                    line, row = _first_bad(chunk, lambda r: len(r) == len(header))
                    raise DataError(
                        f"line {line + len(columns[0])}: expected {len(header)} cells, found {len(row)}"
                    )
                for column, cells in zip(columns, zip(*chunk)):
                    column += map(str.strip, cells)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None

    target_idx = header.index(target_column)
    del header[target_idx]
    tokens = columns.pop(target_idx)
    labels = _floats(tokens, math.nan)
    if labels is None or not set(labels) <= {0.0, 1.0}:
        line, tok = _first_bad(tokens, lambda t: _floats([t], math.nan) in ([0.0], [1.0]))
        raise DataError(f"line {line}: label {tok!r} is not 0 or 1")
    return _build_dataset(header, columns, labels, schema_hints, add_missing_indicators)


def encode_as(dataset: Dataset, schema: FeatureSchema) -> Dataset:
    """``dataset`` under ``schema`` (a checkpoint's, say): each categorical
    cell re-coded to its level's index in ``schema``'s vocabulary, or to
    the column's UNK index when ``schema`` lacks the level. Column names
    and kinds must match, or it is a DataError."""
    if [(c.name, c.kind) for c in dataset.schema.columns] != [(c.name, c.kind) for c in schema.columns]:
        raise DataError("dataset columns (names and kinds) do not match the checkpoint's schema")
    rows = dataset.rows.copy()
    for j in schema.categorical_indices():
        index = {level: i for i, level in enumerate(schema.columns[j].vocabulary)}
        unk = schema.columns[j].unk_index
        codes = [index.get(level, unk) for level in dataset.schema.columns[j].vocabulary]
        rows[:, j] = np.array(codes + [unk], dtype=np.float64)[rows[:, j].astype(np.int64)]
    return Dataset(rows=rows, labels=dataset.labels, schema=schema)


# ---------------------------------------------------------------------------
# Standardization


def fit_standardizer(rows: np.ndarray, schema: FeatureSchema) -> FeatureSchema:
    """``schema`` with the mean and population std of each numeric column
    of ``rows`` (training rows only) stamped in: the fitted schema is the
    standardizer, and checkpoints save it."""
    if rows.shape[0] < 2:
        raise DataError("standardizer needs at least 2 training rows")
    idx = schema.numeric_indices()
    cols = rows[:, idx]
    with np.errstate(over="ignore"):  # an overflow is the DataError below
        means, stds = cols.mean(axis=0), cols.std(axis=0)  # population std
    if not (np.isfinite(means).all() and np.isfinite(stds).all()):
        raise DataError("numeric values too large to standardize: a mean or std overflows")
    columns = list(schema.columns)
    for j, mean, std in zip(idx, means.tolist(), stds.tolist()):
        columns[j] = replace(columns[j], mean=mean, std=std)
    return FeatureSchema(tuple(columns))


def apply_standardizer(rows: np.ndarray, schema: FeatureSchema) -> np.ndarray:
    """(x - mean) / max(std, 1e-8) on numeric columns, with the statistics
    stamped in ``schema`` (a DataError if absent); categorical untouched."""
    idx = standardizer_from_schema(schema).numeric_indices()
    means = np.array([schema.columns[j].mean for j in idx], dtype=np.float64)
    stds = np.array([schema.columns[j].std for j in idx], dtype=np.float64)
    out = rows.astype(np.float64, copy=True)
    out[:, idx] = (out[:, idx] - means) / np.maximum(stds, _STD_FLOOR)
    return out


def standardizer_from_schema(schema: FeatureSchema) -> FeatureSchema:
    """``schema`` itself, once every numeric column is checked to carry
    fitted statistics; a ``DataError`` names the first that does not."""
    for j in schema.numeric_indices():
        col = schema.columns[j]
        if col.mean is None or col.std is None:
            raise DataError(f"column {col.name!r} carries no fitted statistics")
    return schema


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
    for cls in (0, 1):
        members = int(np.count_nonzero(np.asarray(labels) == cls))
        if members < parts:
            raise DataError(
                f"the early-stopping validation holdout ({fraction:.1%} of the rows) needs at "
                f"least {parts} rows of each class; class {cls} has {members}"
            )
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
        if not self.columns:
            raise ConfigError("a generator spec needs at least one column")
        names = [col.name for col in self.columns]
        if len(set(names)) != len(names) or self.target in names:
            raise ConfigError(f"column names {names} repeat or include the target {self.target!r}")
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
    return GeneratorSpec.from_dict(read_json(path, "spec"))


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


def _generate_columns(spec: GeneratorSpec, n: int, seed: Optional[int]):
    """(names, one list of CSV cells per column, labels) of the table
    generate_table writes."""
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    seed = spec.seed if seed is None else int(seed)
    values = _draw_values(spec, n, seed)
    p = true_probabilities(spec, values)
    y = (stream_rng(seed, "synth", _GEN_LABELS).random(n) < p).astype(np.int64)
    if spec.noise_rate > 0.0:
        flips = stream_rng(seed, "synth", _GEN_NOISE).random(n) < spec.noise_rate
        y = np.where(flips, 1 - y, y)

    columns = []
    for j, col in enumerate(spec.columns):
        blank = repeat(False)
        if col.missing and spec.missing_rate > 0.0:
            draws = stream_rng(seed, "synth", _GEN_MISSING_BASE + j).random(n)
            blank = (draws < spec.missing_rate).tolist()
        fmt = repr if col.kind == NUMERIC else (lambda v: f"c{v:.0f}")
        columns.append(["" if b else fmt(v) for v, b in zip(values[:, j].tolist(), blank)])
    return [c.name for c in spec.columns], columns, y


def generate_table(spec: GeneratorSpec, n: int, seed: Optional[int] = None):
    """Raw generated table: (header, string rows, labels).

    Missing cells are empty strings, exactly as they would appear in the
    CSV interchange format. Numeric cells use repr() so a CSV round trip
    is bit-exact.
    """
    names, columns, y = _generate_columns(spec, n, seed)
    rows = [list(row) for row in zip(*columns, map(str, y.tolist()))]
    return names + [spec.target], rows, y


def generate_synthetic(spec: GeneratorSpec, n: int, seed: Optional[int] = None) -> Dataset:
    """Generate a Dataset through the same builder the CSV loader uses,
    so generate -> write -> load is value-identical."""
    names, columns, y = _generate_columns(spec, n, seed)
    return _build_dataset(names, columns, y, schema_hints={c.name: c.kind for c in spec.columns})


def write_csv(header: Sequence[str], rows: Sequence[Sequence[str]], path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
