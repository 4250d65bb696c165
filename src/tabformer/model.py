"""Transformer for tabular rows, plus logistic and MLP baselines.

Every model kind shares one interface (``ScoringModel``): a row-width
check, ``forward_batch``, ``forward(row)`` and a chunked
``predict_proba``. Logistic regression is the MLP with no hidden layer.
``MODELS`` maps each kind name to its factory; building, checkpoint
loading and the CLI's choices all go through it.

Architecture: each feature becomes one d-dimensional token (numeric:
x_j * W_j + b_j; categorical: embedding lookup with a reserved UNK row),
a learned classification token is appended LAST, the sequence passes
through pre-norm residual blocks (x + MHSA(LN(x)), then x + FFN(LN(x))
with GELU), and the head reads the classification token through a layer
norm and an affine map to a single logit. No positional encodings, so
the forward pass is equivariant under feature permutation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .data import CATEGORICAL, NUMERIC, FeatureSchema
from .errors import ConfigError, DataError, NumericError, ShapeError, check_field_types, from_dict
from .seeding import stream_rng


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 64
    n_heads: int = 8
    n_blocks: int = 3
    ffn_dim: int = 128
    dropout: float = 0.1
    head_hidden: Optional[int] = None
    layer_norm_eps: float = 1e-5

    def __post_init__(self):
        check_field_types(self)
        for label, v in (
            ("embed_dim", self.embed_dim),
            ("n_heads", self.n_heads),
            ("n_blocks", self.n_blocks),
            ("ffn_dim", self.ffn_dim),
        ):
            if v < 1:
                raise ConfigError(f"{label} must be at least 1, got {v}")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.head_hidden is not None and self.head_hidden < 1:
            raise ConfigError(f"head_hidden must be at least 1, got {self.head_hidden}")
        if self.layer_norm_eps <= 0:
            raise ConfigError("layer_norm_eps must be positive")

    @property
    def d_k(self) -> int:
        return self.embed_dim // self.n_heads

    def to_dict(self) -> dict:
        return asdict(self)

    from_dict = classmethod(from_dict)


def _uniform(rng: np.random.Generator, shape, bound: float) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape)


def _matrix(rng, name, n_in, n_out) -> Parameter:
    return Parameter(_uniform(rng, (n_in, n_out), 1.0 / math.sqrt(n_in)), name=name, decay=True)


def _bias(name, n) -> Parameter:
    return Parameter(np.zeros(n), name=name, decay=False)


def _check_rows(X: np.ndarray, n_features: int) -> None:
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ShapeError(f"expected rows of length {n_features}, got shape {X.shape}")


# ---------------------------------------------------------------------------
# Attention primitives


def attention_logits(q: Tensor, k: Tensor) -> Tensor:
    """Pre-softmax scores: exactly (Q K^T) * (1 / sqrt(d_k))."""
    d_k = q.shape[-1]
    return ad.mul_scalar(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(d_k))


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax_rows(Q K^T / sqrt(d_k)) V for aligned [.., t, d_k] inputs."""
    if q.shape[-1] != k.shape[-1] or k.shape[:-1] != v.shape[:-1]:
        raise ShapeError(
            f"attention shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}"
        )
    return ad.matmul(ad.softmax_rows(attention_logits(q, k)), v)


# ---------------------------------------------------------------------------
# Modules


class FeatureTokenizer:
    """Per-feature token embedding plus the learned classification token.

    Tokens are built numeric-block-first, then reordered to schema
    order, so mixed schemas keep feature index j at token row j. The
    classification token is row n_features (last).
    """

    def __init__(self, schema: FeatureSchema, embed_dim: int, rng: np.random.Generator):
        self.schema = schema
        self.embed_dim = embed_dim
        self.numeric_idx = schema.numeric_indices()
        self.categorical_idx = schema.categorical_indices()
        bound = 1.0 / math.sqrt(embed_dim)

        self._params = []
        self.numeric_w = None
        self.numeric_b = None
        if self.numeric_idx.size:
            self.numeric_w = Parameter(
                _uniform(rng, (self.numeric_idx.size, embed_dim), bound),
                name="tokenizer.numeric_w",
                decay=True,
            )
            self.numeric_b = _bias("tokenizer.numeric_b", (self.numeric_idx.size, embed_dim))
            self._params += [self.numeric_w, self.numeric_b]
        self.tables = []
        for j in self.categorical_idx:
            col = schema.columns[j]
            table = Parameter(
                _uniform(rng, (col.n_categories, embed_dim), bound),
                name=f"tokenizer.table.{col.name}",
                decay=True,
            )
            self.tables.append(table)
            self._params.append(table)
        self.cls = Parameter(
            _uniform(rng, (embed_dim,), bound), name="tokenizer.cls", decay=False
        )
        self._params.append(self.cls)

        order = np.concatenate([self.numeric_idx, self.categorical_idx]).astype(int)
        self._perm = np.argsort(order) if order.size else order
        self._identity_order = bool(np.array_equal(self._perm, np.arange(order.size)))

    def parameters(self) -> list:
        return list(self._params)

    def forward_batch(self, X: np.ndarray) -> Tensor:
        _check_rows(X, self.schema.n_features)
        parts = []
        if self.numeric_idx.size:
            parts.append(ad.feature_embed(X[:, self.numeric_idx], self.numeric_w, self.numeric_b))
        for table, j in zip(self.tables, self.categorical_idx):
            codes = X[:, j].astype(np.int64)
            tok = ad.embedding_rows(table, codes)
            parts.append(ad.reshape(tok, (X.shape[0], 1, self.embed_dim)))
        tokens = parts[0] if len(parts) == 1 else ad.concat(parts, axis=-2)
        if not self._identity_order:
            tokens = ad.permute_rows(tokens, self._perm)
        cls_row = ad.repeat_token(self.cls, X.shape[0])
        return ad.concat([tokens, cls_row], axis=-2)


class TransformerBlock:
    """Pre-norm residual block: x + MHSA(LN(x)); x + FFN(LN(x)).

    Dropout (train mode only) hits each sublayer output before the
    residual addition and the attention probabilities themselves.

    ``forward`` runs each sublayer as one fused op,
    ``autodiff.attention_sublayer`` and ``autodiff.ffn_sublayer``: two
    tape nodes per block, computed in cache-sized tiles of rows.
    ``multi_head`` is the same attention written with primitive ops: the
    oracle whose output the fused op must match bit for bit. With
    ``last_only`` the block returns the last token's row only,
    [..., 1, d]: every token still feeds keys and values, and the
    dropout masks are still drawn at their full shapes (the last-token
    rule in ``autodiff``).

    Attention runs all heads as one batch. q, k and v come from the
    three d x d projections and are split into heads with the head axis
    FIRST: [..., t, h*d_k] -> [h, ..., t, d_k], head j owning columns
    j*d_k:(j+1)*d_k. One batched Q K^T, softmax, dropout and P V follow,
    then the heads are merged back and projected by w_o. Head-first
    order makes the (h, ..., t, t) dropout mask consume the rng in the
    same order as drawing one mask per head in turn, and it keeps
    unbatched (t, d) input working unchanged.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator, index: int):
        d = config.embed_dim
        self.config = config
        n = f"blocks.{index}"
        # projections are bias-free: a key bias shifts every score in a
        # softmax row equally, so it can never affect the output
        self.w_q = _matrix(rng, f"{n}.w_q", d, d)
        self.w_k = _matrix(rng, f"{n}.w_k", d, d)
        self.w_v = _matrix(rng, f"{n}.w_v", d, d)
        self.w_o = _matrix(rng, f"{n}.w_o", d, d)
        self.ln1_g = Parameter(np.ones(d), name=f"{n}.ln1_g", decay=False)
        self.ln1_b = _bias(f"{n}.ln1_b", d)
        self.ln2_g = Parameter(np.ones(d), name=f"{n}.ln2_g", decay=False)
        self.ln2_b = _bias(f"{n}.ln2_b", d)
        self.ffn_w1 = _matrix(rng, f"{n}.ffn_w1", d, config.ffn_dim)
        self.ffn_b1 = _bias(f"{n}.ffn_b1", config.ffn_dim)
        self.ffn_w2 = _matrix(rng, f"{n}.ffn_w2", config.ffn_dim, d)
        self.ffn_b2 = _bias(f"{n}.ffn_b2", d)

    def parameters(self) -> list:
        return [
            self.w_q, self.w_k, self.w_v, self.w_o,
            self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b,
            self.ffn_w1, self.ffn_b1, self.ffn_w2, self.ffn_b2,
        ]

    def multi_head(self, x: Tensor, training: bool = False, rng=None) -> Tensor:
        cfg = self.config

        def heads(w):
            return ad.split_heads(ad.matmul(x, w), cfg.n_heads)

        # v is projected after the scores: in eval mode q and k are freed
        # by then, so v is not alive while the (h, ..., t, t) scores are
        # being scaled and normalised, which lowers peak memory
        probs = ad.softmax_rows(attention_logits(heads(self.w_q), heads(self.w_k)))
        if training and cfg.dropout > 0.0:
            probs = ad.dropout(probs, cfg.dropout, rng, training=True)
        return ad.matmul(ad.merge_heads(ad.matmul(probs, heads(self.w_v))), self.w_o)

    def forward(self, x: Tensor, training: bool = False, rng=None, last_only: bool = False) -> Tensor:
        cfg = self.config
        eps, rate = cfg.layer_norm_eps, cfg.dropout if training else 0.0
        tokens = x.shape[-2]
        x = ad.attention_sublayer(
            x, self.ln1_g, self.ln1_b, self.w_q, self.w_k, self.w_v, self.w_o,
            cfg.n_heads, eps, rate, rng, last_only=last_only,
        )
        return ad.ffn_sublayer(
            x, self.ln2_g, self.ln2_b, self.ffn_w1, self.ffn_b1, self.ffn_w2, self.ffn_b2,
            eps, rate, rng, mask_tokens=tokens,
        )


class ScoringModel:
    """What every model kind shares. A subclass sets ``kind``,
    ``schema`` and ``seed`` and defines ``parameters()`` (the checkpoint
    serialization order), ``config_dict()`` and ``_logits(X, training,
    rng)``, the pre-sigmoid [n, 1] scores."""

    kind: str

    def forward_batch(self, X: np.ndarray, training: bool = False, rng=None) -> Tensor:
        _check_rows(X, self.schema.n_features)
        z = self._logits(X, training, rng)
        return ad.reshape(ad.sigmoid(z), (X.shape[0],))

    def forward(self, row: np.ndarray, training: bool = False, rng=None) -> float:
        row = np.asarray(row, dtype=np.float64)
        if row.ndim != 1:
            raise ShapeError(f"expected a single row, got shape {row.shape}")
        return float(self.forward_batch(row[None, :], training, rng).data[0])

    def predict_proba(self, X: np.ndarray, batch_size: int = 1024) -> np.ndarray:
        """Eval-mode probabilities with no graph recording."""
        out = np.empty(X.shape[0], dtype=np.float64)
        for lo in range(0, X.shape[0], batch_size):
            chunk = X[lo : lo + batch_size]
            out[lo : lo + chunk.shape[0]] = self.forward_batch(chunk).data
        return out


class Model(ScoringModel):
    """Full tabular transformer. The head reads only the classification
    token, so the last block runs with ``last_only`` and computes that
    token's row alone; every block still runs through
    ``TransformerBlock.forward``."""

    kind = "transformer"

    def __init__(self, config: ModelConfig, schema: FeatureSchema, seed: int = 0):
        self.config = config
        self.schema = schema
        self.seed = int(seed)
        rng = stream_rng(self.seed, "init")
        self.tokenizer = FeatureTokenizer(schema, config.embed_dim, rng)
        self.blocks = [TransformerBlock(config, rng, i) for i in range(config.n_blocks)]
        d = config.embed_dim
        self.head_ln_g = Parameter(np.ones(d), name="head.ln_g", decay=False)
        self.head_ln_b = _bias("head.ln_b", d)
        if config.head_hidden is None:
            self.head_w1 = _matrix(rng, "head.w1", d, 1)
            self.head_b1 = _bias("head.b1", 1)
            self.head_w2 = None
            self.head_b2 = None
        else:
            self.head_w1 = _matrix(rng, "head.w1", d, config.head_hidden)
            self.head_b1 = _bias("head.b1", config.head_hidden)
            self.head_w2 = _matrix(rng, "head.w2", config.head_hidden, 1)
            self.head_b2 = _bias("head.b2", 1)

    def parameters(self) -> list:
        params = self.tokenizer.parameters()
        for blk in self.blocks:
            params += blk.parameters()
        params += [self.head_ln_g, self.head_ln_b, self.head_w1, self.head_b1]
        if self.head_w2 is not None:
            params += [self.head_w2, self.head_b2]
        return params

    def config_dict(self) -> dict:
        return self.config.to_dict()

    def _logits(self, X: np.ndarray, training: bool, rng) -> Tensor:
        if training and self.config.dropout > 0.0 and rng is None:
            raise ConfigError("training-mode forward with dropout needs an rng")
        try:
            x = self.tokenizer.forward_batch(X)
        except NumericError as exc:
            raise NumericError(f"tokenizer: {exc}") from None
        last = len(self.blocks) - 1
        for i, blk in enumerate(self.blocks):
            try:
                x = blk.forward(x, training, rng, last_only=i == last)
            except NumericError as exc:
                raise NumericError(f"block {i}: {exc}") from None
        try:
            cls = ad.select_row(x, 0)  # the last block kept the classification token only
            h = ad.layer_norm(cls, self.head_ln_g, self.head_ln_b, self.config.layer_norm_eps)
            z = ad.add_bias(ad.matmul(h, self.head_w1), self.head_b1)
            if self.head_w2 is not None:
                z = ad.add_bias(ad.matmul(ad.gelu(z), self.head_w2), self.head_b2)
        except NumericError as exc:
            raise NumericError(f"head: {exc}") from None
        return z


class MlpModel(ScoringModel):
    """GELU multi-layer perceptron ending in a sigmoid. An empty hidden
    stack is logistic regression (``LogisticModel``)."""

    kind = "mlp"
    hidden: Tuple[int, ...]

    def __init__(self, schema: FeatureSchema, hidden: Sequence[int] = (64, 64), seed: int = 0):
        self.schema = schema
        self.hidden = tuple(hidden) if isinstance(hidden, list) else hidden
        check_field_types(self)
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden sizes must be positive, got {self.hidden}")
        self.seed = int(seed)
        rng = stream_rng(self.seed, "init")
        dims = [schema.n_features] + list(self.hidden) + [1]
        self.weights = []
        self.biases = []
        for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
            self.weights.append(_matrix(rng, f"mlp.w{i}", n_in, n_out))
            self.biases.append(_bias(f"mlp.b{i}", n_out))

    def parameters(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out += [w, b]
        return out

    def config_dict(self) -> dict:
        return {"hidden": list(self.hidden)}

    def _logits(self, X: np.ndarray, training: bool, rng) -> Tensor:
        h = Tensor(X)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.add_bias(ad.matmul(h, w), b)
            if i != last:
                h = ad.gelu(h)
        return h


class LogisticModel(MlpModel):
    """sigmoid(w . x + b) over the standardized feature vector;
    categorical features enter as their integer codes. This is the MLP
    with no hidden layer: the same init draws, ops and ``.bin`` layout."""

    kind = "logistic"

    def __init__(self, schema: FeatureSchema, seed: int = 0):
        super().__init__(schema, hidden=(), seed=seed)
        self.w, self.b = self.weights[0], self.biases[0]

    def config_dict(self) -> dict:
        return {}


# Model kind -> factory(schema, seed, config dict), for user configs and
# checkpoint manifests alike. The baselines ignore keys they do not use
# (a transformer config may be passed to them); the transformer rejects
# unknown keys.
MODELS = {
    Model.kind: lambda schema, seed, config: Model(ModelConfig.from_dict(config), schema, seed),
    LogisticModel.kind: lambda schema, seed, config: LogisticModel(schema, seed),
    MlpModel.kind: lambda schema, seed, config: MlpModel(schema, config.get("hidden", (64, 64)), seed),
}


# ---------------------------------------------------------------------------
# Checkpoints: <prefix>.json manifest + <prefix>.bin little-endian float64


def build_model(kind: str, schema: FeatureSchema, seed: int = 0, config: Optional[dict] = None):
    if kind not in MODELS:
        raise ConfigError(f"unknown model kind {kind!r}")
    return MODELS[kind](schema, seed, dict(config or {}))


# required manifest keys; "bin_sha256" is optional, because manifests
# written before it was recorded lack it
_MANIFEST_KEYS = ("kind", "config", "schema", "schema_fingerprint", "seed")


def save_checkpoint(model, prefix) -> None:
    """Write ``<prefix>.json`` and ``<prefix>.bin``, each in full to a
    temp file beside it before both are renamed over their targets, so
    a failed write leaves the old pair (or none), never a partial file.
    The manifest records the SHA-256 of the ``.bin`` bytes."""
    prefix = str(prefix)
    flat = np.concatenate([p.data.ravel() for p in model.parameters()])
    raw = flat.astype("<f8").tobytes()
    manifest = {
        "kind": model.kind,
        "config": model.config_dict(),
        "schema": model.schema.to_dict(),
        "schema_fingerprint": model.schema.fingerprint(),
        "seed": model.seed,
        "bin_sha256": hashlib.sha256(raw).hexdigest(),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    files = {prefix + ".json": text.encode("utf-8"), prefix + ".bin": raw}
    temps = []
    try:
        for path, data in files.items():
            temps.append(f"{path}.{os.getpid()}.tmp")
            with open(temps[-1], "wb") as fh:
                fh.write(data)
        for path, tmp in zip(files, temps):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


def load_checkpoint(prefix):
    """Rebuild the model ``save_checkpoint`` wrote. A ``.bin`` whose
    bytes do not hash to the manifest's ``bin_sha256``, when it records
    one, is a DataError."""
    prefix = str(prefix)
    try:
        with open(prefix + ".json", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise DataError(f"{prefix}.json: invalid manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{prefix}.json: manifest must be a JSON object")
    missing = [k for k in _MANIFEST_KEYS if k not in manifest]
    if missing:
        raise DataError(f"{prefix}.json: manifest lacks {missing}")
    kind, config, seed = manifest["kind"], manifest["config"], manifest["seed"]
    if not isinstance(kind, str) or kind not in MODELS:
        raise DataError(f"checkpoint has unknown model kind {kind!r}")
    if not isinstance(config, dict) or isinstance(seed, bool) or not isinstance(seed, int):
        raise DataError(f"{prefix}.json: manifest needs a config object and an integer seed")
    # the manifest is data: a value its own checks reject is a DataError
    try:
        schema = FeatureSchema.from_dict(manifest["schema"])
        if schema.fingerprint() != manifest["schema_fingerprint"]:
            raise DataError("checkpoint schema does not match its recorded fingerprint")
        model = MODELS[kind](schema, seed, config)
    except ConfigError as exc:
        raise DataError(f"{prefix}.json: {exc}") from None
    with open(prefix + ".bin", "rb") as fh:
        raw = fh.read()
    digest = manifest.get("bin_sha256")
    if digest is not None and hashlib.sha256(raw).hexdigest() != digest:
        raise DataError(f"{prefix}.bin: the parameter bytes do not match the manifest's SHA-256")
    params = model.parameters()
    expect = sum(p.size for p in params)
    if len(raw) != 8 * expect:
        raise DataError(f"checkpoint holds {len(raw)} parameter bytes, model needs {8 * expect}")
    flat = np.frombuffer(raw, dtype="<f8")
    pos = 0
    for p in params:
        p.data[...] = flat[pos : pos + p.size].reshape(p.data.shape)
        pos += p.size
    return model
