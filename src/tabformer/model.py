"""Transformer for tabular rows, plus logistic and MLP baselines.

Every model kind shares one interface (``ScoringModel``): a row-width
check, ``forward_batch``, ``forward(row)`` and a chunked
``predict_proba``. One dense stack, built by ``_dense_stack`` as the
flat parameter list (w0, b0, w1, b1, ...) that ``autodiff.dense_stack``
runs as one op, is the MLP, logistic regression (no hidden layer) and
the transformer's head; a numeric failure in it names the layer,
"hidden i" or "output". ``MODELS`` maps each kind name to its factory;
building, checkpoint loading and the CLI's choices all go through it.
A checkpoint manifest is encoded by ``errors.json_text``.

Architecture: each feature becomes one d-dimensional token (numeric:
x_j * W_j + b_j; categorical: its rows of one embedding table, UNK last),
a learned classification token is appended LAST, the sequence passes
through pre-norm residual blocks (x + MHSA(LN(x)), then x + FFN(LN(x))
with GELU), and the head reads the classification token through a layer
norm and the dense stack to a single logit: one affine map, or two with
a GELU between them when ``head_hidden`` is set. No positional
encodings, so the forward pass is equivariant under feature permutation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .data import FeatureSchema
from .errors import (
    ConfigError, DataError, NumericError, ShapeError, check_field_types, from_dict, json_text, read_json,
    write_files,
)
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


def _uniform(rng: np.random.Generator, shape, bound: float) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape)


def _matrix(rng, name, n_in, n_out) -> Parameter:
    return Parameter(_uniform(rng, (n_in, n_out), 1.0 / math.sqrt(n_in)), name=name, decay=True)


def _bias(name, n) -> Parameter:
    return Parameter(np.zeros(n), name=name, decay=False)


def _dense_stack(rng, prefix: str, dims) -> list:
    """[w0, b0, w1, b1, ...] mapping dims[0] -> ... -> dims[-1], drawn
    from ``rng`` in layer order: the parameters ``autodiff.dense_stack``
    takes, which runs affine layers with a GELU between each two."""
    return [
        p
        for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:]))
        for p in (_matrix(rng, f"{prefix}.w{i}", n_in, n_out), _bias(f"{prefix}.b{i}", n_out))
    ]


# rows per eval forward in ``ScoringModel.predict_proba``
PREDICT_BATCH = 1024


def _as_rows(X, n_features: int) -> np.ndarray:
    """X as a float64 [n, n_features] array: a list or tuple of rows
    scores like an array. Anything else, ragged or non-numeric rows
    included, is a ShapeError."""
    try:
        X = np.asarray(X, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"expected rows of {n_features} numbers ({exc})") from None
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ShapeError(f"expected rows of length {n_features}, got shape {X.shape}")
    return X


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

    Four parameters for every schema: ``numeric_w`` and ``numeric_b``,
    one embedding ``table`` that stacks each categorical column's
    ``sizes[k]`` rows (vocabulary plus UNK) in schema order, and ``cls``;
    a kind the schema lacks has zero rows. One ``autodiff.feature_tokens``
    op writes feature j's token straight into token row j and the
    classification token into row n_features (last).
    """

    def __init__(self, schema: FeatureSchema, embed_dim: int, rng: np.random.Generator):
        self.schema = schema
        self.numeric_idx = schema.numeric_indices()
        self.categorical_idx = schema.categorical_indices()
        self.sizes = tuple(schema.columns[j].n_categories for j in self.categorical_idx)
        bound = 1.0 / math.sqrt(embed_dim)
        n_numeric = self.numeric_idx.size
        self.numeric_w = Parameter(
            _uniform(rng, (n_numeric, embed_dim), bound), name="tokenizer.numeric_w", decay=True
        )
        self.numeric_b = _bias("tokenizer.numeric_b", (n_numeric, embed_dim))
        self.table = Parameter(
            _uniform(rng, (sum(self.sizes), embed_dim), bound), name="tokenizer.table", decay=True
        )
        self.cls = Parameter(
            _uniform(rng, (embed_dim,), bound), name="tokenizer.cls", decay=False
        )

    def parameters(self) -> list:
        return [self.numeric_w, self.numeric_b, self.table, self.cls]

    def forward_batch(self, X: np.ndarray) -> Tensor:
        X = _as_rows(X, self.schema.n_features)
        return ad.feature_tokens(X, self.numeric_idx, self.categorical_idx, self.sizes, self.parameters())


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
    rule in ``autodiff``). ``in_place`` is passed to both sublayers
    unchanged (the in-place rule in ``autodiff``): with or without a
    tape, a full attention sublayer writes over x, and the FFN over the
    attention output, which is a new one-row array under ``last_only``.
    The bytes and gradients are those of the allocating path; by
    default x is left unchanged.

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

    def forward(self, x: Tensor, training: bool = False, rng=None, last_only: bool = False,
                in_place: bool = False) -> Tensor:
        cfg = self.config
        eps, rate = cfg.layer_norm_eps, cfg.dropout if training else 0.0
        tokens = x.shape[-2]
        x = ad.attention_sublayer(
            x, self.ln1_g, self.ln1_b, self.w_q, self.w_k, self.w_v, self.w_o,
            cfg.n_heads, eps, rate, rng, last_only=last_only, in_place=in_place,
        )
        return ad.ffn_sublayer(
            x, self.ln2_g, self.ln2_b, self.ffn_w1, self.ffn_b1, self.ffn_w2, self.ffn_b2,
            eps, rate, rng, mask_tokens=tokens, in_place=in_place,
        )


class ScoringModel:
    """What every model kind shares. A subclass sets ``kind``,
    ``schema`` and ``seed`` and defines ``parameters()`` (the checkpoint
    serialization order), ``config_dict()`` and ``_logits(X, training,
    rng)``, the pre-sigmoid [n, 1] scores."""

    kind: str

    def forward_batch(self, X: np.ndarray, training: bool = False, rng=None) -> Tensor:
        X = _as_rows(X, self.schema.n_features)
        z = self._logits(X, training, rng)
        return ad.reshape(ad.sigmoid(z), (X.shape[0],))

    def forward(self, row: np.ndarray, training: bool = False, rng=None) -> float:
        return float(self.forward_batch([row], training, rng).data[0])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Eval-mode probabilities with no graph recording, computed
        ``PREDICT_BATCH`` rows at a time."""
        X = _as_rows(X, self.schema.n_features)
        out = np.empty(X.shape[0], dtype=np.float64)
        for lo in range(0, X.shape[0], PREDICT_BATCH):
            chunk = X[lo : lo + PREDICT_BATCH]
            out[lo : lo + chunk.shape[0]] = self.forward_batch(chunk).data
        return out


class Model(ScoringModel):
    """Full tabular transformer. The head reads only the classification
    token, so the last block runs with ``last_only`` and computes that
    token's row alone; every block still runs through
    ``TransformerBlock.forward``. The blocks always run ``in_place``,
    because the tokenizer's output is the model's own array and feeds
    the first block alone: with or without a tape, in train or eval
    mode, it is the one [n, t, d] buffer, carried through every block as
    the residual stream. No vjp reads a sublayer's input, so saved state
    and gradients do not change. A ``NumericError`` names where it arose:
    "tokenizer", "block i" or "head", and in the head also its layer
    ("head: output: dense_stack produced a non-finite value")."""

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
        hidden = () if config.head_hidden is None else (config.head_hidden,)
        self.head = _dense_stack(rng, "head", [d, *hidden, 1])

    def parameters(self) -> list:
        params = self.tokenizer.parameters()
        for blk in self.blocks:
            params += blk.parameters()
        params += [self.head_ln_g, self.head_ln_b]
        return params + self.head

    def config_dict(self) -> dict:
        return asdict(self.config)

    def _logits(self, X: np.ndarray, training: bool, rng) -> Tensor:
        last, where = len(self.blocks) - 1, "tokenizer"
        try:
            x = self.tokenizer.forward_batch(X)
            for i, blk in enumerate(self.blocks):
                where = f"block {i}"
                x = blk.forward(x, training, rng, last_only=i == last, in_place=True)
            where = "head"
            cls = ad.select_row(x, 0)  # the last block kept the classification token only
            h = ad.layer_norm(cls, self.head_ln_g, self.head_ln_b, self.config.layer_norm_eps)
            return ad.dense_stack(h, self.head)
        except NumericError as exc:
            raise NumericError(f"{where}: {exc}") from None


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
        self.layers = _dense_stack(rng, "mlp", [schema.n_features, *self.hidden, 1])

    def parameters(self) -> list:
        return list(self.layers)

    def config_dict(self) -> dict:
        return {"hidden": list(self.hidden)}

    def _logits(self, X: np.ndarray, training: bool, rng) -> Tensor:
        return ad.dense_stack(Tensor(X), self.layers)


class LogisticModel(MlpModel):
    """sigmoid(w . x + b) over the standardized feature vector;
    categorical features enter as their integer codes. This is the MLP
    with no hidden layer: the same init draws, ops and ``.bin`` layout."""

    kind = "logistic"

    def __init__(self, schema: FeatureSchema, seed: int = 0):
        super().__init__(schema, hidden=(), seed=seed)
        self.w, self.b = self.layers

    def config_dict(self) -> dict:
        return {}


# Model kind -> factory(schema, seed, config dict), for user configs and
# checkpoint manifests alike. The baselines ignore keys they do not use
# (a transformer config may be passed to them); the transformer rejects
# unknown keys.
MODELS = {
    Model.kind: lambda schema, seed, config: Model(from_dict(ModelConfig, config), schema, seed),
    LogisticModel.kind: lambda schema, seed, config: LogisticModel(schema, seed),
    MlpModel.kind: lambda schema, seed, config: MlpModel(schema, config.get("hidden", (64, 64)), seed),
}


# ---------------------------------------------------------------------------
# Checkpoints: <prefix>.json manifest + <prefix>.bin little-endian float64


def build_model(kind: str, schema: FeatureSchema, seed: int = 0, config: Optional[dict] = None):
    if kind not in MODELS:
        raise ConfigError(f"unknown model kind {kind!r}")
    return MODELS[kind](schema, seed, dict(config or {}))


@dataclass(frozen=True)
class CheckpointManifest:
    """The ``<prefix>.json`` half of a checkpoint; ``bin_sha256`` is
    optional, because manifests written before it was recorded lack it."""

    kind: str
    config: dict
    schema: FeatureSchema
    schema_fingerprint: str
    seed: int
    bin_sha256: Optional[str] = None

    def __post_init__(self):
        check_field_types(self)


def save_checkpoint(model, prefix) -> None:
    """Write ``<prefix>.json`` and ``<prefix>.bin`` with ``write_files``,
    so a failed write leaves the old pair (or none), never a partial file.
    The manifest records the SHA-256 of the ``.bin`` bytes."""
    prefix = str(prefix)
    flat = np.concatenate([p.data.ravel() for p in model.parameters()])
    raw = flat.astype("<f8").tobytes()
    manifest = CheckpointManifest(
        kind=model.kind,
        config=model.config_dict(),
        schema=model.schema,
        schema_fingerprint=model.schema.fingerprint(),
        seed=model.seed,
        bin_sha256=hashlib.sha256(raw).hexdigest(),
    )
    write_files({prefix + ".json": json_text(asdict(manifest)).encode("utf-8"), prefix + ".bin": raw})


def load_checkpoint(prefix):
    """Rebuild the model ``save_checkpoint`` wrote. A ``.bin`` whose
    bytes do not hash to the manifest's ``bin_sha256``, when it records
    one, or decode to a non-finite parameter, is a DataError."""
    prefix = str(prefix)
    # the manifest is data: a value its own checks reject is a DataError
    try:
        doc = read_json(prefix + ".json", "checkpoint manifest")
    except ConfigError as exc:  # read_json's message names the file
        raise DataError(str(exc)) from None
    try:
        manifest = from_dict(CheckpointManifest, doc)
        if manifest.schema.fingerprint() != manifest.schema_fingerprint:
            raise DataError("checkpoint schema does not match its recorded fingerprint")
        model = build_model(manifest.kind, manifest.schema, manifest.seed, manifest.config)
    except ConfigError as exc:
        raise DataError(f"{prefix}.json: {exc}") from None
    with open(prefix + ".bin", "rb") as fh:
        raw = fh.read()
    if manifest.bin_sha256 not in (None, hashlib.sha256(raw).hexdigest()):
        raise DataError(f"{prefix}.bin: the parameter bytes do not match the manifest's SHA-256")
    values, _ = ad._pack(model.parameters())
    if len(raw) != 8 * values.size:
        raise DataError(f"checkpoint holds {len(raw)} parameter bytes, model needs {8 * values.size}")
    flat = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(flat).all():
        raise DataError(f"{prefix}.bin: a parameter is not finite")
    values[...] = flat
    return model
