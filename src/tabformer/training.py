"""Training protocol: class-balanced BCE, AdamW with decoupled decay,
mini-batch epochs, early stopping with best-epoch restoration.

Reproducibility contract: identical data/config/seed give bitwise
identical parameters and logs. Shuffling and dropout draw from separate
named streams of the config seed, so changing one never perturbs the
other.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, DataError, ShapeError, check_field_types, json_text
from .seeding import stream_rng

_CLAMP_LO = 1e-7
_CLAMP_HI = 1.0 - 1e-7
_IMPROVEMENT = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.0003
    betas: Tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.001
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    eps_adam: float = 1e-8

    def __post_init__(self):
        check_field_types(self)
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        for b in self.betas:
            if not 0.0 <= b < 1.0:
                raise ConfigError(f"betas must lie in [0, 1), got {self.betas}")
        if self.patience < 1:
            raise ConfigError(f"patience must be at least 1, got {self.patience}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.weight_decay < 0 or self.lr * self.weight_decay >= 1.0:  # keeps 1 - lr * wd positive
            raise ConfigError(f"weight_decay must lie in [0, 1 / lr), got {self.weight_decay}")
        if self.eps_adam <= 0:  # AdamW divides 0 by eps for a parameter with no gradient yet
            raise ConfigError(f"eps_adam must be positive, got {self.eps_adam}")


def class_weights(labels: np.ndarray) -> Tuple[float, float]:
    """(w0, w1) with w1 = n/(2 n_pos), w0 = n/(2 n_neg), from the
    TRAINING portion only."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    n_pos = int((labels == 1).sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError(
            f"training fold has {n_pos} positives and {n_neg} negatives; "
            "class weights are undefined"
        )
    return n / (2.0 * n_neg), n / (2.0 * n_pos)


def balanced_bce(probs: Tensor, labels: np.ndarray, weights: Tuple[float, float]) -> Tensor:
    """mean of -[w1 y ln p + w0 (1-y) ln(1-p)] with p clamped to
    [1e-7, 1 - 1e-7]; the gradient is exactly zero where the clamp is
    active. With w0 = w1 = 1 this IS plain BCE, bit for bit."""
    y = np.asarray(labels, dtype=np.float64)
    if probs.data.shape != y.shape:
        raise ShapeError(f"probabilities {probs.data.shape} vs labels {y.shape}")
    if y.size == 0:
        raise DataError("empty batch")
    w0, w1 = float(weights[0]), float(weights[1])
    p = probs.data
    unclamped = (p > _CLAMP_LO) & (p < _CLAMP_HI)
    pc = np.clip(p, _CLAMP_LO, _CLAMP_HI)
    terms = -(w1 * y * np.log(pc) + w0 * (1.0 - y) * np.log(1.0 - pc))
    value = np.asarray(terms.mean())

    def vjp(og):
        base = (-w1 * y / pc + w0 * (1.0 - y) / (1.0 - pc)) / y.shape[0]
        return [og.reshape(()) * np.where(unclamped, base, 0.0)]

    return ad._emit("balanced_bce", value, [probs], vjp)


class AdamW:
    """Decoupled weight decay, applied multiplicatively BEFORE the Adam
    update so a zero-gradient step is exactly theta * (1 - lr * wd).
    Decay touches only parameters flagged decay=True (weight matrices;
    never biases, norm gains, or the classification token).

    Construction re-homes the parameters onto one store: every ``p.data``
    and ``p.grad`` becomes a view of the flat arrays ``data`` and ``grad``,
    laid out in ``params`` order. Nothing may rebind them afterwards."""

    def __init__(self, params: Sequence, config: TrainConfig):
        self.config = config
        self.t = 0
        self.data, self.grad = ad._pack(params)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        factor = 1.0 - config.lr * config.weight_decay  # 1.0 where decay is off: x * 1.0 is x
        self.decay = np.concatenate([np.full(p.size, factor if p.decay else 1.0) for p in params])

    def step(self) -> None:
        cfg = self.config
        self.t += 1
        b1, b2 = cfg.betas
        self.data *= self.decay
        self.m = b1 * self.m + (1.0 - b1) * self.grad
        self.v = b2 * self.v + (1.0 - b2) * (self.grad * self.grad)
        m_hat = self.m / (1.0 - b1 ** self.t)
        v_hat = self.v / (1.0 - b2 ** self.t)
        self.data -= cfg.lr * (m_hat / (np.sqrt(v_hat) + cfg.eps_adam))


class EarlyStopper:
    """Improvement means strictly lower than the incumbent best by more
    than 1e-12; ``update`` returns True when patience is exhausted."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ConfigError(f"patience must be at least 1, got {patience}")
        self.patience = patience
        self.best = float("inf")
        self.best_epoch = 0
        self.bad_epochs = 0

    def update(self, epoch: int, loss: float) -> bool:
        if self.best - loss > _IMPROVEMENT:
            self.best = loss
            self.best_epoch = epoch
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return self.bad_epochs >= self.patience


@dataclass
class TrainLog:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    stop_reason: str = ""

    @property
    def n_epochs(self) -> int:
        return len(self.train_losses)

    def to_dict(self) -> dict:
        return {"epochs": self.n_epochs, **asdict(self)}

    def to_json(self) -> str:
        return json_text(self.to_dict())


def _evaluate_loss(model, X: np.ndarray, y: np.ndarray, weights) -> float:
    probs = model.forward_batch(X)  # eval mode, nothing recorded
    return float(balanced_bce(probs, y, weights).data)


def train(
    model,
    train_split: Tuple[np.ndarray, np.ndarray],
    val_split: Tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
) -> TrainLog:
    """Epoch loop. Returns the TrainLog; the model is left holding the
    parameters of the best-validation epoch (restored, not last)."""
    X_tr, y_tr = train_split
    X_val, y_val = val_split
    if X_tr.shape[0] != y_tr.shape[0] or X_val.shape[0] != y_val.shape[0]:
        raise ShapeError("features and labels disagree in length")
    weights = class_weights(y_tr)  # training portion only
    optimizer = AdamW(model.parameters(), config)
    stopper = EarlyStopper(config.patience)
    shuffle_rng = stream_rng(config.seed, "shuffle")
    dropout_rng = stream_rng(config.seed, "dropout")
    n = X_tr.shape[0]

    log = TrainLog()
    best_params = optimizer.data.copy()  # overwritten at epoch 1, which always improves on inf
    stop_reason = "max_epochs"
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):  # last partial batch kept
            batch = order[lo : lo + config.batch_size]
            Xb, yb = X_tr[batch], y_tr[batch]
            optimizer.grad.fill(0.0)
            with Tape() as tape:
                probs = model.forward_batch(Xb, training=True, rng=dropout_rng)
                loss = balanced_bce(probs, yb, weights)
                tape.backward(loss)
            optimizer.step()
            epoch_loss += float(loss.data) * batch.shape[0]
        del tape, probs, loss  # free the last step's graph before the validation pass
        log.train_losses.append(epoch_loss / n)

        val_loss = _evaluate_loss(model, X_val, y_val, weights)
        log.val_losses.append(val_loss)
        should_stop = stopper.update(epoch, val_loss)
        if stopper.best_epoch == epoch:
            best_params[...] = optimizer.data
        if should_stop:
            stop_reason = "early_stopping"
            break

    optimizer.data[...] = best_params
    log.best_epoch = stopper.best_epoch
    log.best_val_loss = stopper.best
    log.stop_reason = stop_reason
    return log
