"""Deterministic RNG stream derivation.

Every random choice in the package flows from one top-level seed through
named streams, so that a run is a pure function of (config, data, seed).
Stream derivations used across the package:

  folds:      stream_rng(seed, "folds"), for cv folds and for the
              validation holdout (fold f of run_cv holds out with seed + f)
  init:       stream_rng(model_seed, "init") draws a model's weights; the
              model seed is the run seed (seed + f for fold f of run_cv)
  shuffle:    stream_rng(config_seed, "shuffle") orders train's batches
  dropout:    stream_rng(config_seed, "dropout") draws train's masks; the
              config seed is TrainConfig.seed, set to the run seed (seed + f
              for fold f of run_cv); a run config's train_config may not set it
  importance: stream_rng(seed + feature_index, "importance")
  synth:      stream_rng(seed, "synth", column_index) per column's values;
              keys 1_000_000 (labels), 1_000_001 (label noise) and
              2_000_000 + column_index (missing cells)
"""

import numpy as np

from .errors import ConfigError

_STREAMS = {
    "folds": 1,
    "shuffle": 2,
    "dropout": 3,
    "init": 4,
    "synth": 5,
    "importance": 6,
}


def stream_rng(seed: int, stream: str, *key: int) -> np.random.Generator:
    """Generator for a named stream under a top-level seed.

    The (seed, stream id, key...) tuple feeds a SeedSequence, so streams
    never collide and the mapping is stable across runs and platforms.
    A negative seed or key is a ConfigError.
    """
    if stream not in _STREAMS:
        raise KeyError(f"unknown RNG stream {stream!r}")
    entropy = (int(seed), _STREAMS[stream]) + tuple(int(k) for k in key)
    if min(entropy) < 0:
        raise ConfigError(f"seeds must be non-negative, got seed {seed} with key {key}")
    return np.random.default_rng(np.random.SeedSequence(entropy))
