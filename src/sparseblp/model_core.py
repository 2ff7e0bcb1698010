"""Model configuration, parameter containers, run counters, the stacked dataset,
and group indices.

The demand system has J inside goods per market and L observed attributes that
are partitioned into G groups. Consumer tastes for the attributes in group g
share a single standard-normal random coefficient, so the distribution of
utility in a market is summarized by G + 1 linear indices per product: the mean
index x'beta and one group index x_g'gamma_g for each group.

A Dataset keeps all n markets in arrays stacked on a leading market axis
(X is n x J x L), the one layout every computation works on.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cached_property
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np


class ConfigurationError(ValueError):
    """Raised when dimensions, partitions, or file schemas do not line up."""


def _as_float_array(x, shape, name):
    arr = np.ascontiguousarray(x, dtype=float)
    if arr.shape != shape:
        raise ConfigurationError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of the demand system and the attribute-to-group partition.

    Parameters
    ----------
    n_markets : int
        Number of independent markets n.
    J : int
        Products per market (the outside good is extra and has utility 0).
    L : int
        Number of observed product attributes.
    G : int
        Number of random-coefficient groups.
    K : int
        Instrument transforms per product, so the model carries J*K moments.
    partition : sequence of int
        Length-L map from attribute position to its group label in 1..G.
        Every group must receive at least one attribute.
    """

    n_markets: int
    J: int
    L: int
    G: int
    K: int
    partition: tuple[int, ...]

    def __post_init__(self):
        for name in ("n_markets", "J", "L", "G", "K"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v <= 0:
                raise ConfigurationError(f"{name} must be a positive integer, got {v!r}")
        part = tuple(int(g) for g in self.partition)
        object.__setattr__(self, "partition", part)
        if len(part) != self.L:
            raise ConfigurationError(
                f"partition has length {len(part)}, expected L={self.L}"
            )
        if self.G > self.L:
            raise ConfigurationError(f"G={self.G} exceeds L={self.L}")
        seen = set(part)
        if not seen.issubset(range(1, self.G + 1)):
            raise ConfigurationError(
                f"partition labels {sorted(seen)} must lie in 1..G={self.G}"
            )
        missing = set(range(1, self.G + 1)) - seen
        if missing:
            raise ConfigurationError(f"groups {sorted(missing)} receive no attribute")

    @cached_property
    def group_members(self) -> tuple[np.ndarray, ...]:
        """Attribute positions (0-based) belonging to each group 1..G."""
        part = np.asarray(self.partition)
        return tuple(np.flatnonzero(part == g) for g in range(1, self.G + 1))

    @property
    def n_moments(self) -> int:
        return self.J * self.K


@dataclass(frozen=True)
class Theta:
    """Structural parameter: mean tastes beta and loading weights gamma.

    Both blocks have length L. Solvers operate on the stacked 2L vector with
    beta in positions 0..L-1 and gamma in positions L..2L-1.

    The sign of each gamma group is not identified: flipping gamma_g for a
    whole group leaves every share integral unchanged because the random
    coefficients are symmetric around zero. Estimates are stored exactly as
    produced, with no sign normalization.
    """

    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if beta.ndim != 1 or gamma.ndim != 1 or beta.size != gamma.size:
            raise ConfigurationError(
                f"beta and gamma must be 1-d of equal length, got {beta.shape} and {gamma.shape}"
            )
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    @property
    def L(self) -> int:
        return self.beta.size

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.beta, self.gamma])

    @classmethod
    def from_stacked(cls, vec: np.ndarray) -> "Theta":
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size % 2:
            raise ConfigurationError(f"stacked theta must have even length, got {vec.shape}")
        L = vec.size // 2
        return cls(beta=vec[:L], gamma=vec[L:])

    @classmethod
    def zeros(cls, L: int) -> "Theta":
        return cls(beta=np.zeros(L), gamma=np.zeros(L))


@dataclass
class RunStats:
    """What one estimate or debias call ran, counted as it runs.

    inversions counts the share inversions (failed ones included),
    contraction_iters their passes with a contraction fallback and
    newton_iters their Newton passes; lp_solves the LPs (every
    solve_l1_linf and solve_nonneg_lp call) and lp_pivots their basis
    changes, not bound flips. The SLP's outer_iters are its outer
    iterations, every phase of every start; trust_shrinks are radius shrinks
    after a rejected trial point, soc_rescues steps accepted by the
    second-order correction and eqp_steps accepted Newton steps on a step
    LP's working set; debias leaves these four at 0.
    """

    inversions: int = 0
    contraction_iters: int = 0
    newton_iters: int = 0
    lp_solves: int = 0
    lp_pivots: int = 0
    outer_iters: int = 0
    trust_shrinks: int = 0
    soc_rescues: int = 0
    eqp_steps: int = 0


def canonicalize_gamma(theta: Theta, config: ModelConfig) -> Theta:
    """Fix the unidentified gamma group signs to a reporting convention.

    For each group, flip the whole block if its largest-magnitude coordinate
    is negative (ties broken by the earliest attribute position, which
    argmax already gives). Shares and moments are invariant under these
    flips, so this changes nothing the data can see; it only makes
    estimates comparable across runs and against a sign-fixed truth.
    """
    gamma = theta.gamma.copy()
    for members in config.group_members:
        block = gamma[members]
        if block.size and block[np.argmax(np.abs(block))] < 0:
            gamma[members] = -block
    return Theta(beta=theta.beta, gamma=gamma)


@dataclass(frozen=True)
class Dataset:
    """A balanced panel of markets sharing one ModelConfig, stacked on a leading market axis.

    X (n, J, L) holds the attributes, S (n, J) the observed inside shares,
    H (n, J, K) the instrument transforms and xi_true (n, J) the taste shocks
    when they are known (simulated data). The shapes must match the config.
    """

    config: ModelConfig
    X: np.ndarray
    S: np.ndarray
    H: np.ndarray
    xi_true: np.ndarray | None = None

    def __post_init__(self):
        cfg = self.config
        n, J = cfg.n_markets, cfg.J
        shapes = {"X": (n, J, cfg.L), "S": (n, J), "H": (n, J, cfg.K)}
        if self.xi_true is not None:
            shapes["xi_true"] = (n, J)
        for name, shape in shapes.items():
            object.__setattr__(self, name, _as_float_array(getattr(self, name), shape, name))

    @property
    def n(self) -> int:
        return self.S.shape[0]


def group_index_matrix(X: np.ndarray, gamma: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Group indices x_g'gamma_g built from the attributes mapped to each group.

    X may be (J, L) or (n, J, L); the result has the matching leading shape
    with a trailing G axis. The mean index is X @ beta.
    """
    out = np.empty(X.shape[:-1] + (config.G,))
    for g, members in enumerate(config.group_members):
        out[..., g] = X[..., members] @ gamma[members]
    return out


def validate_dataset(dataset: Dataset) -> list[str]:
    """Collect sanity violations per market; purely diagnostic, never raises.

    Checks per market: shares strictly inside (0, 1) with an interior outside
    share, and finite attributes and instruments. Dimensions are checked when
    the Dataset is built. Messages number markets and products from 1, as the
    dataset CSV's market_id and product_id columns do.
    """
    X, S, H = dataset.X, dataset.S, dataset.H
    bad_x = ~np.isfinite(X).all(axis=(1, 2))
    bad_h = ~np.isfinite(H).all(axis=(1, 2))
    bad_s = ~np.isfinite(S).all(axis=1)
    outside = (S <= 0.0) | (S >= 1.0)
    total = S.sum(axis=1)
    flagged = bad_x | bad_h | bad_s | outside.any(axis=1) | (total >= 1.0)
    problems: list[str] = []
    for i in np.flatnonzero(flagged):
        tag = f"market_id {i + 1}"
        if bad_x[i]:
            problems.append(f"{tag}: non-finite attribute values")
        if bad_h[i]:
            problems.append(f"{tag}: non-finite instrument values")
        if bad_s[i]:
            problems.append(f"{tag}: non-finite shares")
            continue
        if outside[i].any():
            bad = (np.flatnonzero(outside[i]) + 1).tolist()
            problems.append(f"{tag}: product_id {bad} have shares outside (0, 1)")
        if total[i] >= 1.0:
            problems.append(f"{tag}: inside shares sum to {total[i]:.6f} >= 1")
    return problems


# ---------------------------------------------------------------------------
# File formats. Configs (ModelConfig, DgpConfig, McConfig, RgmmOptions, Theta)
# travel as JSON, read by config_from_dict and written by config_to_dict;
# datasets travel as CSV with one row per (market, product) and columns
# market_id, product_id, share, x_1..x_L, h_1..h_K.
# ---------------------------------------------------------------------------


def config_to_dict(obj) -> dict:
    """The JSON object for a config dataclass; inverse of config_from_dict."""
    return {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}


def _to_json(value):
    if is_dataclass(value):
        return config_to_dict(value)
    if isinstance(value, (tuple, np.ndarray)):
        return [_to_json(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def config_from_dict(cls, raw, path: str = ""):
    """Build the config dataclass cls from parsed JSON by one rule.

    The keys must be cls's fields, the required ones all present. Each value
    must have its field's JSON type exactly: an int field takes an integer
    (not true, not 4.0), a float field any number that fits a float (read as
    a float, so 1 and 1.0 give one config), a bool field true or false, a
    str field a string, a tuple[X, ...] field a list of X, a nested
    dataclass an object, and an array field (a Theta block) a list of finite
    numbers. Ranges are cls's own __post_init__ checks. Every violation
    raises one ConfigurationError naming the key; path is raw's dotted key
    within its file ('' at the top).
    """
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path or cls.__name__} must be a JSON object, got {raw!r}")
    known = {f.name: f for f in fields(cls)}
    required = {n for n, f in known.items() if f.default is MISSING and f.default_factory is MISSING}
    missing, unknown = required - raw.keys(), raw.keys() - known.keys()
    if missing or unknown:
        raise ConfigurationError(
            f"{path or cls.__name__} keys: missing {sorted(missing)}, unknown {sorted(unknown)}"
        )
    hints = get_type_hints(cls)
    prefix = f"{path}." if path else ""
    values = {k: read_value(hints[k], v, prefix + k) for k, v in raw.items()}
    try:
        return cls(**values)
    except ValueError as exc:  # a range check; ConfigurationError is one too
        raise ConfigurationError(f"{path}: {exc}" if path else str(exc)) from exc


def _is_number(v) -> bool:
    # an int beyond float range would overflow wherever it is used as one
    return isinstance(v, float) or (
        isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max
    )


_JSON_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    float: ("a number", _is_number),
    np.ndarray: ("a list of finite numbers",
                 lambda v: isinstance(v, list) and all(_is_number(x) and math.isfinite(x) for x in v)),
}


def read_value(tp, value, key: str):
    """One value of type tp by config_from_dict's rule; key names it in messages."""
    if is_dataclass(tp):
        return config_from_dict(tp, value, key)
    if get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigurationError(f"{key} must be a list, got {value!r}")
        return tuple(read_value(get_args(tp)[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    what, ok = _JSON_TYPES[tp]
    if not ok(value):
        raise ConfigurationError(f"{key} must be {what}, got {value!r}")
    return float(value) if tp is float else value


def _not_utf8(path, exc: UnicodeDecodeError) -> ConfigurationError:
    return ConfigurationError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})")


def read_json(path):
    """Parse a UTF-8 JSON file; invalid JSON or bytes raise ConfigurationError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def load_config(cls, path):
    """config_from_dict(cls, ...) on a JSON file; every message names the file."""
    raw = read_json(path)
    try:
        return config_from_dict(cls, raw)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def save_model_config(config: ModelConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")


def dataset_header(config: ModelConfig) -> list[str]:
    return (
        ["market_id", "product_id", "share"]
        + [f"x_{l}" for l in range(1, config.L + 1)]
        + [f"h_{k}" for k in range(1, config.K + 1)]
    )


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write dataset as the CSV file that load_dataset_csv reads.

    The first line is the header market_id,product_id,share,x_1..x_L,h_1..h_K;
    then one line per product, market by market, with 1-based ids and each
    float as its repr (the shortest string that parses back to it). Lines end
    in CRLF and nothing is quoted, so the bytes are those of csv.writer's
    default dialect.
    """
    values = np.concatenate([dataset.S[..., None], dataset.X, dataset.H], axis=2)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(dataset_header(dataset.config)) + "\r\n")
        # one market at a time, its rows as Python floats (a list for the
        # whole file would hold 4x the array in memory)
        for i, market in enumerate(values, start=1):
            rows = enumerate(market.tolist(), start=1)
            fh.write("".join(f"{i},{j}," + ",".join(map(repr, row)) + "\r\n" for j, row in rows))


def load_dataset_csv(path, config: ModelConfig) -> Dataset:
    """Read a dataset CSV written by save_dataset_csv, or by hand in its format.

    The header must be exactly dataset_header(config). Lines may end in CRLF
    or LF, blank lines are skipped and rows may come in any order: one pass
    puts each row into its (market_id, product_id) slot of an (n, J, 1 + L + K)
    array allocated from the config, and a seen-mask checks that each slot is
    filled once. Market ids run 1..n, as validate_dataset names markets by
    them. Floats parse with float(), so a saved file loads back bit for bit
    (any NaN loads as float("nan")). Bytes that are not UTF-8, a wrong field
    count, an unparsable field, an id out of range, a repeated row, a market
    with no rows or one missing a product raise ConfigurationError naming the file.
    """
    expected = dataset_header(config)
    n, J = config.n_markets, config.J
    data = np.empty((n, J, len(expected) - 2))  # share, attributes, instruments
    seen = np.zeros((n, J), dtype=bool)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != expected:
                raise ConfigurationError(
                    f"{path}: header mismatch; expected {expected[:4]}... with "
                    f"L={config.L}, K={config.K}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(expected):
                    raise ConfigurationError(f"{path}:{lineno}: expected {len(expected)} fields")
                try:
                    i, j = int(row[0]), int(row[1])  # market and product ids
                    values = [float(v) for v in row[2:]]
                except ValueError as exc:
                    raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
                if not 1 <= i <= n:
                    raise ConfigurationError(f"{path}:{lineno}: market ids must be 1..{n}; found market {i}")
                if not 1 <= j <= J:
                    raise ConfigurationError(f"{path}:{lineno}: product ids must be 1..{J}; found product {j}")
                if seen[i - 1, j - 1]:
                    raise ConfigurationError(f"{path}:{lineno}: market {i} repeats product {j}")
                seen[i - 1, j - 1] = True
                data[i - 1, j - 1] = values
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    found = seen.any(axis=1)
    if not found.all():
        raise ConfigurationError(f"{path}: {found.sum()} markets found, config declares {n}; "
                                 f"market {found.argmin() + 1} has no rows")
    if not seen.all():
        short = seen.all(axis=1).argmin() + 1
        raise ConfigurationError(f"{path}: market {short} does not contain products 1..{J}")
    return Dataset(
        config=config,
        X=data[:, :, 1 : 1 + config.L],
        S=data[:, :, 0],
        H=data[:, :, 1 + config.L :],
    )
