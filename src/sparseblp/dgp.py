"""Synthetic market generator for the estimation benchmarks.

Each market draws standard-normal attributes, a structural taste shock xi
correlated with attribute 1 (the endogenous, price-like attribute), and
per-attribute raw instruments w_l = strength * (exogenous part of x_l) + noise.
The moment basis h_1..h_K applies a fixed, documented enumeration of
polynomial transforms to the raw instruments. Shares come from the same
mixed-share kernel the estimator uses, evaluated at the true parameters, so
with the same quadrature rule the true theta reproduces the data exactly.

Identification requires the chosen instrument transforms to be informative
for the attributes that actually matter (the support of theta). The default
design realizes that assumption by placing the true support on the leading
attributes, which the default basis covers first; both conventions are
deterministic and documented rather than randomized.

True nonzero coefficients all equal +signal. Since the sign of each gamma
group is unidentified in the model, the generator keeps a fixed positive
convention and the estimator's positive initialization targets the same
branch.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .model_core import (
    ConfigurationError,
    Dataset,
    ModelConfig,
    Theta,
    group_index_matrix,
)
from .quadrature import QuadratureRule
from .shares import _mixed_shares

SHARE_UNDERFLOW = 1e-12
MAX_MARKET_RETRIES = 10


@dataclass(frozen=True)
class DgpConfig:
    """Benchmark data-generating design.

    s_beta / s_gamma count the nonzero coordinates (placed on the leading
    attributes), signal is their common magnitude, xi_sd scales the taste
    shock, endog_corr is corr(x_1, xi), and instrument_strength is the
    loading of each raw instrument on its attribute's exogenous part.
    """

    model: ModelConfig
    s_beta: int
    s_gamma: int
    signal: float = 1.0
    xi_sd: float = 0.5
    endog_corr: float = 0.5
    instrument_strength: float = 0.95
    seed: int = 0

    def __post_init__(self):
        L = self.model.L
        if not (0 <= self.s_beta <= L and 0 <= self.s_gamma <= L):
            raise ConfigurationError("s_beta and s_gamma must lie in 0..L")
        if not (0.0 <= abs(self.endog_corr) < 1.0):
            raise ConfigurationError("endog_corr must lie in (-1, 1)")
        if not (0.0 <= self.instrument_strength < 1.0):
            raise ConfigurationError("instrument_strength must lie in [0, 1)")
        if not (0.0 <= self.xi_sd < np.inf and 0.0 <= self.signal < np.inf):
            raise ConfigurationError("xi_sd and signal must be finite and nonnegative")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


def true_theta(cfg: DgpConfig) -> Theta:
    L = cfg.model.L
    beta = np.zeros(L)
    beta[: cfg.s_beta] = cfg.signal
    gamma = np.zeros(L)
    gamma[: cfg.s_gamma] = cfg.signal
    return Theta(beta=beta, gamma=gamma)


def instrument_transforms(W: np.ndarray, K: int) -> np.ndarray:
    """The fixed basis h_1..h_K applied to raw instruments W (..., J, L).

    W is one market's (J, L) block or a stack such as (n, J, L); each
    market's rows of the (..., J, K) result equal a call on it alone, bit
    for bit. The basis is a low-order polynomial family in the leading m =
    max(1, ceil(K/3)) instruments (capped at L): linear terms w_1..w_m; own
    cross products w_s w_t in lexicographic order; own-by-rival crosses
    w_s q_t with q_t the sum of the other products' w_t (the classic
    rival-characteristics construction), ordered (1,2),(2,1),(1,3),(3,1),...;
    centered squares w_t^2 - 1; then centered higher powers of w_1 if slots
    remain. Products of two instruments are uncorrelated with every linear
    attribute (odd Gaussian moments vanish), so those rows isolate the
    curvature that the random coefficients induce in mean utilities, and the
    rival crosses specifically target cross-product substitution;
    identification of coordinates outside the spanned block rests on
    sparsity of the true parameter. Each transform is scaled to unit
    population variance (exact normal-moment constants), which equalizes the
    sampling noise across moment rows. Every transform has mean zero under
    the instrument law, and validity E[xi h] = 0 holds because W (own and
    rival) is independent of xi by construction. Rival crosses are skipped
    when J = 1 (no rivals).
    """
    J, L = W.shape[-2:]
    m = min(L, max(1, -(-K // 3)))

    def rival_pairs():
        for s, t in itertools.combinations(range(m), 2):
            yield s, t
            yield t, s

    def enumerate_basis():
        for t in range(m):
            yield W[..., t]
        for s, t in itertools.combinations(range(m), 2):
            yield W[..., s] * W[..., t]
        if J > 1:
            for s, t in rival_pairs():
                q_t = W[..., t].sum(axis=-1, keepdims=True) - W[..., t]
                yield W[..., s] * q_t / np.sqrt(J - 1.0)
        for t in range(m):
            yield (W[..., t] ** 2 - 1.0) / np.sqrt(2.0)
        power = 3
        while True:
            # centered powers of w_1 as a last resort for tiny L or large K
            mean = 0.0 if power % 2 else _normal_moment(power)
            var = _normal_moment(2 * power) - mean**2
            yield (W[..., 0] ** power - mean) / np.sqrt(var)
            power += 1

    gen = enumerate_basis()
    return np.stack([next(gen) for _ in range(K)], axis=-1)


def _normal_moment(p: int) -> float:
    # E[Z^p] for even p: (p-1)!!
    out = 1.0
    for v in range(p - 1, 0, -2):
        out *= v
    return out


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), for _philox_keys
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    # numpy's split of an entropy int into little-endian 32-bit words; 0 is [0]
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(h: int, mult: int):
    # SeedSequence's hashmix over the running hash constant h; values are
    # uint32 arrays, the constants Python ints below 2**32
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal h
        value = value ^ h
        h = (h * mult) & _MASK32
        value = value * h
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> 16)


def _philox_keys(seed: int, markets: np.ndarray, retry: int) -> np.ndarray:
    """Philox keys of the streams (seed, market, retry) for every market at once.

    Row i of the (k, 2) uint64 result equals
    SeedSequence(entropy=(seed, markets[i], retry)).generate_state(2, np.uint64):
    numpy's mix_entropy over the entropy words, then generate_state over the
    pool, each step done on uint32 arrays with one entry per market. A
    market id is one word (ids are below 2**32); seed and retry are split
    into words as numpy splits them (_uint32_words).
    """
    k = markets.size
    entropy = (
        [np.full(k, w, np.uint32) for w in _uint32_words(seed)]
        + [markets.astype(np.uint32)]
        + [np.full(k, w, np.uint32) for w in _uint32_words(retry)]
    )
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(k, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(word) for word in pool], axis=1)  # 4 uint32 words a market
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _restart_philox(bitgen: np.random.Philox, key: list[int]) -> None:
    """Put bitgen at the start of the stream with this key, as Philox(key) builds it."""
    zero = [0, 0, 0, 0]
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": zero, "key": key},
        "buffer": zero,
        "buffer_pos": 4,  # empty: the next draw computes the block at counter 0
        "has_uint32": 0,
        "uinteger": 0,
    }


def simulate(cfg: DgpConfig, rule: QuadratureRule) -> tuple[Dataset, Theta]:
    """Generate a Dataset and the true Theta.

    Each round has two phases. Phase 1 loops over the markets still to be
    drawn; each takes its attribute drivers, instrument noise and xi shock,
    in that order, from its own counter-based stream keyed by (seed,
    market_id, retry), so results do not depend on generation order. That
    stream is numpy's Generator(Philox(SeedSequence((seed, market_id,
    retry)))), draw for draw: the round derives every pending market's
    Philox key in one vectorized SeedSequence pass (_philox_keys), and one
    reused Philox restarts at each key (counter 0, empty buffer) before the
    market draws. Phase 2 builds the attributes, instruments, their
    transforms and the shares of the whole (k, J, L) stack at once, with one
    mixed-share kernel call.
    Markets whose shares underflow below 1e-12 (inside or outside) go round
    again with retry + 1, up to 10 times, with a warning; the others keep
    their draws.
    """
    model = cfg.model
    n, J, L = model.n_markets, model.J, model.L
    rho, a = cfg.endog_corr, cfg.instrument_strength
    theta = true_theta(cfg)
    X, H, S, xi = np.empty((n, J, L)), np.empty((n, J, model.K)), np.empty((n, J)), np.empty((n, J))
    bitgen = np.random.Philox(0)  # restarted at each market's key before it draws
    rng = np.random.Generator(bitgen)
    todo, n_retried = np.arange(n), 0
    for retry in range(MAX_MARKET_RETRIES + 1):
        draws = np.empty((todo.size, 2 * J * L + J))
        for k, key in enumerate(_philox_keys(cfg.seed, todo, retry).tolist()):
            _restart_philox(bitgen, key)
            rng.standard_normal(out=draws[k])
        # each market's stream, in order: attribute drivers, instrument noise, xi shock
        E = draws[:, : J * L].reshape(-1, J, L)
        eta = draws[:, J * L : 2 * J * L].reshape(-1, J, L)
        z = draws[:, 2 * J * L :]
        Xk = E.copy()
        Xk[..., 0] = rho * z + np.sqrt(1.0 - rho**2) * E[..., 0]
        xik = cfg.xi_sd * z
        Sk = _mixed_shares(Xk @ theta.beta + xik, group_index_matrix(Xk, theta.gamma, model), rule)
        ok = (Sk.min(axis=1) >= SHARE_UNDERFLOW) & (1.0 - Sk.sum(axis=1) >= SHARE_UNDERFLOW)
        # raw instruments load on the exogenous driver of each attribute
        W = a * E[ok] + np.sqrt(1.0 - a**2) * eta[ok]
        kept = todo[ok]
        X[kept], S[kept], H[kept], xi[kept] = Xk[ok], Sk[ok], instrument_transforms(W, model.K), xik[ok]
        todo = todo[~ok]
        if not todo.size:
            break
        n_retried += todo.size
    else:
        raise ConfigurationError(
            f"market {todo[0]}: shares kept underflowing below {SHARE_UNDERFLOW} "
            f"after {MAX_MARKET_RETRIES} retries; weaken the signal or xi_sd"
        )
    if n_retried:
        warnings.warn(f"redrew {n_retried} market(s) after share underflow", RuntimeWarning, stacklevel=2)
    return Dataset(config=model, X=X, S=S, H=H, xi_true=xi), theta
