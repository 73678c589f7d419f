"""Path-loss-and-additive-noise propagation model with power-adjustable BPSK.

A transmitted amplitude is attenuated by 1/sqrt(xi * d**alpha) at distance d
and corrupted by zero-mean Gaussian noise of variance ``sigma`` (a power, in
watts).  Scaling the transmit power with the claimed distance makes the
signal-to-noise ratio at the claimed distance a system constant, so the whole
family of claim distances maps onto one binary symmetric broadcast channel
with an "intended" error rate at the claim and a worse "blocked" error rate
at ``psi`` times the claim.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelParams",
    "BerPair",
    "ClaimRangeError",
    "PowerLimitError",
    "DEFAULT_CHANNEL",
    "watts_to_dbm",
    "path_loss",
    "attenuate",
    "snr_at_distance",
    "transmit_power_for_claim",
    "random_bits",
    "bit_errors",
    "bits_to_hex",
    "bpsk_modulate",
    "bpsk_demodulate",
    "propagate",
    "bit_error_prob",
    "intended_blocked_ber",
    "intended_blocked_ber_grid",
]


class ClaimRangeError(ValueError):
    """Distance claim outside (0, d0]."""


class PowerLimitError(ValueError):
    """Requested transmit power outside (0, e_max]."""


@dataclass(frozen=True)
class ChannelParams:
    """Propagation environment parameters.

    Attributes:
        xi: dimensionless system loss, >= 1.
        alpha: path loss exponent (2 free space .. 4 flat earth).
        sigma: noise power in watts.
        e_max: maximum transmit power in watts.
        d0: maximum claimable distance in meters.
    """

    xi: float = 1.0
    alpha: float = 3.0
    sigma: float = 1e-12
    e_max: float = 3e4
    d0: float = 1e5

    def __post_init__(self) -> None:
        if not self.xi >= 1:
            raise ValueError(f"system loss xi must be >= 1, got {self.xi}")
        if not self.alpha > 0:
            raise ValueError(f"path loss exponent must be > 0, got {self.alpha}")
        if not self.sigma > 0:
            raise ValueError(f"noise power must be > 0, got {self.sigma}")
        if not self.e_max > 0:
            raise ValueError(f"e_max must be > 0, got {self.e_max}")
        if not self.d0 > 0:
            raise ValueError(f"d0 must be > 0, got {self.d0}")

    @classmethod
    def from_json(cls, source: str | dict) -> "ChannelParams":
        """Build from a JSON object {"xi", "alpha", "sigma_watts", "e_max_watts", "d0_meters"}."""
        obj = json.loads(source) if isinstance(source, str) else source
        return cls(
            xi=float(obj["xi"]),
            alpha=float(obj["alpha"]),
            sigma=float(obj["sigma_watts"]),
            e_max=float(obj["e_max_watts"]),
            d0=float(obj["d0_meters"]),
        )

    def to_json(self) -> dict:
        return {
            "xi": self.xi,
            "alpha": self.alpha,
            "sigma_watts": self.sigma,
            "e_max_watts": self.e_max,
            "d0_meters": self.d0,
        }


#: Default environment: no system loss, outdoor exponent 3, 1 pW noise,
#: 30 kW power budget, 100 km maximum claim.
DEFAULT_CHANNEL = ChannelParams()


def watts_to_dbm(watts: float) -> float:
    if not watts > 0:
        raise ValueError(f"power must be > 0 W, got {watts}")
    return 10.0 * math.log10(watts / 1e-3)


def snr_at_distance(e: float, d: float, ch: ChannelParams) -> float:
    """Signal-to-noise ratio e / (xi * d**alpha * sigma) at distance d."""
    if not e > 0:
        raise ValueError(f"transmit power must be > 0, got {e}")
    if not d > 0:
        raise ValueError(f"distance must be > 0, got {d}")
    return _snr(e, d, ch)


def path_loss(d: float, ch: ChannelParams) -> float:
    """xi * d**alpha, the power loss at distance d.

    A loss past the float range is infinite, so the SNR takes the model's
    limit 0 and the bit error rate 1/2 instead of raising OverflowError.
    """
    try:
        return ch.xi * d**ch.alpha
    except OverflowError:
        return math.inf


def attenuate(x, d: float, ch: ChannelParams):
    """Amplitude x after the path loss at d, x / sqrt(xi * d**alpha); a loss
    that underflows to 0 gives the model's limit, an infinite amplitude."""
    loss = path_loss(d, ch)
    return x / math.sqrt(loss) if loss else x * math.inf


def _snr(e, d: float, ch: ChannelParams):
    # An underflowed loss gives the model's limit: infinite SNR, bit error rate 0.
    noise = path_loss(d, ch) * ch.sigma
    return e / noise if noise else e * math.inf


def transmit_power_for_claim(d_c: float, e0: float, ch: ChannelParams) -> float:
    """Power (d_c/d0)**alpha * e0 that keeps the SNR at d_c equal to the SNR of e0 at d0."""
    if not 0 < d_c <= ch.d0:
        raise ClaimRangeError(f"claim {d_c} m outside (0, {ch.d0}] m")
    if not 0 < e0 <= ch.e_max:
        raise PowerLimitError(f"reference power {e0} W outside (0, {ch.e_max}] W")
    e = (d_c / ch.d0) ** ch.alpha * e0
    if not e > 0:
        raise ClaimRangeError(f"claim {d_c} m needs a power of {e} W, which underflows")
    return e


#: Raw generator words are read little-endian on any host, and a bit error
#: from a 16-bit lane of one: four lanes a word, low lane first.  On a 2-core
#: x86-64 host (numpy 2.4) 16-bit lanes drew 103 and 3334 errors faster than
#: 8- or 32-bit lanes, and 30,006 within 6% of 8-bit lanes, which tie (and
#: draw a double) 256 times as often.
_WORD = np.dtype("<u8")
_LANE = np.dtype("<u2")
_LANE_VALUES = 65536.0
_LANES_PER_WORD = 4


def random_bits(rng: np.random.Generator, k: int) -> np.ndarray:
    """k uniform bits as a uint8 array: the k low-first bits of ceil(k/64)
    raw 64-bit words of ``rng``'s bit generator (``random_raw``), each word
    read little-endian.  The rest of the last word is dropped, so a caller
    that splits a draw between calls and wants the bits of one call draws
    whole words and keeps the rest (``protocols._SharedSource``)."""
    k = int(k)
    words = rng.bit_generator.random_raw(-(-k // 64)).astype(_WORD, copy=False)
    return np.unpackbits(words.view(np.uint8), count=k, bitorder="little")


def bit_errors(rng: np.random.Generator, m: int, p) -> np.ndarray:
    """m independent bit errors as a uint8 array (1: error), each of
    probability p, or of p[i] for error i when p is a numpy array of m rates.

    Error i reads lane i of ceil(m/4) raw 64-bit words of ``rng``'s bit
    generator, each word cut into four 16-bit lanes, low lane first.  With
    c = floor(2**16 p), a lane below c is an error and one above c is not; a
    lane equal to c is settled by one ``rng.random`` double, drawn after the
    words for the tied lanes in order, against the exact fraction
    2**16 p - c.  An error then has probability within 2**-69 of p (never
    below it), where comparing one double with p is within 2**-53: the tie
    settles the lane's next bits only when needed, as in Knuth and Yao's
    generation of a Bernoulli variable from random bits (1976).
    """
    m = int(m)
    per_error = isinstance(p, np.ndarray)
    if not (p.shape == (m,) and ((p >= 0.0) & (p <= 1.0)).all() if per_error
            else 0.0 <= p <= 1.0):
        raise ValueError(f"error probability must be in [0, 1], or {m} of them, got {p}")
    scaled = p * _LANE_VALUES  # exact: a power-of-two scaling
    # A scalar cut stays a Python int, so lanes compare as uint16.
    cut = scaled.astype(np.int64) if per_error else int(scaled)
    words = rng.bit_generator.random_raw(-(-m // _LANES_PER_WORD)).astype(_WORD, copy=False)
    lanes = words.view(_LANE)[:m]
    errors = lanes < cut
    if per_error or scaled != cut:  # a rate on the lane grid ties no lane
        tied = lanes == cut
        if per_error:
            tied &= scaled != cut
        count = np.count_nonzero(tied)
        if count:
            frac = scaled - cut
            errors[tied] = rng.random(count) < (frac[tied] if per_error else frac)
    return errors.view(np.uint8)


def bits_to_hex(bits: np.ndarray) -> str:
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def bpsk_modulate(bits: np.ndarray, e: float) -> np.ndarray:
    """Map bit 0 -> -sqrt(e), bit 1 -> +sqrt(e)."""
    if not e > 0:
        raise ValueError(f"transmit power must be > 0, got {e}")
    amp = math.sqrt(e)
    levels = np.full(256, amp)
    levels[0] = -amp
    # take gathers about twice as fast as fancy indexing on fresh bits; asarray
    # keeps a 0-d input a 0-d array rather than a scalar.
    return np.asarray(levels.take(np.asarray(bits, dtype=np.uint8)))


def bpsk_demodulate(sig: np.ndarray) -> np.ndarray:
    """Decide by sign: sample < 0 -> bit 0, otherwise (including exactly 0.0) bit 1."""
    sig = np.asarray(sig, dtype=np.float64)
    if np.isnan(sig).any():
        raise ValueError("invalid signal: NaN sample")
    return (sig >= 0).astype(np.uint8)


def propagate(
    sig: np.ndarray,
    d: float,
    ch: ChannelParams,
    rng: np.random.Generator,
    *,
    noiseless: bool = False,
) -> np.ndarray:
    """Attenuate by 1/sqrt(xi * d**alpha) and add fresh Gaussian noise per sample.

    ``sigma`` is the noise power referred to the full symbol bandwidth, so
    each real sample sees variance sigma/2; with this convention the
    demodulated bit error rate is exactly bit_error_prob(snr) for
    snr = e/(xi * d**alpha * sigma).

    Each call draws independent noise: distinct receiving positions (and
    repeated receptions) see independent noise realizations.  ``noiseless``
    selects the sigma -> 0 limit, returning the attenuated signal exactly.

    No session receives through it: every receiver draws bit errors, and
    this analog path, demodulated or decoded, is their test oracle.
    """
    if not d > 0:
        raise ValueError(f"distance must be > 0, got {d}")
    att = attenuate(np.asarray(sig, dtype=np.float64), d, ch)
    if noiseless:
        return att
    # noise + att equals att + noise bit for bit; adding in place saves an array.
    out = rng.normal(0.0, math.sqrt(ch.sigma / 2.0), size=att.shape)
    out += att
    return out


def bit_error_prob(snr: float) -> float:
    """BPSK bit error probability 0.5 * erfc(sqrt(snr))."""
    if snr < 0:
        raise ValueError(f"snr must be >= 0, got {snr}")
    return 0.5 * math.erfc(math.sqrt(snr))


@dataclass(frozen=True)
class BerPair:
    """Error probabilities of the induced binary symmetric broadcast channel.

    p_i applies at distances up to the claim, p_b at the blocked region
    ``psi`` times the claim and beyond.
    """

    p_i: float
    p_b: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_i <= self.p_b <= 0.5):
            raise ValueError(f"need 0 <= p_i <= p_b <= 0.5, got {self.p_i}, {self.p_b}")


def _blocked_snr_ratio(psi: float, ch: ChannelParams) -> float:
    """psi**alpha, the SNR ratio between the claim and psi times the claim.

    A ratio past the float range is infinite, so p_b takes the model's
    limit 1/2 instead of raising OverflowError.
    """
    if not psi > 1:
        raise ValueError(f"ratio psi must be > 1, got {psi}")
    try:
        return psi**ch.alpha
    except OverflowError:
        return math.inf


def intended_blocked_ber(e0: float, psi: float, ch: ChannelParams) -> BerPair:
    """BerPair for reference power e0: p_i at SNR0, p_b at SNR0 / psi**alpha."""
    if not 0 < e0 <= ch.e_max:
        raise PowerLimitError(f"reference power {e0} W outside (0, {ch.e_max}] W")
    ratio = _blocked_snr_ratio(psi, ch)
    snr0 = snr_at_distance(e0, ch.d0, ch)
    return BerPair(bit_error_prob(snr0), bit_error_prob(snr0 / ratio))


def intended_blocked_ber_grid(
    e0: np.ndarray, psi: float, ch: ChannelParams
) -> tuple[np.ndarray, np.ndarray]:
    """(p_i, p_b) arrays over reference powers e0, equal element for element to
    intended_blocked_ber at each power.

    Each error probability goes through ``bit_error_prob`` (``math.erfc``)
    rather than a vectorized erfc, whose last bit differs on many inputs.
    """
    e0 = np.asarray(e0, dtype=np.float64)
    if not ((e0 > 0) & (e0 <= ch.e_max)).all():
        raise PowerLimitError(f"reference powers must lie in (0, {ch.e_max}] W")
    ratio = _blocked_snr_ratio(psi, ch)
    # A noise power so small that e0 / noise passes the float range gives an
    # infinite SNR, the model's limit, as the scalar division does.
    with np.errstate(over="ignore"):
        snr0 = _snr(e0, ch.d0, ch)
    ber = np.frompyfunc(bit_error_prob, 1, 1)
    return ber(snr0).astype(np.float64), ber(snr0 / ratio).astype(np.float64)
