"""Named, reproducible random streams.

Every stochastic component in the reproduction draws from an
:class:`RngStream` obtained from a :class:`SeedSequenceRegistry`.  Streams
are derived from the registry's root seed *and the stream name*, so adding a
new consumer never perturbs the draws of existing ones — the standard trick
for variance reduction and regression-stable simulations.

Each stream is a pure-Python PCG64 (XSL-RR 128/64) generator seeded by
numpy's ``SeedSequence`` algorithm, and every draw reproduces the
``numpy.random.Generator`` method named in its docstring bit for bit:
the same seed gives the same stream as
``numpy.random.Generator(numpy.random.PCG64(seed))``.  numpy is the test
oracle (``tests/test_rng_oracle.py``), never a runtime dependency.  The
ziggurat tables are numpy's own (:mod:`repro.sim._ziggurat`), and the
transcendental functions are the C library's through :mod:`math`, as in
numpy's sampler code.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, List, Optional, Sequence

from repro.sim._ziggurat import FE, FI, KE, KI, WE, WI

_M32 = 0xFFFFFFFF
_M52 = 0x000FFFFFFFFFFFFF
_M53 = 0x001FFFFFFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: Multiplying a 64-bit word by 2**64 + 1 places a copy of it above
#: itself, so one right shift by ``r`` rotates it right by ``r``.
_TWICE = (1 << 64) + 1
#: ``next_double``: the top 53 bits of a 64-bit output, scaled to [0, 1).
_TO_DOUBLE = 1.0 / 9007199254740992.0
_INT64_MIN = -(1 << 63)
_INT64_END = 1 << 63

_NOR_R = 3.6541528853610087963519472518
_NOR_INV_R = 0.27366123732975827203338247596
_EXP_R = 7.69711747013104972
_POISSON_LAM_MAX = (_INT64_END - 1) - math.sqrt(_INT64_END - 1) * 10
_LOGGAM_A = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e+00,
)
_LOG_2PI = 1.8378770664093453e+00

_INF = math.inf
_exp = math.exp
_log = math.log
_log1p = math.log1p

# -- SeedSequence -> PCG64 --------------------------------------------------

_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> List[int]:
    """The multiplier chain a ``SeedSequence`` hash walks through."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _M32)
    return chain


#: The hashes' constant chains depend on nothing but the step number, so
#: they are computed once: a four-word pool takes 16 mixing steps, plus 4
#: per entropy word beyond the fourth, and 8 output steps.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)
_OUTPUT_PLAN = tuple(zip(_HASH_B, _HASH_B[1:]))
#: The pool's fixed all-pairs mixing pass: (source, destination, hash
#: constants) per step.
_MIX_PLAN = tuple(
    (src, dst, _HASH_A[k], _HASH_A[k + 1])
    for k, (src, dst) in enumerate(
        ((src, dst) for src in range(_POOL) for dst in range(_POOL) if src != dst),
        start=_POOL,
    )
)


def _pcg64_seed(seed: int) -> tuple:
    """``(state, inc)`` of ``PCG64(seed)``, through ``SeedSequence(seed)``."""
    if not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {type(seed).__name__}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & _M32]
    rest = seed >> 32
    while rest:
        words.append(rest & _M32)
        rest >>= 32
    chain = _HASH_A
    if len(words) > _POOL:
        chain = _hash_constants(_INIT_A, _MULT_A, _POOL * len(words))
    pool = words[:_POOL] + [0] * (_POOL - len(words))
    for i in range(_POOL):
        value = (pool[i] ^ chain[i]) * chain[i + 1] & _M32
        pool[i] = value ^ (value >> 16)
    for src, dst, before, after in _MIX_PLAN:
        value = (pool[src] ^ before) * after & _M32
        value = (_MIX_L * pool[dst] - _MIX_R * (value ^ (value >> 16))) & _M32
        pool[dst] = value ^ (value >> 16)
    step = len(_MIX_PLAN) + _POOL
    for word in words[_POOL:]:
        for dst in range(_POOL):
            value = (word ^ chain[step]) * chain[step + 1] & _M32
            value = (_MIX_L * pool[dst] - _MIX_R * (value ^ (value >> 16))) & _M32
            pool[dst] = value ^ (value >> 16)
            step += 1
    state = []
    for i, (before, after) in enumerate(_OUTPUT_PLAN):
        value = (pool[i % _POOL] ^ before) * after & _M32
        state.append(value ^ (value >> 16))
    # generate_state(4, uint64): little-endian pairs of 32-bit words; the
    # first two 64-bit words are the 128-bit seed (high word first), the
    # last two the stream increment.
    seed128 = state[1] << 96 | state[0] << 64 | state[3] << 32 | state[2]
    inc = (state[5] << 96 | state[4] << 64 | state[7] << 32 | state[6]) << 1 | 1
    inc &= _M128
    return ((inc + seed128) * _PCG_MULT + inc) & _M128, inc


def _pairwise_sum(values: List[float]) -> float:
    """numpy's float64 ``sum``: eight-way blocks, halved above 128 values."""
    n = len(values)
    if n < 8:
        total = -0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        whole = n - n % 8
        r = values[:8]
        for i in range(8, whole, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[whole:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _loggam(x: float) -> float:
    """``log(Gamma(x))`` as numpy's Poisson sampler computes it."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[9]
    for k in range(8, -1, -1):
        gl0 *= x2
        gl0 += _LOGGAM_A[k]
    gl = gl0 / x0 + 0.5 * _LOG_2PI + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """One named PCG64 stream with numpy-identical draws.

    Adds the handful of domain-specific draws the simulators need
    (exponential inter-arrivals, bounded lognormals, empirical choice).
    The generator state is the 128-bit LCG state, its increment and the
    buffered upper half of the last 64-bit output that a 32-bit draw
    split (``-1`` when none is buffered), exactly as in numpy's PCG64.
    """

    __slots__ = ("name", "seed", "_state", "_inc", "_half")

    def __init__(self, seed: int, name: str = "stream") -> None:
        self.name = name
        self.seed = seed
        self._state, self._inc = _pcg64_seed(seed)
        self._half = -1

    # -- bit generator ------------------------------------------------------

    # The public draws inline this step: a method call costs about as
    # much as the step itself.  Rotating the doubled word leaves the output
    # in its low 64 bits, so callers that read only those bits skip the
    # final mask.

    def _next64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        word = ((state >> 64) ^ state) & _M64
        return (word * _TWICE >> (state >> 122)) & _M64

    def _next32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def _next_double(self) -> float:
        return (self._next64() >> 11) * _TO_DOUBLE

    def _interval(self, bound: int) -> int:
        """numpy's ``random_interval``: masked rejection onto ``[0, bound]``."""
        if bound == 0:
            return 0
        mask = (1 << bound.bit_length()) - 1
        draw = self._next32 if bound <= _M32 else self._next64
        while True:
            value = draw() & mask
            if value <= bound:
                return value

    def _standard_normal(self, word: int = -1) -> float:
        """numpy's ``random_standard_normal`` (the 256-layer ziggurat),
        starting from ``word`` when the caller already drew one."""
        while True:
            if word < 0:
                word = self._next64()
            idx = word & 0xFF
            rabs = (word >> 9) & _M52
            x = rabs * WI[idx]
            if word & 0x100:
                x = -x
            if rabs < KI[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -_NOR_INV_R * _log1p(-self._next_double())
                    yy = -_log1p(-self._next_double())
                    if yy + yy > xx * xx:
                        return -(_NOR_R + xx) if (rabs >> 8) & 1 else _NOR_R + xx
            elif (FI[idx - 1] - FI[idx]) * self._next_double() + FI[idx] < _exp(
                -0.5 * x * x
            ):
                return x
            word = -1

    def _standard_exponential(self, word: int = -1) -> float:
        """numpy's ``random_standard_exponential`` (the 256-layer ziggurat),
        starting from ``word`` when the caller already drew one."""
        while True:
            if word < 0:
                word = self._next64()
            idx = (word >> 3) & 0xFF
            ri = (word >> 11) & _M53
            x = ri * WE[idx]
            if ri < KE[idx]:
                return x
            if idx == 0:
                return _EXP_R - _log1p(-self._next_double())
            if (FE[idx - 1] - FE[idx]) * self._next_double() + FE[idx] < _exp(-x):
                return x
            word = -1

    # -- basic draws --------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw from ``[low, high)`` (``Generator.uniform``)."""
        low = float(low)
        span = float(high) - low
        if not 0.0 < span < _INF:
            if not math.isfinite(span):
                raise OverflowError("high - low range exceeds valid bounds")
            if math.copysign(1.0, span) < 0:
                raise ValueError("high - low < 0")
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        word = ((state >> 64) ^ state) & _M64
        word = word * _TWICE >> (state >> 122)
        return low + span * (((word >> 11) & _M53) * _TO_DOUBLE)

    def integer(self, low: int, high: int) -> int:
        """One integer from ``[low, high)`` (``Generator.integers``).

        Lemire's multiply-and-reject: ranges that fit 32 bits draw
        half-words through the generator's buffer, wider ones whole 64-bit
        outputs.
        """
        if low < _INT64_MIN:
            raise ValueError("low is out of bounds for int64")
        if high > _INT64_END:
            raise ValueError("high is out of bounds for int64")
        if low >= high:
            raise ValueError("low >= high")
        bound = high - 1 - low
        if bound == 0:
            return low
        if bound <= _M32:
            if bound == _M32:
                return low + self._next32()
            span = bound + 1
            product = self._next32() * span
            if product & _M32 < span:
                threshold = (_M32 - bound) % span
                while product & _M32 < threshold:
                    product = self._next32() * span
            return low + (product >> 32)
        if bound == _M64:
            return low + self._next64()
        span = bound + 1
        product = self._next64() * span
        if product & _M64 < span:
            threshold = (_M64 - bound) % span
            while product & _M64 < threshold:
                product = self._next64() * span
        return low + (product >> 64)

    def exponential(self, mean: float) -> float:
        """One exponential draw with the given mean, not rate.

        Matches ``Generator.exponential(mean)``.
        """
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        word = ((state >> 64) ^ state) & _M64
        word = (word * _TWICE >> (state >> 122)) & _M64
        ri = word >> 11
        idx = (word >> 3) & 0xFF
        if ri < KE[idx]:
            return mean * (ri * WE[idx])
        return mean * self._standard_exponential(word)

    def normal(self, mean: float, std: float) -> float:
        """One normal draw (``Generator.normal``)."""
        if std <= 0 and math.copysign(1.0, std) < 0:
            raise ValueError("scale < 0")
        return mean + std * self._standard_normal()

    def lognormal_bounded(
        self,
        median: float,
        sigma: float,
        low: float = 0.0,
        high: float = float("inf"),
    ) -> float:
        """A lognormal draw around ``median`` clipped to ``[low, high]``.

        Lognormals model service-time and payload-size variability; the
        clip keeps pathological tails from destabilising short benchmark
        runs.  Matches ``Generator.lognormal(log(median), sigma)``, then
        clipped.
        """
        if median <= 0:
            raise ValueError(f"median must be > 0, got {median}")
        if sigma <= 0 and math.copysign(1.0, sigma) < 0:
            raise ValueError("sigma < 0")
        # The ziggurat's first layer test, inlined: it accepts 99.3% of
        # draws, so the common case is one PCG step and one exp().
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        word = ((state >> 64) ^ state) & _M64
        word = word * _TWICE >> (state >> 122)
        idx = word & 0xFF
        rabs = (word >> 9) & _M52
        if rabs < KI[idx]:
            z = rabs * WI[idx]
            if word & 0x100:
                z = -z
        else:
            z = self._standard_normal(word & _M64)
        draw = _exp(_log(median) + sigma * z)
        if low > draw:
            draw = low
        if high < draw:
            draw = high
        return draw

    def choice(self, options: Sequence, weights: Optional[Sequence[float]] = None):
        """Pick one element, optionally weighted (weights need not sum to 1).

        Matches ``Generator.integers(0, len(options))`` unweighted and
        ``Generator.choice(len(options), p=weights / sum(weights))``
        weighted.
        """
        if not options:
            raise ValueError("choice() requires a non-empty sequence")
        if weights is None:
            return options[self.integer(0, len(options))]
        if len(weights) != len(options):
            raise ValueError("weights must match options in length")
        probabilities = [float(weight) for weight in weights]
        total = _pairwise_sum(probabilities)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        probabilities = [p / total for p in probabilities]
        if any(not p >= 0 for p in probabilities):
            raise ValueError("weights must be non-negative and finite")
        # numpy normalises again through a sequential cumulative sum and
        # picks the first bin whose bound exceeds one uniform draw.
        cdf = list(accumulate(probabilities))
        last = cdf[-1]
        cdf = [bound / last for bound in cdf]
        return options[bisect_right(cdf, self._next_double())]

    def shuffle(self, items: list) -> list:
        """Return a new list with ``items`` in shuffled order.

        Matches ``Generator.permutation(len(items))``: a Fisher-Yates pass
        from the back.
        """
        order = list(range(len(items)))
        for i in range(len(order) - 1, 0, -1):
            j = self._interval(i)
            order[i], order[j] = order[j], order[i]
        return [items[i] for i in order]

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p`` (``Generator.random() < p``)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        word = ((state >> 64) ^ state) & _M64
        word = word * _TWICE >> (state >> 122)
        return ((word >> 11) & _M53) * _TO_DOUBLE < p

    def poisson(self, lam: float) -> int:
        """One Poisson count with mean ``lam`` (``Generator.poisson``).

        Multiplies uniforms below ``lam = 10`` and uses Hörmann's PTRS
        rejection sampler from 10.
        """
        if not lam >= 0:
            raise ValueError("lam < 0 or lam is NaN")
        if lam > _POISSON_LAM_MAX:
            raise ValueError("lam value too large")
        if lam == 0:
            return 0
        if lam < 10:
            floor = _exp(-lam)
            count = 0
            product = 1.0
            while True:
                product *= self._next_double()
                if product <= floor:
                    return count
                count += 1
        slam = math.sqrt(lam)
        loglam = math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u = self._next_double() - 0.5
            v = self._next_double()
            us = 0.5 - abs(u)
            if us == 0.0:
                # numpy's k is then floor(-inf) cast to int64: negative,
                # so the draw is rejected.
                continue
            k = math.floor((2 * a / us + b) * u + lam + 0.43)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            log_v = math.log(v) if v > 0 else -math.inf
            if (log_v + math.log(invalpha) - math.log(a / (us * us) + b)) <= (
                -lam + k * loglam - _loggam(k + 1)
            ):
                return k

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStream {self.name!r} seed={self.seed}>"


class SeedSequenceRegistry:
    """Derives independent named streams from one root seed.

    Requesting the same name twice returns the *same* stream object, so
    components that share a name share a stream deliberately.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Get (or create) the stream registered under ``name``."""
        if name not in self._streams:
            self._streams[name] = RngStream(
                _derive_seed(self.root_seed, name), name=name
            )
        return self._streams[name]

    def fork(self, suffix: str) -> "SeedSequenceRegistry":
        """A child registry whose streams are independent of the parent's."""
        return SeedSequenceRegistry(_derive_seed(self.root_seed, f"fork:{suffix}"))

    def names(self) -> Iterator[str]:
        """Names of all streams created so far."""
        return iter(sorted(self._streams))


__all__ = ["RngStream", "SeedSequenceRegistry"]
