"""30-digit mpmath oracles for the enclosures the library prints.

Each oracle is computed independently of the code it checks: it shares
no float routine with ``gst`` and reads only a weight's kind and
parameters and a gap family's closed form.
"""

import mpmath

mpmath.mp.dps = 30


def mp_log_w(w, y):
    """log w(t) at y = 1 + log(1/t), in mpmath."""
    if w.kind == "power":
        return -w.params[0] * (y - 1)
    if w.kind == "log_power":
        c, depth = w.params
        val = y
        for _ in range(depth - 1):
            val = 1 + mpmath.log(val)
        return -c * mpmath.log(val)
    if w.kind == "exp_log":
        a, beta = w.params
        return -a * y ** beta
    raise AssertionError(w.kind)


def gap_sum(lengths, w):
    """sum of L log w(L) over float gap lengths, each read exactly."""
    return mpmath.fsum(mpmath.mpf(L) * mp_log_w(w, 1 - mpmath.log(L))
                       for L in map(float, lengths))


def gap_integral(lengths, w):
    """sum of 2 int_0^(L/2) log w(t) dt over float gap lengths, each read
    exactly, in y = 1 + log(1/t)."""
    return 2 * mpmath.fsum(mpmath.quad(
        lambda y: mp_log_w(w, y) * mpmath.exp(1 - y),
        [1 - mpmath.log(mpmath.mpf(L) / 2), mpmath.inf])
        for L in map(float, lengths))


def geometric_tail(tail, w):
    """sum over the levels of a geometric_levels tail of count * length *
    log w(length): the first max(300, 100/log(1/q)) levels, q = base *
    ratio, past which the rest is below e^-100 of the first level's term
    times a polynomial in the level."""
    count0, base, length0, ratio, first = map(mpmath.mpf, tail.params)
    levels = max(300, int(100 / -mpmath.log(base * ratio)))
    return mpmath.fsum(count0 * base ** (n - 1) * length0 * ratio ** n
                       * mp_log_w(w, 1 - mpmath.log(length0 * ratio ** n))
                       for n in range(int(first) + 1,
                                      int(first) + levels + 1))


def entropy_sum(E, w):
    """(low, high) around the sum of m log w(m) over the gaps of E: its
    explicit gaps by ``gap_sum``, a geometric tail by ``geometric_tail``
    and a log tail by ``log_tail``."""
    explicit = gap_sum(E.lengths, w)
    if E.tail is None:
        return explicit, explicit
    if E.tail.kind != "geometric_levels":
        low, high = log_tail(E.tail, w)
        return explicit + low, explicit + high
    rest = geometric_tail(E.tail, w)
    return explicit + rest, explicit + rest


def _log_x(y, shift):
    """log(e^y + shift); past y = 200 the shift moves it by less than
    the working precision."""
    return y if y > 200 else mpmath.log(mpmath.exp(y) + shift)


def _level_u(tail, y, shift=0):
    """log(1/length) of the gaps at the real level index x + shift of a
    log gap family, log x = y: x = k for harmonic_log, x = j + 2 for
    stage j of stagewise_log, which has 2^j gaps."""
    amp = mpmath.mpf(tail.params[0])
    ly = _log_x(y, shift)
    u = ly + 2 * mpmath.log(ly) - mpmath.log(amp)
    if tail.kind == "stagewise_log":
        u += (mpmath.exp(y) + shift - 2) * mpmath.log(2)
    return u


def log_tail(tail, w, explicit=2000):
    """(low, high) around sum over the unmaterialized levels of a log gap
    family of count * length * log w(length).

    The first ``explicit`` levels are summed term by term.  Past them, A
    (the level's gap mass, amp/(x log^2 x)) falls and g = log(1/w(length))
    rises with the level, so the rest lies between the integrals of
    A(x) g(x - 1) and of A(x) g(x + 1) from one level on and from the one
    before (Knopp's integral test), here taken by ``mpmath.quad`` in
    v = log log x, where A dx = amp e^-v dv.  Both integrals stop at
    v = 60 for stagewise_log, whose x = e^(e^v) outgrows mpmath's reach;
    its terms past there sum to below 1e-24.
    """
    amp, first = tail.params
    amp = mpmath.mpf(amp)
    x0 = int(first) + (1 if tail.kind == "harmonic_log" else 2)

    def g(y, shift=0):
        return -mp_log_w(w, 1 + _level_u(tail, y, shift))

    head = -mpmath.fsum(amp / (x * mpmath.log(x) ** 2)
                        * g(mpmath.log(x)) for x in range(x0, x0 + explicit))
    x1 = x0 + explicit
    end = 60 if tail.kind == "stagewise_log" else mpmath.inf

    def integral(x, shift):
        v0 = mpmath.log(mpmath.log(x))
        cuts = [v0 + d for d in (0, 1, 4, 16, 48)] + [end]
        return amp * mpmath.quad(
            lambda v: mpmath.exp(-v) * g(mpmath.exp(v), shift), cuts)

    return head - integral(x1 - 1, 1), head - integral(x1, -1)
