"""Reference Witt arithmetic, written apart from wittkit.

A finite ring A = Z[x]/(f(x), p^M) is the reduction of the torsion-free ring
R = Z[x]/(f(x)) (f monic).  Over R the ghost map
    w_k(a) = sum_{i<=k} p^i a_i^(p^(k-i))
is injective, so the coordinates of a sum, product or Frobenius image are
recovered from ghost components by exact division by p^k.  The Witt
polynomials have integer coefficients, so reducing those coordinates mod p^M
gives the answer in W_n(A) for canonical lifts of the inputs.

Nothing here imports wittkit: elements are tuples of ints, polynomial
products are schoolbook, and the moduli are written out from their
definitions.
"""


class RefRing:
    """Z[x]/(f) reduced mod m at the end; m is None for Z itself.

    ``monic`` holds f's coefficients low to high without the leading 1.
    """

    def __init__(self, p, monic, m):
        self.p = p
        self.monic = tuple(monic)
        self.d = len(self.monic)
        self.m = m

    def mul(self, a, b):
        d = self.d
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        # x^d = -(f_0 + f_1 x + ... + f_{d-1} x^(d-1)); fold from the top
        for k in range(2 * d - 2, d - 1, -1):
            c = conv[k]
            if c:
                for j, fj in enumerate(self.monic):
                    if fj:
                        conv[k - d + j] -= c * fj
        return tuple(conv[:d])

    def pow(self, a, e):
        result = (1,) + (0,) * (self.d - 1)
        while e:
            if e & 1:
                result = self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return result

    def reduce(self, a):
        return tuple(a) if self.m is None else tuple(c % self.m for c in a)


def cyclotomic(p, N, M):
    """cyc(p,N,M): f = Phi_{p^N}(x) = sum_{i<p} x^(i p^(N-1))."""
    d = (p - 1) * p ** (N - 1)
    monic = [0] * d
    for i in range(p - 1):
        monic[i * p ** (N - 1)] = 1
    return RefRing(p, monic, p**M)


def truncated(p, e, K):
    """charp(p,e,K): F_p[s]/(s^(K p^e)), the reduction of Z[s]/(s^(K p^e))."""
    return RefRing(p, [0] * (K * p**e), p)


def integers(p):
    """Z, as Z[x]/(x) with no reduction."""
    return RefRing(p, [0], None)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _scale(a, c):
    return tuple(c * x for x in a)


def ghost(ring, coords):
    """Ghost components of a Witt vector over the lift R."""
    p = ring.p
    out = []
    for k in range(len(coords)):
        acc = (0,) * ring.d
        for i in range(k + 1):
            acc = _add(acc, _scale(ring.pow(coords[i], p ** (k - i)), p**i))
        out.append(acc)
    return out


def from_ghost(ring, ghosts):
    """The Witt vector over R with the given ghost components."""
    p = ring.p
    coords = []
    for k, wk in enumerate(ghosts):
        acc = wk
        for i, ai in enumerate(coords):
            acc = _add(acc, _scale(ring.pow(ai, p ** (k - i)), -(p**i)))
        if any(c % p**k for c in acc):
            raise ArithmeticError(f"ghost vector is not integral at level {k}")
        coords.append(tuple(c // p**k for c in acc))
    return coords


def _lift(coords):
    return [(c,) if isinstance(c, int) else tuple(c) for c in coords]


def _out(ring, coords):
    red = [ring.reduce(c) for c in coords]
    return tuple(c[0] for c in red) if ring.m is None else tuple(red)


def witt_add(ring, u, v):
    gu, gv = ghost(ring, _lift(u)), ghost(ring, _lift(v))
    return _out(ring, from_ghost(ring, [_add(a, b) for a, b in zip(gu, gv)]))


def witt_mul(ring, u, v):
    gu, gv = ghost(ring, _lift(u)), ghost(ring, _lift(v))
    return _out(ring, from_ghost(ring, [ring.mul(a, b) for a, b in zip(gu, gv)]))


def frobenius(ring, u):
    """F: W_n -> W_{n-1}, the ghost shift."""
    return _out(ring, from_ghost(ring, ghost(ring, _lift(u))[1:]))


def verschiebung(ring, u):
    """V: W_n -> W_{n+1}, (a_0, ...) -> (0, a_0, ...)."""
    zero = 0 if ring.m is None else (0,) * ring.d
    return (zero,) + tuple(u)
