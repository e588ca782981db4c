"""Kernel selection: compiled coefficient-vector arithmetic with a pure-Python
fallback.

Multiplications of canonical coefficient vectors in Z/m[x]/(minpoly) run
through this module for rings with more than ``rings.TABLE_CAP`` elements;
smaller rings use the lookup tables of ``rings.SmallRingTables`` and never
call the multiplication kernel.  A single import-time switch picks the Cython
extension when it was built and the pure-Python implementation otherwise
(``WITTKIT_PURE`` forces the latter), so the switch only affects rings above
the cap.  The pure-Python implementation packs the vectors of cyclotomic and
characteristic-p truncations into ints and multiplies them once (see
``_fallback``); other reduction rows, and moduli too large for 64-bit slots,
take its schoolbook loop.  Both implementations share one calling
convention:

    ctx = make_ctx(red_rows, m, d)  # red_rows[j] = x^(d+j) reduced, coeffs mod m
    c   = poly_mulmod(a, b, ctx)    # canonical product of canonical vectors

Vectors are tuples of ints in [0, m).  ``benchmarks/bench_kernels.py`` compares
the two implementations.
"""

import os

from . import _fallback

try:
    from . import _speedups

    HAVE_SPEEDUPS = True
except ImportError:  # extension not built
    _speedups = None
    HAVE_SPEEDUPS = False

if os.environ.get("WITTKIT_PURE"):  # force the fallback (benchmarks, debugging)
    HAVE_SPEEDUPS = False

_impl = _speedups if HAVE_SPEEDUPS else _fallback

make_ctx = _impl.make_ctx
poly_mulmod = _impl.poly_mulmod
poly_powmod = _impl.poly_powmod
vec_addmod = _impl.vec_addmod
vec_submod = _impl.vec_submod
vec_negmod = _impl.vec_negmod
vec_scalemod = _impl.vec_scalemod


def impl_name():
    return "cython" if HAVE_SPEEDUPS else "python"
