"""wittkit: exact truncated Witt vectors, finite perfectoid tilts, and
Kahler-differential torsion, with a machine-checking harness for the
identities relating them.

The ``paper-check`` console script (see wittkit.cli) runs the named suites.
"""

from ._kernel import impl_name
from .rings import (
    CharPQuotient,
    CyclotomicTruncation,
    IntegerRing,
    RingElement,
    ring_from_descriptor,
)
from .witt import (
    WittUniversalTable,
    WittVector,
    frobenius,
    get_table,
    ghost,
    restriction,
    teichmuller,
    teichmuller_divide,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    z_element,
)

__version__ = "0.1.0"

__all__ = [
    "impl_name",
    "IntegerRing",
    "CyclotomicTruncation",
    "CharPQuotient",
    "RingElement",
    "ring_from_descriptor",
    "WittUniversalTable",
    "WittVector",
    "get_table",
    "ghost",
    "teichmuller",
    "teichmuller_divide",
    "verschiebung",
    "restriction",
    "frobenius",
    "witt_add",
    "witt_mul",
    "witt_neg",
    "z_element",
    "__version__",
]
