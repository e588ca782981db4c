"""Property tests: the CLI's usage-error contract over the config space, and
the text and JSON round trips of rings, elements and Witt vectors.

Hypothesis runs derandomized and without its example database, so these
tests draw the same examples on every run.  It still caches the constants it
reads from local source files under its home directory, at collection time;
the home directory is set below, on import, to one inside pytest's own cache
directory instead of ./.hypothesis.
"""

import contextlib
import io
from pathlib import Path

from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from wittkit.cli import main
from wittkit.rings import (
    CharPQuotient,
    CyclotomicTruncation,
    IntegerRing,
    ring_from_descriptor,
)
from wittkit.suites import EXTRA_SUITES, SUITES, SuiteConfig, UsageError
from wittkit.witt import WittVector, serialize_witt

configuration.set_hypothesis_home_dir(Path(__file__).resolve().parents[1] / ".pytest_cache" / "hypothesis")

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


SUITE_NAMES = ["all", *SUITES, *EXTRA_SUITES]

configs = st.builds(
    SuiteConfig,
    p=st.sampled_from([-3, 0, 1, 2, 3, 4, 5, 7, 9]),
    n=st.integers(-1, 6),
    N=st.integers(-1, 7),
    M=st.integers(-1, 4),
    T=st.integers(-2, 7),
    e=st.integers(-1, 2),
    K=st.integers(-1, 12),
    budget=st.integers(-1, 10**6),
    seed=st.integers(0, 99),
    workers=st.integers(-1, 3),
    suites=st.lists(st.sampled_from(SUITE_NAMES), min_size=1, max_size=3),
)


def _argv(cfg):
    argv = []
    for flag in ("p", "n", "N", "M", "T", "e", "K"):
        argv += [f"-{flag}", str(getattr(cfg, flag))]
    argv += ["--budget", str(cfg.budget), "--seed", str(cfg.seed), "--workers", str(cfg.workers)]
    for name in cfg.suites:
        argv += ["--suite", name]
    return argv


@DETERMINISTIC
@given(configs)
def test_rejected_configs_exit_two_without_a_traceback(cfg):
    try:
        cfg.validate()
    except UsageError:
        pass
    else:
        return  # valid configs run suites, which is too slow to do here
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(cfg))
    assert code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("paper-check: ")


def _base_rings(p):
    return st.one_of(
        st.just(IntegerRing()),
        st.builds(CyclotomicTruncation, st.just(p), st.integers(1, 2), st.integers(1, 2)),
        st.builds(CharPQuotient, st.just(p), st.integers(0, 1), st.integers(1, 3)),
    )


def _elements(ring):
    if isinstance(ring, IntegerRing):
        return st.integers(-(10**30), 10**30).map(ring.from_int)
    coeffs = st.lists(st.integers(0, ring.m - 1), min_size=ring.d, max_size=ring.d)
    return coeffs.map(ring.from_coeffs)


rings = st.sampled_from([3, 5]).flatmap(lambda p: st.tuples(st.just(p), _base_rings(p)))


@DETERMINISTIC
@given(rings, st.data())
def test_ring_and_element_round_trips(p_ring, data):
    _, ring = p_ring
    assert ring_from_descriptor(ring.descriptor()) == ring
    x = data.draw(_elements(ring))
    text = ring.format_element(x)
    assert ring.parse_element(text) == x


@DETERMINISTIC
@given(rings, st.integers(1, 3), st.data())
def test_witt_vector_round_trips(witt_text, p_ring, n, data):
    parse_witt, witt_to_json, witt_from_json = witt_text
    p, ring = p_ring
    u = WittVector(ring, p, tuple(data.draw(_elements(ring)) for _ in range(n)))
    assert parse_witt(serialize_witt(u), ring) == u
    assert witt_from_json(witt_to_json(u), ring) == u

