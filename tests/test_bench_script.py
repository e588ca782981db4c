"""benchmarks/bench_kernels.py imports against the current package.

Nothing else in the suite reads the script, so a name it imports that the
package no longer has would otherwise go unnoticed until the next run."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def test_the_kernel_benchmark_script_imports():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its main runs only as a script
    assert callable(module.main)
    assert module._ms_per_call(lambda: None, 2) >= 0
