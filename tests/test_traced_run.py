"""The benchmark's traced run still works on this code.

``perfbench/spans.py`` wraps, for one traced iteration, every
``SPAN_TARGETS`` name where its callers look it up and the ``SimContext``
ops of ``OP_VECTORS``.  A name that is gone raises before the iteration
runs, and a wrapped op called with keyword arguments raises inside it (its
wrapper reads the ciphertext as the first positional argument).  Either
makes the traced benchmark run fail, so both are checked here, in both
packings.
"""

import sys
from pathlib import Path

import numpy as np

from hegcn.engine import run_model
from hegcn.hesim import SimContext
from hegcn.model import acceptance_stgcn3
from hegcn.packing import AMA, ROWMAJOR, GraphTensor

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402  (lives in perfbench/, outside the package)


def test_every_wrapped_name_is_where_the_tracer_looks():
    for owner, attr, _ in spans.SPAN_TARGETS:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
    for op in spans.OP_VECTORS:
        assert op in vars(SimContext), f"SimContext.{op}"


def test_a_traced_run_counts_what_an_untraced_one_does():
    """The acceptance model in both packings, as the CLI workload runs it."""
    spec = acceptance_stgcn3()
    x = GraphTensor.random(spec.input_dims, seed=43)
    originals = {op: vars(SimContext)[op] for op in spans.OP_VECTORS}
    for fmt, spatial in ((AMA, "engine.ama_spatial"), (ROWMAJOR, "engine.rowmajor_spatial")):
        want = run_model(spec, x, fmt, slot_count=1024)
        tracer, tag = spans.Tracer(), ("iteration", 0)
        with tracer.installed(tag):
            got = run_model(spec, x, fmt, slot_count=1024)
        assert {op: vars(SimContext)[op] for op in spans.OP_VECTORS} == originals
        assert got.counter == want.counter
        np.testing.assert_array_equal(got.scores, want.scores)
        ops = tracer.op_totals(tag)
        assert ops["add"][0] > 0 and ops["pmult"][0] > 0, fmt
        assert tracer.calls(tag, spatial) == 3 and tracer.calls(tag, "engine.temporal_conv") == 3, fmt
        assert tracer.self_sum_error(tag) <= 0.05, fmt
