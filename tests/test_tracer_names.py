"""perfbench/tracer.py counts bfvlab's layers by patching names it looks up
at run time.  Every name it asks for and does not find is listed here with
its reason, so a rename in src/ cannot zero a per-layer count unnoticed.

The tracer is read, never written: it is compiled from its source, so no
bytecode cache lands next to it.
"""

import types
from pathlib import Path

from bfvlab import attacks, bfv

from conftest import make_rng

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Names the tracer looks for that bfvlab does not define, and why no count is lost.
EXPECTED_UNPATCHED = {
    # removed from bfvlab; nothing calls them
    "bfvlab.bfv.add_plain",
    "bfvlab.bfv.round_half_away",
    "bfvlab.attacks.round_half_away",
    "bfvlab.bfv.plaintext_to_json",
    "bfvlab.bfv.plaintext_from_json",
    # inherited from DecryptionOracle, whose patched methods count and
    # register ZeroCheckOracle queries too
    "ZeroCheckOracle.__call__",
    "ZeroCheckOracle.__init__",
}


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_tracer_misses_only_documented_names():
    assert set(_load_tracer().Tracer().unpatched) <= EXPECTED_UNPATCHED


def test_zero_check_queries_count_once_through_the_inherited_patch(small_params):
    tracer = _load_tracer().Tracer()
    sk, pk = bfv.keygen(small_params, make_rng(1))

    def sweep():
        oracle = attacks.ZeroCheckOracle.honest(sk, small_params)
        return attacks.bit_leak_attack(oracle, pk, small_params)

    assert tracer.op(sweep).s == sk.s
    assert tracer.calls["attacks.oracle"] == small_params.d
    assert tracer.oracle_calls_per_key() == small_params.d
    # the originals are back once the op ends
    assert not hasattr(attacks.DecryptionOracle.__call__, "__wrapped__")
