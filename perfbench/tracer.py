"""Span and counter recording around bfvlab's public functions.

The benchmark never edits bfvlab: a Tracer swaps wrappers in at the
names the library looks up while a ``with tracer:`` block runs, and puts
the originals back afterwards, so untraced ops run the library
unchanged.  A name has to be patched where it is looked up:

* ``bfv`` imports ``sample_*`` and ``round_half_away`` by name, and
  ``attacks`` imports ``monomial``, ``round_half_away`` and
  ``integer_encode``/``integer_decode`` by name, so those are patched
  in the importing module as well as in the defining one;
* ``psi`` and ``cli`` call ``bfv.*`` and ``attacks.*`` through the
  module, so patching the module attribute reaches them;
* ``Polynomial`` operators, constructors and the oracles' ``__call__``
  are patched on the class.

Ring products are classified from the operands at the call:

* ``ring.mul_scalar``: the other operand is an integer;
* ``ring.mul_monomial``: either operand has at most one nonzero
  coefficient;
* otherwise each operand is *wide* when the bit length of its largest
  |coefficient| is more than half of ``(q - 1).bit_length()``, and
  *small* otherwise, giving ``ring.mul_wide_wide``,
  ``ring.mul_wide_small`` (either order) or ``ring.mul_small_small``.

Spans stay in memory; ``write_spans`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

import numpy as np

from bfvlab import attacks, bfv, cli, encoders, psi, ring

# Span layers reported per op; every name is reported, even when a
# workload never reaches it, so that untraveled code shows as 0 calls.
LAYERS = (
    "ring.mul_wide_small",
    "ring.mul_small_small",
    "ring.mul_wide_wide",
    "ring.mul_scalar",
    "ring.mul_monomial",
    "ring.from_list",
    "ring.sample",
    "ring.monomial",
    "ring.hex",
    "bfv.keygen",
    "bfv.encrypt",
    "bfv.decrypt",
    "bfv.decrypt_raw",
    "bfv.eval",
    "bfv.flood",
    "bfv.json_out",
    "bfv.json_in",
    "encoders.encode",
    "encoders.decode",
    "attacks.probe",
    "attacks.oracle",
    "attacks.noise",
    "attacks.recover",
    "psi.frame",
    "psi.alice",
    "psi.bob",
    "psi.verify",
    "cli.main",
)

_SAMPLERS = ("sample_uniform", "sample_binary", "sample_gaussian")

# (module, attribute, layer) for functions looked up as module attributes.
_FUNCTIONS = (
    *((ring, name, "ring.sample") for name in _SAMPLERS),
    *((bfv, name, "ring.sample") for name in _SAMPLERS),
    (ring, "monomial", "ring.monomial"),
    (attacks, "monomial", "ring.monomial"),
    (bfv, "keygen", "bfv.keygen"),
    (bfv, "encrypt", "bfv.encrypt"),
    (bfv, "decrypt", "bfv.decrypt"),
    (bfv, "decrypt_raw", "bfv.decrypt_raw"),
    *((bfv, name, "bfv.eval") for name in ("add", "add_plain", "sub_from_plain", "mul_plain")),
    (bfv, "encrypt_zero_flood", "bfv.flood"),
    *(
        (bfv, f"{kind}_to_json", "bfv.json_out")
        for kind in ("secret_key", "public_key", "ciphertext", "plaintext")
    ),
    *(
        (bfv, f"{kind}_from_json", "bfv.json_in")
        for kind in ("secret_key", "public_key", "ciphertext", "plaintext")
    ),
    (encoders, "integer_encode", "encoders.encode"),
    (attacks, "integer_encode", "encoders.encode"),
    (encoders, "integer_decode", "encoders.decode"),
    (attacks, "integer_decode", "encoders.decode"),
    (attacks, "bit_leak_probe", "attacks.probe"),
    (attacks, "evaluation_noise", "attacks.noise"),
    (attacks, "circuit_privacy_recover", "attacks.recover"),
    (psi, "decode_frame", "psi.frame"),
    *((psi, name, "psi.alice") for name in ("alice_init", "alice_query", "alice_finish")),
    *((psi, name, "psi.bob") for name in ("bob_init", "bob_respond")),
    (psi, "verify_transcript", "psi.verify"),
    (cli, "main", "cli.main"),
)

_ORACLES = ("DecryptionOracle", "ZeroCheckOracle")


def mul_kind(a, b) -> str:
    """The ring-product layer a call ``a * b`` is counted under."""
    if not isinstance(b, ring.Polynomial):
        return "ring.mul_scalar"
    if np.count_nonzero(a.coeffs) <= 1 or np.count_nonzero(b.coeffs) <= 1:
        return "ring.mul_monomial"
    q_bits = (a.modulus - 1).bit_length()
    wide = [2 * int(np.abs(p.coeffs).max()).bit_length() > q_bits for p in (a, b)]
    if all(wide):
        return "ring.mul_wide_wide"
    return "ring.mul_wide_small" if any(wide) else "ring.mul_small_small"


class Tracer:
    """Records spans and counters for calls made inside ``with tracer:``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.oracles: list = []
        self.unpatched: list[str] = []
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._op = 0
        self._patches = self._build_patches()

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as a span named ``name`` nested under the open span."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.calls[name] += 1
            self.self_ns[name] += duration - frame[1]
            self.spans.append((self._op, span_id, parent, name, start, end))

    def op(self, fn, *args):
        """Run one op as a root span with the layer wrappers installed."""
        self._op += 1
        with self:
            return self.call("op", fn, *args)

    def oracle_calls_per_key(self) -> float:
        """Queries per attacked key, read from each oracle's own counter."""
        if not self.oracles:
            return 0.0
        return sum(o.calls for o in self.oracles) / len(self.oracles)

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for op, span_id, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"op": op, "id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        return False

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _build_patches(self) -> list[tuple]:
        patches = []

        def add(owner, attr, make_wrapper):
            original = vars(owner).get(attr)
            if original is None:
                self.unpatched.append(f"{owner.__name__}.{attr}")
                return
            patches.append((owner, attr, original, make_wrapper(original)))

        for module, attr, layer in _FUNCTIONS:
            add(module, attr, functools.partial(self._spanned, layer))

        def counted(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (bfv, attacks):
            add(module, "round_half_away", functools.partial(counted, "ring.round.calls"))

        def framed(fn):
            @functools.wraps(fn)
            def wrapper(msg):
                frame = self.call("psi.frame", fn, msg)
                self.counts["psi.frame.bytes"] += len(frame)
                return frame

            return wrapper

        add(psi, "encode_frame", framed)

        poly = ring.Polynomial

        def mul(fn):
            @functools.wraps(fn)
            def wrapper(a, b):
                return self.call(mul_kind(a, b), fn, a, b)

            return wrapper

        def init(fn):
            @functools.wraps(fn)
            def wrapper(p, coeffs, *args, **kwargs):
                if isinstance(coeffs, np.ndarray) and coeffs.dtype == np.int64:
                    return fn(p, coeffs, *args, **kwargs)
                return self.call("ring.from_list", fn, p, coeffs, *args, **kwargs)

            return wrapper

        add(poly, "__mul__", mul)
        add(poly, "__rmul__", mul)
        add(poly, "__init__", init)
        add(poly, "to_hex", functools.partial(self._spanned, "ring.hex"))
        add(
            poly,
            "from_hex",
            lambda raw: classmethod(self._spanned("ring.hex", raw.__func__)),
        )

        def registering(fn):
            @functools.wraps(fn)
            def wrapper(oracle, *args, **kwargs):
                fn(oracle, *args, **kwargs)
                self.oracles.append(oracle)

            return wrapper

        for cls_name in _ORACLES:
            cls = getattr(attacks, cls_name, None)
            if cls is None:
                self.unpatched.append(f"attacks.{cls_name}")
                continue
            add(cls, "__call__", functools.partial(self._spanned, "attacks.oracle"))
            add(cls, "__init__", registering)
        return patches
