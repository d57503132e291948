"""The four benchmark workloads.

Each workload turns ``--seed`` into inputs, runs one op at a time through
bfvlab's public API (closed loop, one client, one thread) and checks
every op against ground truth the op did not compute: the key the op's
inputs were made with, a keygen or a draw replayed from the same seed,
or input equality.

Why these four (also recorded in BENCHMARK.json):

* ``bitleak-sweep``: one key-bit probe plus one zero-check query per op.
  About 80% of an op is one wide x small ring product in ``decrypt``
  and nothing is serialized, so ring-kernel and decrypt-rounding
  changes show here and parser changes should not.
* ``psi-mixed``: one honest and one flooded equality session per op, so
  every op does the same work and the latency median does not fall
  between two modes.  Each session does keygen, encrypt, decrypt and
  four JSON frames, and builds polynomials from Python lists: the
  serialization path.
* ``circuit-recovery``: one honest and one flooded circuit-privacy trial
  per op.  The only workload with small x small products and the
  recovery's Python loops, and it serializes nothing.
* ``cli-1024``: one keygen, encrypt, decrypt, ``attack cca`` and
  ``attack encoder`` through ``cli.main`` per op, at d=1024.  The only
  workload with a different ring degree, the CLI, the encoders, hex
  and JSON files.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from bfvlab import attacks, bfv, cli, psi

FLOOD_BOUND = 1 << 30


def centered(value: int, modulus: int) -> int:
    """value mod modulus, in [-modulus/2, modulus/2)."""
    r = value % modulus
    return r - modulus if r >= (modulus + 1) // 2 else r


def hex_coeffs(text: str, modulus: int) -> list[int]:
    """Decode a report's fixed-width two's-complement hex polynomial."""
    width = 2 * (((modulus - 1).bit_length() + 7) // 8)
    full = 1 << (4 * width)
    values = [int(text[k : k + width], 16) for k in range(0, len(text), width)]
    return [v - full if v >= full // 2 else v for v in values]


class BitleakSweep:
    """Key-bit probes against one key at ``bitleak-2048``, index k mod d."""

    name = "bitleak-sweep"

    def __init__(self, seed: int, scratch: Path):
        self.params = bfv.get_params("bitleak-2048")
        self.sk, self.pk = bfv.keygen(self.params, np.random.default_rng(seed))
        self.key_bits = [int(c) for c in self.sk.s.coeffs]
        self.oracle = attacks.ZeroCheckOracle.honest(self.sk, self.params)

    def op(self, k: int) -> bool:
        probe = attacks.bit_leak_probe(self.pk, k % self.params.d, self.params)
        return self.oracle(probe)

    def check(self, k: int, decrypts_to_zero: bool) -> bool:
        return (0 if decrypts_to_zero else 1) == self.key_bits[k % self.params.d]

    def sweep(self):
        """One full key recovery, driven by the library's own query loop."""
        oracle = attacks.ZeroCheckOracle.honest(self.sk, self.params)
        recovered = attacks.bit_leak_attack(oracle, self.pk, self.params)
        return recovered, oracle.calls

    def sweep_failures(self, result) -> int:
        """Wrong key bits, or every query when the oracle did not count d queries."""
        recovered, calls = result
        if calls != self.params.d:
            return self.params.d
        return sum(int(c) != b for c, b in zip(recovered.s.coeffs, self.key_bits))


class PsiMixed:
    """Equality sessions at ``psi-83``: one honest, one flooded per op.

    In each op one session has equal inputs and the other does not,
    alternating which, so half of all pairs are equal.
    """

    name = "psi-mixed"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.params = bfv.get_params("psi-83")

    def inputs(self, k: int) -> list[tuple[int, int]]:
        t = self.params.t
        rng = np.random.default_rng([self.seed, k, 0])
        pairs = []
        for j in range(2):
            m_a = centered(int(rng.integers(0, t)), t)
            equal = (k + j) % 2 == 0
            m_b = m_a if equal else centered(m_a + int(rng.integers(1, t)), t)
            pairs.append((m_a, m_b))
        return pairs

    def op(self, k: int):
        results = []
        strategies = (psi.Honest(), psi.Flooding(FLOOD_BOUND))
        for j, ((m_a, m_b), strategy) in enumerate(zip(self.inputs(k), strategies)):
            rng = np.random.default_rng([self.seed, k, 1 + j])
            transcript = psi.run_session(self.params, m_a, m_b, rng, strategy=strategy)
            results.append((transcript, psi.verify_transcript(transcript)))
        return results

    def check(self, k: int, results) -> bool:
        t = self.params.t
        for (m_a, m_b), (transcript, verified) in zip(self.inputs(k), results):
            expected = "equal" if (m_a - m_b) % t == 0 else "not-equal"
            if transcript.outcome != expected or verified.value != expected:
                return False
            if len(transcript.frames) != 4:
                return False
        return True


class CircuitRecovery:
    """``run_circuit_privacy_attack`` at ``psi-83``: one honest, one flooded trial per op."""

    name = "circuit-recovery"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.params = bfv.get_params("psi-83")
        self.trials = self.recovered = self.blocked = 0

    def _rng(self, k: int, flooded: bool) -> np.random.Generator:
        return np.random.default_rng([self.seed, k, int(flooded)])

    def op(self, k: int):
        return [
            attacks.run_circuit_privacy_attack(
                self.params, self._rng(k, flood is not None), flood_bound=flood, trials=1
            )
            for flood in (None, FLOOD_BOUND)
        ]

    def drawn(self, k: int) -> tuple[int, int]:
        """Replay the trial's draws: keygen, then m_a, the equal coin, m_b, r."""
        t = self.params.t
        rng = self._rng(k, flooded=False)
        bfv.keygen(self.params, rng)
        m_a = centered(int(rng.integers(0, t)), t)
        m_b = m_a if rng.random() < 0.5 else centered(int(rng.integers(0, t)), t)
        r = centered(int(rng.integers(1, t)), t)
        return r, m_b

    def outcomes(self, k: int, reports) -> tuple[bool, bool]:
        """(honest trial recovered the drawn (r, m_b), flooded trial was blocked)."""
        honest, flooded = reports
        t, d = self.params.t, self.params.d
        r, m_b = self.drawn(k)
        got = honest.recovered
        recovered = (
            honest.success
            and honest.details["correctness_failures"] == 0
            and set(got) == {"r", "m_b"}
            and hex_coeffs(got["r"], t) == [r] + [0] * (d - 1)
            and hex_coeffs(got["m_b"], t) == [m_b] + [0] * (d - 1)
        )
        details = flooded.details
        blocked = (
            details["blocked"] == 1
            and details["recoveries"] == 0
            and details["correctness_failures"] == 0
        )
        return recovered, blocked

    def check(self, k: int, reports) -> bool:
        recovered, blocked = self.outcomes(k, reports)
        self.trials += 1
        self.recovered += recovered
        self.blocked += blocked
        return recovered and blocked

    def facts(self) -> dict:
        """Shares of honest trials recovered and flooded trials blocked."""
        return {
            "success_ratio": self.recovered / self.trials,
            "blocked_ratio": self.blocked / self.trials,
        }


class Cli1024:
    """Five ``bfvlab`` commands at ``cca-1024`` per op, each op in its own directory."""

    name = "cli-1024"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.params = bfv.get_params("cca-1024")
        self.scratch = scratch
        self._runs = 0
        self.checked = self.bytes = 0

    def _seeds(self, k: int) -> list[int]:
        rng = np.random.default_rng([self.seed, k])
        return [int(s) for s in rng.integers(0, 2**63, size=4)]

    def message(self, k: int) -> list[int]:
        t = self.params.t
        raw = np.random.default_rng([self.seed, k, 1]).integers(0, t, size=self.params.d)
        return np.where(raw >= (t + 1) // 2, raw - t, raw).tolist()

    def op(self, k: int):
        work = self.scratch / f"cli-op-{self._runs}"
        self._runs += 1
        work.mkdir(parents=True)
        (work / "m.json").write_text(json.dumps(self.message(k)))
        keys_seed, enc_seed, cca_seed, demo_seed = map(str, self._seeds(k))
        key = str(work / "alice")
        commands = [
            ["keygen", "--params", "cca-1024", "--seed", keys_seed, "--out", key],
            ["encrypt", "--key", key + ".pk.json", "--in", str(work / "m.json"),
             "--out", str(work / "ct.json"), "--seed", enc_seed],
            ["decrypt", "--key", key + ".sk.json", "--in", str(work / "ct.json"),
             "--out", str(work / "out.json")],
            ["attack", "cca", "--params", "cca-1024", "--seed", cca_seed,
             "--out", str(work / "cca.json")],
            ["attack", "encoder", "--params", "cca-1024", "--seed", demo_seed,
             "--out", str(work / "encoder.json")],
        ]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return work, [cli.main(argv) for argv in commands]

    def check(self, k: int, result) -> bool:
        work, exit_codes = result
        # Every file the op's commands read or wrote, each counted once.
        self.bytes += sum(p.stat().st_size for p in work.iterdir())
        self.checked += 1
        try:
            return exit_codes == [0] * 5 and self._outputs_match(k, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _outputs_match(self, k: int, work: Path) -> bool:
        keys_seed, _, cca_seed, _ = self._seeds(k)
        params = self.params

        def replayed_key(seed: int) -> list[int]:
            sk, _ = bfv.keygen(params, np.random.default_rng(seed))
            return [int(c) for c in sk.s.coeffs]

        stored = json.loads((work / "alice.sk.json").read_text())
        if stored["payload"] != [replayed_key(keys_seed)]:
            return False
        if json.loads((work / "out.json").read_text()) != self.message(k):
            return False
        cca = json.loads((work / "cca.json").read_text())
        if hex_coeffs(cca["recovered"]["secret_key"], params.q) != replayed_key(cca_seed):
            return False
        if not cca["success"] or cca["oracle_calls"] != 1:
            return False
        demo = json.loads((work / "encoder.json").read_text())
        first, second = demo["details"]["pairs"]
        # 1 + 3 decrypts to x + 2 and 2 + 2 to 2x; both decode to 4.
        return (
            first["decrypted_coeffs_head"] == [2, 1, 0, 0]
            and second["decrypted_coeffs_head"] == [0, 2, 0, 0]
            and first["decoded"] == second["decoded"] == 4
        )

    def facts(self) -> dict:
        return {"file_bytes": self.bytes / self.checked}


WORKLOADS = {w.name: w for w in (BitleakSweep, PsiMixed, CircuitRecovery, Cli1024)}
