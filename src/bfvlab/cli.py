"""Command-line front end: key management, the attack demos and the
two-party equality protocol, all deterministically seeded.

Exit codes: 0 when the requested demo behaves as expected, 2 when an
attack was blocked by an explicitly requested countermeasure, 1 for
unexpected failures (bad inputs, surprising outcomes).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import attacks, bfv, psi
from .bfv import BfvParams, PARAM_SETS
from .ring import _INT64_BUDGET

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BLOCKED = 2


def _params(spec: str) -> BfvParams:
    """--params as a BfvParams: a set name, or D,Q,T[,SIGMA] with sigma 3.2 when left out."""
    if spec in PARAM_SETS:
        return PARAM_SETS[spec]
    fields = spec.split(",")
    if len(fields) not in (3, 4):
        names = ", ".join(sorted(PARAM_SETS))
        raise argparse.ArgumentTypeError(f"expected a set name ({names}) or D,Q,T[,SIGMA]: {spec}")
    try:
        return BfvParams(*map(int, fields[:3]), *map(float, fields[3:]))
    except ValueError as exc:  # a field that is no number, or the parameters' own refusal
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common_flags(parser: argparse.ArgumentParser, default_set: str) -> None:
    parser.add_argument(
        "--params",
        type=_params,
        metavar="SET",
        default=default_set,
        help=f"a named set, one of: {', '.join(sorted(PARAM_SETS))}; or D,Q,T[,SIGMA], "
        f"sigma 3.2 when left out (default: {default_set})",
    )
    parser.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
    parser.add_argument("--out", metavar="PATH", default=None, help="output path")


def _flood_bound(bits: str) -> int:
    """--flood BITS as the bound 2**BITS, BITS < 62: 2**60 or more misses every margin."""
    if not bits.isdecimal() or int(bits) >= _INT64_BUDGET:
        raise argparse.ArgumentTypeError(f"BITS must satisfy 0 <= BITS < {_INT64_BUDGET}: {bits}")
    return 1 << int(bits)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, long ints, deep nesting
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _cmd_keygen(args) -> int:
    sk, pk = bfv.keygen(args.params, np.random.default_rng(args.seed))
    prefix = Path(args.out or "key")
    sk_path = prefix.with_name(prefix.name + ".sk.json")
    pk_path = prefix.with_name(prefix.name + ".pk.json")
    _write_json(sk_path, bfv.secret_key_to_json(sk))
    _write_json(pk_path, bfv.public_key_to_json(pk))
    print(f"wrote {sk_path} and {pk_path}")
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    pk = bfv.public_key_from_json(_read_json(Path(args.key)))
    m = bfv.plaintext(_read_json(Path(args.infile)), pk.params)
    rng = np.random.default_rng(args.seed)
    ct = bfv.encrypt(pk, m, rng)
    out = Path(args.out)
    _write_json(out, bfv.ciphertext_to_json(ct))
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    sk = bfv.secret_key_from_json(_read_json(Path(args.key)))
    ct = bfv.ciphertext_from_json(_read_json(Path(args.infile)))
    m = bfv.decrypt(sk, ct)
    out = Path(args.out)
    _write_json(out, m.to_coeff_list())
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    rng = np.random.default_rng(args.seed)
    # only circuit takes a flood bound and a trial count
    options = {"flood_bound": args.flood, "trials": args.trials} if args.attack == "circuit" else {}
    start = time.perf_counter()
    report = args.run(args.params, rng, **options)
    elapsed = time.perf_counter() - start

    out = Path(args.out or f"{args.attack}-report.json")
    # Timing stays off the report file so identical seeded runs are
    # byte-identical; it is printed instead.
    _write_json(out, report.to_json())
    status = "succeeded" if report.success else "did not succeed"
    print(
        f"{report.attack}: {status} "
        f"({report.oracle_calls} oracle calls, {elapsed:.3f}s), "
        f"report in {out}"
    )

    if args.attack == "circuit" and args.flood is not None:
        held = (
            report.details["recoveries"] == 0
            and report.details["correctness_failures"] == 0
        )
        print("countermeasure held" if held else "countermeasure FAILED")
        return EXIT_BLOCKED if held else EXIT_FAILURE
    return EXIT_OK if report.success else EXIT_FAILURE


def _cmd_psi(args) -> int:
    if (args.bob is None) == (args.index is None):
        raise ValueError("psi takes --bob, or --index in its place")
    if args.flood is not None:
        strategy = psi.Flooding(bound=args.flood)
    elif args.index is not None:
        strategy = psi.MaliciousBitProbe(index=args.index)
    else:
        strategy = psi.Honest()
    # a probe never reads Bob's input, so it gets 0, as in psi.session_zero_check_oracle
    m_b = 0 if args.bob is None else args.bob
    transcript = psi.run_session(
        args.params, args.alice, m_b, np.random.default_rng(args.seed), strategy=strategy
    )
    out = Path(args.out or "psi-transcript.json")
    _write_json(out, transcript.to_json())
    outcome = psi.Outcome(transcript.outcome)
    print("EQUAL" if outcome is psi.Outcome.EQUAL else "NOT-EQUAL")
    print(f"transcript in {out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The bfvlab parser, built once per process and shared by every call
    to main, so callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="bfvlab",
        description="Toy BFV encryption plus a lab of decryption-oracle, "
        "circuit-privacy and encoder-leakage attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_keygen = sub.add_parser("keygen", help="generate a key pair as <out>.sk.json / <out>.pk.json")
    _add_common_flags(p_keygen, "cca-1024")
    p_keygen.set_defaults(handler=_cmd_keygen)

    p_encrypt = sub.add_parser("encrypt", help="encrypt a JSON coefficient array")
    p_encrypt.add_argument("--key", required=True, help="public key file")
    p_encrypt.add_argument(
        "--in", dest="infile", required=True, help="plaintext JSON array, values in [-(t // 2), t)"
    )
    p_encrypt.add_argument("--out", required=True, help="ciphertext output file")
    p_encrypt.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
    p_encrypt.set_defaults(handler=_cmd_encrypt)

    p_decrypt = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p_decrypt.add_argument("--key", required=True, help="secret key file")
    p_decrypt.add_argument("--in", dest="infile", required=True, help="ciphertext file")
    p_decrypt.add_argument("--out", required=True, help="plaintext JSON array output file")
    p_decrypt.set_defaults(handler=_cmd_decrypt)

    p_attack = sub.add_parser("attack", help="run one of the attack demos")
    attack_sub = p_attack.add_subparsers(dest="attack", required=True, metavar="ATTACK")
    for name, default_set, run, help_text in (
        ("cca", "cca-1024", attacks.run_cca_attack,
         "one-query key recovery through a decryption oracle"),
        ("bitleak", "bitleak-2048", attacks.run_bit_leak_attack,
         "key recovery one bit per zero-check query"),
        ("circuit", "psi-83", attacks.run_circuit_privacy_attack,
         "recover Bob's input from an unflooded equality reply"),
        ("encoder", "cca-1024", attacks.run_encoder_leak_demo,
         "integer-encoder sums that decrypt to more than the sum"),
    ):
        p_one = attack_sub.add_parser(name, help=help_text)
        _add_common_flags(p_one, default_set)
        p_one.set_defaults(handler=_cmd_attack, run=run)
    p_circuit = attack_sub.choices["circuit"]
    p_circuit.add_argument(
        "--flood", type=_flood_bound, metavar="BITS", help="flood noise on [-2^BITS, 2^BITS]"
    )
    p_circuit.add_argument("--trials", type=int, default=1, help="how many randomized trials")

    p_psi = sub.add_parser("psi", help="run the two-party equality protocol")
    p_psi.add_argument("--alice", type=int, required=True, help="Alice's integer input")
    p_psi.add_argument("--bob", type=int, help="Bob's integer input; not with --index")
    bob = p_psi.add_mutually_exclusive_group()
    bob.add_argument(
        "--flood",
        type=_flood_bound,
        metavar="BITS",
        help="flood Bob's reply with noise on [-2^BITS, 2^BITS], 0 <= BITS < 62",
    )
    bob.add_argument("--index", type=int, help="Bob's reply probes key bit INDEX of Alice's key")
    _add_common_flags(p_psi, "psi-83")
    p_psi.set_defaults(handler=_cmd_psi)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if not exc.code:  # --help
            raise
        return EXIT_FAILURE  # a usage error is bad input, not a held countermeasure
    try:
        return args.handler(args)
    except (ValueError, OSError, psi.ProtocolError, attacks.AttackError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
