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
from .bfv import BfvParams, PARAM_SETS, get_params
from .ring import _INT64_BUDGET

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BLOCKED = 2


def _add_common_flags(parser: argparse.ArgumentParser, default_set: str) -> None:
    parser.add_argument(
        "--params",
        metavar="NAME",
        default=None,
        help=f"named parameter set, one of: {', '.join(sorted(PARAM_SETS))} "
        f"(default: {default_set})",
    )
    parser.add_argument("--d", type=int, help="ring degree (power of two); overrides --params")
    parser.add_argument("--q", type=int, help="coefficient modulus; use with --d and --t")
    parser.add_argument("--t", type=int, help="plaintext modulus; use with --d and --q")
    parser.add_argument("--sigma", type=float, help="noise width with --d/--q/--t (default 3.2)")
    parser.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
    parser.add_argument("--out", metavar="PATH", default=None, help="output path")
    parser.set_defaults(default_set=default_set)


def _resolve_config(args) -> BfvParams:
    """The parameters the flags ask for: explicit --d/--q/--t, or a named set."""
    explicit = [args.d, args.q, args.t]
    if any(v is not None for v in explicit):
        if any(v is None for v in explicit):
            raise ValueError("explicit parameters need all of --d, --q and --t")
        if args.params is not None:
            raise ValueError("give either --params or explicit --d/--q/--t, not both")
        sigma = BfvParams.sigma if args.sigma is None else args.sigma
        return BfvParams(d=args.d, q=args.q, t=args.t, sigma=sigma)
    if args.sigma is not None:
        raise ValueError("--sigma needs explicit --d, --q and --t")
    return get_params(args.params or args.default_set)


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
    params = _resolve_config(args)
    sk, pk = bfv.keygen(params, np.random.default_rng(args.seed))
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
    params = _resolve_config(args)
    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    if args.attack == "cca":
        report = attacks.run_cca_attack(params, rng)
    elif args.attack == "bitleak":
        report = attacks.run_bit_leak_attack(params, rng)
    elif args.attack == "circuit":
        report = attacks.run_circuit_privacy_attack(
            params, rng, flood_bound=args.flood, trials=args.trials
        )
    else:
        report = attacks.run_encoder_leak_demo(params, rng)
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
    if args.verbose:
        print(json.dumps(report.details, indent=2, sort_keys=True))

    if args.attack == "circuit" and args.flood is not None:
        held = (
            report.details["recoveries"] == 0
            and report.details["correctness_failures"] == 0
        )
        print("countermeasure held" if held else "countermeasure FAILED")
        return EXIT_BLOCKED if held else EXIT_FAILURE
    return EXIT_OK if report.success else EXIT_FAILURE


def _cmd_psi(args) -> int:
    params = _resolve_config(args)
    if args.flood is not None and args.strategy != "flooding":
        raise ValueError("--flood needs --strategy flooding")
    if args.index is not None and args.strategy != "malicious-probe":
        raise ValueError("--index needs --strategy malicious-probe")
    if args.strategy == "honest":
        strategy = psi.Honest()
    elif args.strategy == "flooding":
        strategy = psi.Flooding(bound=1 << 30 if args.flood is None else args.flood)
    else:
        strategy = psi.MaliciousBitProbe(index=args.index or 0)
    transcript = psi.run_session(
        params, args.alice, args.bob, np.random.default_rng(args.seed), strategy=strategy
    )
    out = Path(args.out or "psi-transcript.json")
    _write_json(out, transcript.to_json())
    outcome = psi.Outcome(transcript.outcome)
    print("EQUAL" if outcome is psi.Outcome.EQUAL else "NOT-EQUAL")
    if args.verbose:
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
    for name, default_set, help_text in (
        ("cca", "cca-1024", "one-query key recovery through a decryption oracle"),
        ("bitleak", "bitleak-2048", "key recovery one bit per zero-check query"),
        ("circuit", "psi-83", "recover Bob's input from an unflooded equality reply"),
        ("encoder", "cca-1024", "integer-encoder sums that decrypt to more than the sum"),
    ):
        p_one = attack_sub.add_parser(name, help=help_text)
        _add_common_flags(p_one, default_set)
        p_one.add_argument("--verbose", action="store_true", help="print the report details")
        p_one.set_defaults(handler=_cmd_attack)
    p_circuit = attack_sub.choices["circuit"]
    p_circuit.add_argument(
        "--flood", type=_flood_bound, metavar="BITS", help="flood noise on [-2^BITS, 2^BITS]"
    )
    p_circuit.add_argument("--trials", type=int, default=1, help="how many randomized trials")

    p_psi = sub.add_parser("psi", help="run the two-party equality protocol")
    p_psi.add_argument("--alice", type=int, required=True, help="Alice's integer input")
    p_psi.add_argument("--bob", type=int, required=True, help="Bob's integer input")
    p_psi.add_argument(
        "--strategy",
        choices=("honest", "flooding", "malicious-probe"),
        default="honest",
        help="Bob's response strategy (default honest)",
    )
    p_psi.add_argument(
        "--flood",
        type=_flood_bound,
        metavar="BITS",
        help="flooding strategy only: noise bound exponent, 0 <= BITS < 62 (default 30)",
    )
    p_psi.add_argument(
        "--index", type=int, help="malicious-probe strategy only: key bit to probe (default 0)"
    )
    _add_common_flags(p_psi, "psi-83")
    p_psi.add_argument("--verbose", action="store_true", help="print the transcript path")
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
