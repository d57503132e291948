"""End-to-end command line checks: key handling, attack reports,
exit codes, and byte-level determinism of written artifacts."""

import hashlib
import json

import pytest

import bfvlab.bfv as bfv
import bfvlab.psi as psi
from bfvlab import BfvParams, cli

from conftest import make_rng

SMALL = ["--d", "64", "--q", str(2**30), "--t", "256"]


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def write_keys(tmp_path, seed=3):
    prefix = tmp_path / "key"
    assert run_cli(["keygen", *SMALL, "--seed", seed, "--out", prefix]) == 0
    return f"{prefix}.sk.json", f"{prefix}.pk.json"


# --- key handling ---------------------------------------------------------------


def test_keygen_encrypt_decrypt_roundtrip(tmp_path):
    sk_path, pk_path = write_keys(tmp_path)
    pt_path = tmp_path / "m.json"
    pt_path.write_text("[7, 0, 255]")
    ct_path = tmp_path / "ct.json"
    assert (
        run_cli(
            ["encrypt", "--key", pk_path, "--in", pt_path, "--out", ct_path, "--seed", 4]
        )
        == 0
    )
    out_path = tmp_path / "pt.json"
    assert run_cli(["decrypt", "--key", sk_path, "--in", ct_path, "--out", out_path]) == 0
    decrypted = json.loads(out_path.read_text())
    assert decrypted[:3] == [7, 0, -1]  # 255 centers to -1 mod 256
    assert all(c == 0 for c in decrypted[3:])


def test_keygen_writes_valid_key_pair(tmp_path):
    sk_path, pk_path = write_keys(tmp_path, seed=9)
    sk = bfv.secret_key_from_json(json.loads(open(sk_path).read()))
    pk = bfv.public_key_from_json(json.loads(open(pk_path).read()))
    e = -(pk.pk0 + pk.pk1 * sk.s)
    assert 0 < e.max_abs() <= 19
    assert sk.params.d == 64


def test_encrypt_empty_plaintext_is_zero(tmp_path):
    sk_path, pk_path = write_keys(tmp_path)
    pt_path = tmp_path / "m.json"
    pt_path.write_text("[]")
    ct_path = tmp_path / "ct.json"
    run_cli(["encrypt", "--key", pk_path, "--in", pt_path, "--out", ct_path])
    out_path = tmp_path / "pt.json"
    run_cli(["decrypt", "--key", sk_path, "--in", ct_path, "--out", out_path])
    assert all(c == 0 for c in json.loads(out_path.read_text()))


def test_malformed_inputs_exit_with_error(tmp_path, capsys):
    _, pk_path = write_keys(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    rc = run_cli(["encrypt", "--key", pk_path, "--in", bad, "--out", tmp_path / "x"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # true used to encrypt as the coefficient 1
    boolean = tmp_path / "bool.json"
    boolean.write_text("[true, 1]")
    rc = run_cli(["encrypt", "--key", pk_path, "--in", boolean, "--out", tmp_path / "z"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # 300 is outside [-128, 256) at t = 256; it used to encrypt as 44
    wide = tmp_path / "wide.json"
    wide.write_text("[300]")
    rc = run_cli(["encrypt", "--key", pk_path, "--in", wide, "--out", tmp_path / "w"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # the same bound for psi inputs: at psi-83, 300 used to meet 51 as EQUAL
    rc = run_cli(["psi", "--alice", 300, "--bob", 51, "--out", tmp_path / "p"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = run_cli(
        ["decrypt", "--key", tmp_path / "missing.json", "--in", bad, "--out", tmp_path / "y"]
    )
    assert rc == 1
    # nesting past the recursion limit is an input error, not a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    rc = run_cli(["decrypt", "--key", deep, "--in", bad, "--out", tmp_path / "y"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_partial_custom_parameters_are_rejected(tmp_path, capsys):
    rc = run_cli(["keygen", "--d", "64", "--seed", 1, "--out", tmp_path / "k"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["attack", "cca", "--sigma", 50], ["keygen", "--params", "cca-1024", "--sigma", 50]],
    ids=["attack-default-set", "keygen-named-set"],
)
def test_sigma_without_explicit_parameters_is_rejected(tmp_path, capsys, argv):
    # a named set fixes sigma; --sigma used to be dropped with exit 0
    assert run_cli([*argv, "--out", tmp_path / "out"]) == 1
    assert "error: --sigma needs explicit --d, --q and --t" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# --- attack subcommands -----------------------------------------------------------


def test_attack_cca_report_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["attack", "cca", "--seed", 7, "--out", out1]) == 0
    assert run_cli(["attack", "cca", "--seed", 7, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["attack"] == "cca-one-query"
    assert report["parameter_set"]["name"] == "cca-1024"
    assert report["oracle_calls"] == 1
    assert report["success"] is True
    assert "elapsed_seconds" not in report


def test_explicit_flags_equal_to_a_set_get_its_name(tmp_path):
    out = tmp_path / "cca.json"
    argv = ["attack", "cca", "--d", 1024, "--q", 2**54, "--t", 256, "--out", out]
    assert run_cli(argv) == 0
    assert json.loads(out.read_text())["parameter_set"]["name"] == "cca-1024"


def test_attack_bitleak_small_parameters(tmp_path):
    out = tmp_path / "bitleak.json"
    assert run_cli(["attack", "bitleak", *SMALL, "--seed", 2, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["oracle_calls"] == 64
    assert report["success"] is True


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_attack_bitleak_wide_noise(tmp_path, seed):
    out = tmp_path / "bitleak.json"
    argv = ["--d", 1024, "--q", 2**54, "--t", 256, "--sigma", 16, "--seed", seed]
    assert run_cli(["attack", "bitleak", *argv, "--out", out]) == 0
    assert json.loads(out.read_text())["success"] is True


def test_attack_bitleak_refuses_unsound_parameters(tmp_path, capsys):
    out = tmp_path / "bitleak.json"
    argv = ["--d", 64, "--q", 2**20, "--t", 256, "--sigma", 200]
    assert run_cli(["attack", "bitleak", *argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "error: probe amplitude M + tail = 3425 misses the decrypt margin" in err
    assert not out.exists()


def test_attack_circuit_demonstrates_then_flooding_blocks(tmp_path):
    out = tmp_path / "c.json"
    rc = run_cli(["attack", "circuit", "--seed", 11, "--trials", 2, "--out", out])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["details"]["recoveries"] == 2
    flooded = tmp_path / "cf.json"
    rc = run_cli(
        [
            "attack",
            "circuit",
            "--seed",
            11,
            "--trials",
            2,
            "--flood",
            30,
            "--out",
            flooded,
        ]
    )
    assert rc == 2
    report = json.loads(flooded.read_text())
    assert report["details"]["recoveries"] == 0
    assert report["details"]["correctness_failures"] == 0


def test_attack_encoder_report(tmp_path):
    out = tmp_path / "enc.json"
    assert run_cli(["attack", "encoder", "--seed", 1, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["success"] is True
    assert report["recovered"]["sum_of_1_3"] != report["recovered"]["sum_of_2_2"]


# --- psi subcommand -----------------------------------------------------------------


def test_psi_honest_outcomes_and_transcript(tmp_path, capsys):
    out = tmp_path / "t.json"
    rc = run_cli(["psi", "--seed", 3, "--alice", 7, "--bob", 7, "--out", out])
    assert rc == 0
    assert "EQUAL" in capsys.readouterr().out
    transcript = psi.Transcript.from_json(json.loads(out.read_text()))
    assert psi.verify_transcript(transcript) is psi.Outcome.EQUAL

    rc = run_cli(["psi", "--seed", 3, "--alice", 7, "--bob", 8, "--out", out])
    assert rc == 0
    assert "NOT-EQUAL" in capsys.readouterr().out


def test_psi_transcripts_are_deterministic(tmp_path):
    out1 = tmp_path / "1.json"
    out2 = tmp_path / "2.json"
    run_cli(["psi", "--seed", 5, "--alice", 1, "--bob", 2, "--out", out1])
    run_cli(["psi", "--seed", 5, "--alice", 1, "--bob", 2, "--out", out2])
    assert out1.read_bytes() == out2.read_bytes()


def test_psi_malicious_probe_reports_key_bit(tmp_path, capsys):
    out = tmp_path / "probe.json"
    rc = run_cli(
        [
            "psi",
            *SMALL,
            "--seed",
            13,
            "--alice",
            9,
            "--bob",
            0,
            "--strategy",
            "malicious-probe",
            "--index",
            5,
            "--out",
            out,
        ]
    )
    assert rc == 0
    printed_equal = "NOT-EQUAL" not in capsys.readouterr().out

    # replay the session directly to learn the true key bit
    params = BfvParams(d=64, q=2**30, t=256)
    transcript = psi.run_session(params, 9, 0, make_rng(13), strategy=psi.MaliciousBitProbe(5))
    s_5 = transcript.alice.sk.s.to_coeff_list()[5]
    assert printed_equal == (s_5 == 0)


def test_psi_flooding_strategy(tmp_path, capsys):
    out = tmp_path / "f.json"
    rc = run_cli(
        [
            "psi",
            "--seed",
            4,
            "--alice",
            6,
            "--bob",
            6,
            "--strategy",
            "flooding",
            "--flood",
            30,
            "--out",
            out,
        ]
    )
    assert rc == 0
    assert "EQUAL" in capsys.readouterr().out
    # 2^47 is beyond psi-83's decrypt margin of about delta/2 = 2^46.6
    argv = ["psi", "--alice", 6, "--bob", 6, "--strategy", "flooding", "--flood", 47]
    assert run_cli([*argv, "--out", tmp_path / "g.json"]) == 1
    assert "error: flooded reply noise" in capsys.readouterr().err


def test_psi_refuses_parameters_an_honest_reply_can_miss(tmp_path, capsys):
    out = tmp_path / "t.json"
    argv = ["psi", "--d", 8, "--q", 97, "--t", 7, "--alice", 1, "--bob", 1, "--out", out]
    assert run_cli(argv) == 1
    assert "error: honest reply noise = 987 misses the decrypt margin" in capsys.readouterr().err
    assert not out.exists()


# --- parser behaviour ------------------------------------------------------------------


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name in ("keygen", "encrypt", "decrypt", "attack", "psi"):
        assert name in text


def test_unknown_arguments_are_rejected(tmp_path, capsys):
    # a usage error is bad input (1), never a held countermeasure (2)
    assert run_cli(["attack", "cca", "--bogus"]) == 1
    assert run_cli(["attack", "circuit", "--flod", 30]) == 1
    assert "unrecognized arguments: --flod" in capsys.readouterr().err
    # a flag the command does not use is refused, not ignored
    out = tmp_path / "out.json"
    psi_flooding = ["psi", "--alice", 1, "--bob", 1, "--strategy", "flooding"]
    for argv, message in (
        (["attack", "cca", "--flood", 30], "unrecognized arguments: --flood"),
        (["attack", "bitleak", *SMALL, "--trials", 5], "unrecognized arguments: --trials"),
        (["psi", "--alice", 1, "--bob", 1, "--index", 7], "--index needs --strategy"),
        (["psi", "--alice", 1, "--bob", 1, "--strategy", "honest", "--flood", 3],
         "--flood needs --strategy"),
        (["psi", "--alice", 1, "--bob", 1, "--strategy", "malicious-probe", "--flood", 3],
         "--flood needs --strategy"),
        # a negative BITS used to fail as "negative shift count", naming no flag;
        # anything but a decimal integer below 62 gets the one message
        *(
            ([*argv, "--flood", bits], "argument --flood: BITS must satisfy 0 <= BITS < 62")
            for argv in (["attack", "circuit"], psi_flooding)
            for bits in (-1, 62, "+3", "x")
        ),
    ):
        assert run_cli([*argv, "--out", out]) == 1, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_verbose_is_offered_only_where_it_prints(tmp_path):
    for argv in (["attack", "cca", "--verbose"], ["psi", "--alice", "1", "--bob", "1", "--verbose"]):
        assert cli.build_parser().parse_args(argv).verbose is True
    assert run_cli(["keygen", "--verbose", "--out", tmp_path / "k"]) == 1
    assert not (tmp_path / "k.sk.json").exists()


# --- pinned artifacts ------------------------------------------------------------------


PINNED_SHA256 = {
    # recorded under numpy 2.4.6; a numpy release that changes the
    # Generator streams changes these files too
    "keygen.sk": "7ae5ba8598a41fb73902280ea8d53a2efdad161767d14e43db8b416fe3a35ce4",
    "keygen.pk": "912d3554007320df875071deadb7897685fa1d4787453c412e17d6c39e24a3a4",
    "encrypt": "afd11bfb92132d88ff60037bf225c2d9694829d1978696165bc6aaa9c4042942",
    "decrypt": "f7f486f6b6a9fed4e805b55525b958e96d8311e18e8a2dbe827df60efd19fa2a",
    "attack.cca": "30f3593e0085735c3b1865a13b6cf9c2280c15e36fc7e4ce6e01d09097bada44",
    "attack.encoder": "436787f74bd20f81669168b8a7a3c0a7405bec1aae96fc4e84e0c9837cb98940",
    "attack.circuit": "36244253fff98aaaaf813baf9a60726c9a24a22c3a16467834c3fdfe03351e1b",
    "attack.circuit-flood": "20831882eeab157d4de70ac45b151bad16b21b5b199ffcf12e3af8740c911acc",
    "psi.honest": "ce1306d7f93e7e3b167f9bad42c364b3095070d97179ae75e4e5bce5036bb1f0",
    "psi.flooding": "22a17e6f883f2c11457aa5aaa6771296a8a88e65ae43f31facf7aa2e33c7264e",
    "psi.malicious-probe": "8291a69b8edd63a5a5a342d0b30a56a3b6b5e9a50c16c212b105963c628594b9",
}


def _seeded_artifacts(tmp_path):
    """Write one file per seeded subcommand; return {name: path}."""
    files = {}
    prefix = tmp_path / "key"
    assert run_cli(["keygen", *SMALL, "--seed", 3, "--out", prefix]) == 0
    files["keygen.sk"] = tmp_path / "key.sk.json"
    files["keygen.pk"] = tmp_path / "key.pk.json"
    plain = tmp_path / "m.json"
    plain.write_text("[7, 0, 255, -3]")
    files["encrypt"] = tmp_path / "ct.json"
    argv = ["encrypt", "--key", files["keygen.pk"], "--in", plain, "--seed", 4]
    assert run_cli([*argv, "--out", files["encrypt"]]) == 0
    files["decrypt"] = tmp_path / "pt.json"
    argv = ["decrypt", "--key", files["keygen.sk"], "--in", files["encrypt"]]
    assert run_cli([*argv, "--out", files["decrypt"]]) == 0
    for name, argv, code in (
        ("attack.cca", ["attack", "cca", *SMALL, "--seed", 5], 0),
        ("attack.encoder", ["attack", "encoder", *SMALL, "--seed", 6], 0),
        ("attack.circuit", ["attack", "circuit", "--seed", 7, "--trials", 3], 0),
        (
            "attack.circuit-flood",
            ["attack", "circuit", "--seed", 7, "--trials", 3, "--flood", 30],
            2,
        ),
        ("psi.honest", ["psi", "--seed", 8, "--alice", 5, "--bob", 5], 0),
        (
            "psi.flooding",
            ["psi", "--seed", 8, "--alice", 5, "--bob", 6, "--strategy", "flooding"],
            0,
        ),
        (
            "psi.malicious-probe",
            ["psi", "--seed", 8, "--alice", 5, "--bob", 0]
            + ["--strategy", "malicious-probe", "--index", 3],
            0,
        ),
    ):
        files[name] = tmp_path / f"{name}.json"
        assert run_cli([*argv, "--out", files[name]]) == code
    return files


def test_seeded_artifacts_are_pinned(tmp_path):
    """Every seeded file is byte-for-byte what the pinned hashes say."""
    files = _seeded_artifacts(tmp_path)
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
    assert got == PINNED_SHA256


def test_written_files_are_one_line_of_sorted_json(tmp_path):
    """Files share the wire frames' layout: compact, sorted keys, one newline."""
    for name, path in _seeded_artifacts(tmp_path).items():
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", name


def test_indented_files_from_earlier_versions_still_load(tmp_path):
    """Keys and ciphertexts written with indent=2 read the same as compact ones."""
    write_keys(tmp_path)
    plain = tmp_path / "m.json"
    plain.write_text("[7, 0, 255, -3]")

    def encrypt(key, out):
        argv = ["encrypt", "--key", key, "--in", plain, "--seed", 4, "--out", out]
        assert run_cli(argv) == 0
        return out.read_bytes()

    def decrypt(key, ct, out):
        assert run_cli(["decrypt", "--key", key, "--in", ct, "--out", out]) == 0
        return out.read_bytes()

    def indented(name):
        path, old = tmp_path / name, tmp_path / f"indented-{name}"
        old.write_text(json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True) + "\n")
        assert old.read_text() != path.read_text()
        return old

    ct = encrypt(tmp_path / "key.pk.json", tmp_path / "ct.json")
    assert encrypt(indented("key.pk.json"), tmp_path / "ct-again.json") == ct
    pt = decrypt(tmp_path / "key.sk.json", tmp_path / "ct.json", tmp_path / "pt.json")
    old_sk, old_ct = indented("key.sk.json"), indented("ct.json")
    assert decrypt(old_sk, old_ct, tmp_path / "pt-old.json") == pt
