"""Equality protocol: outcomes, wire format, state-machine order,
transcripts, replay rejection, and the attack compositions."""

import json

import numpy as np
import pytest

import bfvlab.bfv as bfv
from bfvlab import BfvParams, Ciphertext, Polynomial, get_params
from bfvlab.attacks import (
    FloodedOrMalformedError,
    bit_leak_attack,
    bit_leak_probe,
    circuit_privacy_recover,
)
from bfvlab.psi import (
    AliceState,
    Flooding,
    MaliciousBitProbe,
    Outcome,
    ProtocolError,
    Transcript,
    WireMessage,
    alice_finish,
    alice_init,
    alice_query,
    bob_init,
    bob_respond,
    decode_frame,
    encode_frame,
    run_session,
    session_zero_check_oracle,
    verify_transcript,
)
from bfvlab.ring import monomial, reduce_centered

from conftest import make_rng


# --- outcomes ------------------------------------------------------------------


def test_honest_equal_and_unequal_at_full_size():
    params = get_params("psi-83")
    assert run_session(params, 7, 7, make_rng(1)).outcome == "equal"
    assert run_session(params, 7, 9, make_rng(2)).outcome == "not-equal"
    assert run_session(params, 0, 0, make_rng(3)).outcome == "equal"


def test_correctness_over_1000_honest_sessions():
    params = get_params("psi-83")
    rng = make_rng(4)
    for _ in range(1000):
        m_a = int(rng.integers(-41, 42))
        m_b = m_a if rng.random() < 0.5 else int(rng.integers(-41, 42))
        transcript = run_session(params, m_a, m_b, rng.spawn(1)[0])
        equal = reduce_centered(m_a, 83) == reduce_centered(m_b, 83)
        assert transcript.outcome == ("equal" if equal else "not-equal"), (m_a, m_b)


def test_no_false_positives_over_many_runs(small_prime_t_params):
    # distinct inputs must never produce Equal: r*(m_b - m_a) != 0 for prime t
    params = small_prime_t_params
    rng = make_rng(5)
    keys = bfv.keygen(params, rng)
    t = params.t
    for _ in range(10**4):
        m_a = int(rng.integers(0, t))
        offset = int(rng.integers(1, t))
        m_b = (m_a + offset) % t
        transcript = run_session(
            params, m_a, m_b, rng.spawn(1)[0], alice_keys=keys
        )
        assert transcript.outcome == "not-equal", (m_a, m_b)


@pytest.mark.parametrize(
    "value",
    [
        2.7,
        "5",
        True,
        None,
        np.float64(2.0),
        # small_params' set, so only the integer check can refuse it
        pytest.param(
            monomial(0, 2, 64, 256),
            id="plaintext",
        ),
        # outside [-128, 256) at small_params' t = 256
        pytest.param(256, id="t"),
        pytest.param(-129, id="below-minus-half-t"),
        pytest.param(300, id="300"),
    ],
)
def test_session_inputs_must_be_integers(small_params, value):
    # 2.7 used to be truncated to 2 and compare equal to 2; 300 used to be
    # reduced mod t to 44
    with pytest.raises(ValueError):
        run_session(small_params, value, 2, make_rng(4))
    with pytest.raises(ValueError):
        run_session(small_params, 2, value, make_rng(4))
    assert run_session(small_params, np.int64(2), 2, make_rng(4)).outcome == "equal"


@pytest.mark.parametrize("seed", [0, 1])
def test_session_refuses_parameters_an_honest_reply_can_miss(seed):
    # |r| <= t//2 = 3 scales Alice's noise: 3*((2d+1)*tail + q mod t) = 3*(17*19 + 6)
    # = 987, and 2t*987 >= q; these sessions used to answer NOT-EQUAL for 1 == 1
    params = BfvParams(d=8, q=97, t=7)
    rng = make_rng(seed)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="honest reply noise = 987 misses the decrypt margin"):
        run_session(params, 1, 1, rng)
    # the refusal names the one bound that bob_reply also checks
    bound = bfv.reply_noise_bound(params, params.t // 2)
    with pytest.raises(ValueError, match=f"honest reply noise = {bound} misses"):
        alice_init(params, 1, rng)
    assert rng.bit_generator.state == state  # refused before any draw


def test_flooding_strategy_preserves_outcomes():
    params = get_params("psi-83")
    rng = make_rng(6)
    for m_a, m_b in ((5, 5), (5, 6), (-40, 40), (0, 0)):
        transcript = run_session(
            params, m_a, m_b, rng.spawn(1)[0], strategy=Flooding(bound=2**30)
        )
        expected = "equal" if m_a == m_b else "not-equal"
        assert transcript.outcome == expected


# --- wire format -----------------------------------------------------------------


def test_frame_roundtrip():
    msg = WireMessage("ab" * 16, "result", {"outcome": "equal"})
    assert decode_frame(encode_frame(msg)) == msg


def test_frame_rejects_garbage():
    msg = WireMessage("ab" * 16, "result", {"outcome": "equal"})
    frame = encode_frame(msg)
    with pytest.raises(ProtocolError):
        decode_frame(frame[:3])
    with pytest.raises(ProtocolError):
        decode_frame(frame + b"x")
    with pytest.raises(ProtocolError):
        decode_frame(frame[:4] + b"{" * (len(frame) - 4))
    bad_kind = json.dumps(
        {"session_id": "x", "kind": "bogus", "body": {}}
    ).encode()
    with pytest.raises(ProtocolError):
        decode_frame(len(bad_kind).to_bytes(4, "big") + bad_kind)
    # json refuses integers past its digit limit with a plain ValueError
    long_int = b'{"session_id": "x", "kind": "result", "body": {"n": 1' + b"0" * 5000 + b"}}"
    with pytest.raises(ProtocolError):
        decode_frame(len(long_int).to_bytes(4, "big") + long_int)
    # and deep nesting with RecursionError
    deep = b"[" * 100_000
    with pytest.raises(ProtocolError):
        decode_frame(len(deep).to_bytes(4, "big") + deep)
    # a frame that is not bytes used to raise TypeError
    for not_bytes in (frame.decode(), None, 7, list(frame)):
        with pytest.raises(ProtocolError, match="frame must be bytes"):
            decode_frame(not_bytes)


def test_pubkey_message_roundtrips_and_satisfies_key_relation(small_params):
    rng = make_rng(7)
    alice, msg = alice_init(small_params, 3, rng)
    received = decode_frame(encode_frame(msg))
    pk = bfv.public_key_from_json(received.body)
    assert pk.params == small_params
    e = -(pk.pk0 + pk.pk1 * alice.sk.s)
    assert 0 < e.max_abs() <= 19


def test_query_decrypts_to_alice_input(small_params):
    rng = make_rng(8)
    alice, _ = alice_init(small_params, 37, rng)
    query = alice_query(alice)
    ct = bfv.ciphertext_from_json(query.body)
    assert bfv.decrypt(alice.sk, ct).to_coeff_list()[0] == 37


def test_sessions_use_fresh_randomness(small_params):
    rng = make_rng(9)
    t1 = run_session(small_params, 5, 5, rng.spawn(1)[0])
    t2 = run_session(small_params, 5, 5, rng.spawn(1)[0])
    assert t1.session_id != t2.session_id
    assert t1.frames[1]["body"]["payload"] != t2.frames[1]["body"]["payload"]


# --- state machine order -----------------------------------------------------------


def test_message_order_violations_raise_protocol_errors(small_params):
    rng = make_rng(10)
    alice, pub = alice_init(small_params, 1, rng.spawn(1)[0])
    bob = bob_init(small_params, 2, pub, rng.spawn(1)[0])
    query = alice_query(alice)
    with pytest.raises(ProtocolError):
        alice_query(alice)  # already sent
    response = bob_respond(bob, query)
    with pytest.raises(ProtocolError):
        bob_respond(bob, query)  # already responded
    outcome = alice_finish(alice, response)
    assert outcome is Outcome.NOT_EQUAL
    with pytest.raises(ProtocolError):
        alice_finish(alice, response)  # already done


def test_receivers_reject_every_wrong_kind(small_params):
    rng = make_rng(11)
    transcript = run_session(small_params, 1, 2, rng.spawn(1)[0])
    by_kind = {
        frame["kind"]: WireMessage(frame["session_id"], frame["kind"], frame["body"])
        for frame in transcript.frames
    }
    consumers = {
        "pubkey": lambda msg: bob_init(small_params, 2, msg, rng.spawn(1)[0]),
        "query": lambda msg: bob_respond(
            bob_init(small_params, 2, by_kind["pubkey"], rng.spawn(1)[0]), msg
        ),
        "response": lambda msg: alice_finish(
            _fresh_sent_alice(small_params, rng), msg
        ),
    }
    for expected_kind, consume in consumers.items():
        for kind, msg in by_kind.items():
            if kind != expected_kind:
                with pytest.raises(ProtocolError):
                    consume(msg)


def _fresh_sent_alice(params, rng) -> AliceState:
    alice, _ = alice_init(params, 1, rng.spawn(1)[0])
    alice_query(alice)
    return alice


def test_cross_session_messages_are_rejected(small_params):
    rng = make_rng(12)
    alice1, pub1 = alice_init(small_params, 1, rng.spawn(1)[0])
    alice2, _ = alice_init(small_params, 1, rng.spawn(1)[0])
    bob1 = bob_init(small_params, 2, pub1, rng.spawn(1)[0])
    query2 = alice_query(alice2)
    with pytest.raises(ProtocolError):
        bob_respond(bob1, query2)


def test_mismatched_parameters_are_rejected(small_params, small_prime_t_params):
    rng = make_rng(13)
    _, pub = alice_init(small_params, 1, rng.spawn(1)[0])
    with pytest.raises(ProtocolError):
        bob_init(small_prime_t_params, 2, pub, rng.spawn(1)[0])


def test_bob_blinding_scalar_is_nonzero(small_prime_t_params):
    rng = make_rng(14)
    for _ in range(50):
        _, pub = alice_init(small_prime_t_params, 1, rng.spawn(1)[0])
        bob = bob_init(small_prime_t_params, 2, pub, rng.spawn(1)[0])
        assert not bob.r.is_zero()


@pytest.mark.parametrize("diff", [128, 64])
def test_unequal_inputs_never_answer_equal_at_even_t(small_params, diff):
    # at t = 256 an even r times 128 (or a multiple of 4 times 64) is 0 mod t,
    # so r must be a unit mod t for unequal inputs to read Not-equal
    for seed in range(16):
        assert run_session(small_params, 0, diff, make_rng(seed)).outcome == "not-equal", seed


# --- transcripts ---------------------------------------------------------------------


def test_transcript_roundtrip_and_verification(small_params):
    transcript = run_session(small_params, 4, 4, make_rng(15))
    assert verify_transcript(transcript) is Outcome.EQUAL
    loaded = Transcript.from_json(json.loads(json.dumps(transcript.to_json())))
    assert loaded == transcript
    assert verify_transcript(loaded) is Outcome.EQUAL
    # the parties' states stay in memory: never serialized, never compared
    assert transcript.alice is not None and transcript.bob is not None
    assert loaded.alice is None and loaded.bob is None
    assert set(transcript.to_json()) == {"session_id", "frames", "outcome"}


def test_transcript_tampering_is_detected(small_params):
    base = run_session(small_params, 4, 5, make_rng(16))
    reordered = Transcript(base.session_id, base.frames[::-1], base.outcome)
    with pytest.raises(ProtocolError):
        verify_transcript(reordered)
    flipped = Transcript(base.session_id, base.frames, "equal")
    with pytest.raises(ProtocolError):
        verify_transcript(flipped)
    foreign = [dict(f) for f in base.frames]
    foreign[1]["session_id"] = "00" * 16
    with pytest.raises(ProtocolError):
        verify_transcript(Transcript(base.session_id, foreign, base.outcome))
    with pytest.raises(ProtocolError):
        Transcript.from_json({"frames": []})
    # a loaded session id is a string and a loaded outcome an Outcome value
    for fields in ({"session_id": 5}, {"session_id": None}, {"outcome": ["x"]}, {"outcome": "no"}):
        tampered = {**base.to_json(), **fields}
        with pytest.raises(ProtocolError):
            Transcript.from_json(tampered)
        with pytest.raises(ProtocolError):
            verify_transcript(Transcript(**tampered))
    # a frame with a key no message has is refused even where all else is intact
    extra = [dict(f) for f in base.frames]
    extra[1]["note"] = "added"
    with pytest.raises(ProtocolError, match="frame object must have"):
        verify_transcript(Transcript(base.session_id, extra, base.outcome))
    with pytest.raises(ProtocolError, match="frame object must have"):
        Transcript.from_json({**base.to_json(), "frames": extra})
    # so is a body key that the query or the result has no use for
    for index, match in ((1, "unknown field 'note'"), (3, "exactly the outcome")):
        padded = [dict(f) for f in base.frames]
        padded[index]["body"] = {**padded[index]["body"], "note": "added"}
        with pytest.raises(ProtocolError, match=match):
            verify_transcript(Transcript(base.session_id, padded, base.outcome))


def _frames_with(**changes):
    """Four frames of the right shape in protocol order, the first one changed."""
    kinds = ("pubkey", "query", "response", "result")
    frames = [{"session_id": "00" * 16, "kind": kind, "body": {}} for kind in kinds]
    frames[0].update(changes)
    return frames


@pytest.mark.parametrize(
    "frames",
    [
        None,
        [1, 2, 3, 4],
        [[], [], [], []],
        "abcd",
        pytest.param(_frames_with(extra=1), id="extra-key"),
        pytest.param(_frames_with(kind="hello"), id="unknown-kind"),
        pytest.param(_frames_with(session_id=7), id="int-session-id"),
    ],
)
def test_malformed_transcript_frames_raise_protocol_errors(frames):
    session_id = "00" * 16
    with pytest.raises(ProtocolError):
        verify_transcript(Transcript(session_id, frames, "equal"))
    with pytest.raises(ProtocolError):
        Transcript.from_json({"session_id": session_id, "frames": frames, "outcome": "equal"})


# --- attack compositions ----------------------------------------------------------------


def test_malicious_probe_outcome_leaks_key_bit(small_params):
    rng = make_rng(19)
    keys = bfv.keygen(small_params, rng)
    s = keys[0].s.to_coeff_list()
    for index in (0, 5, 63):
        transcript = run_session(
            small_params,
            9,
            0,
            rng.spawn(1)[0],
            strategy=MaliciousBitProbe(index),
            alice_keys=keys,
        )
        # Equal (zero decryption) exactly when the probed bit is 0
        assert (transcript.outcome == "equal") == (s[index] == 0)
    # True used to probe every key coefficient at once and answer
    with pytest.raises(ValueError, match="monomial index"):
        run_session(small_params, 9, 0, rng, strategy=MaliciousBitProbe(True), alice_keys=keys)
    # and a flood bound of 2.5 used to be accepted
    with pytest.raises(ValueError, match="flood_bound must be an integer"):
        run_session(small_params, 9, 0, rng, strategy=Flooding(2.5), alice_keys=keys)


def test_session_oracle_recovers_full_key(small_params):
    rng = make_rng(20)
    keys = bfv.keygen(small_params, rng)
    oracle = session_zero_check_oracle(9, keys, rng.spawn(1)[0])
    recovered = bit_leak_attack(oracle, keys[1], small_params)
    assert recovered.s == keys[0].s
    assert oracle.calls == small_params.d


def test_session_oracle_spot_checks_at_full_size():
    params = get_params("psi-83")
    rng = make_rng(21)
    keys = bfv.keygen(params, rng)
    oracle = session_zero_check_oracle(3, keys, rng.spawn(1)[0])
    s = keys[0].s.to_coeff_list()
    for index in (0, 777, 2047):
        assert oracle(bit_leak_probe(keys[1], index, params)) == (s[index] == 0)


def test_session_oracle_rejects_non_probe_queries(small_params):
    rng = make_rng(22)
    keys = bfv.keygen(small_params, rng)
    oracle = session_zero_check_oracle(9, keys, rng.spawn(1)[0])
    m = monomial(0, 1, small_params.d, small_params.t)
    ct = bfv.encrypt(keys[1], m, rng)
    with pytest.raises(ProtocolError):
        oracle(ct)
    # a probe whose c1 or amplitude is off is not a probe either
    probe = bit_leak_probe(keys[1], 0, small_params)
    one = monomial(0, 1, small_params.d, small_params.q)
    for query in (
        Ciphertext(probe.c0, probe.c1 + one, small_params),
        Ciphertext(probe.c0 + one, probe.c1, small_params),
    ):
        with pytest.raises(ProtocolError):
            oracle(query)
    assert oracle.calls == 3


def test_attacker_alice_recovers_bob_secrets_from_transcript():
    params = get_params("psi-83")
    rng = make_rng(23)
    hits = 0
    for _ in range(20):
        m_a = int(rng.integers(-41, 42))
        m_b = int(rng.integers(-41, 42))
        transcript = run_session(params, m_a, m_b, rng.spawn(1)[0])
        alice = transcript.alice
        c_a = bfv.ciphertext_from_json(transcript.frames[1]["body"])
        c_ab = bfv.ciphertext_from_json(transcript.frames[2]["body"])
        r_rec, m_b_rec = circuit_privacy_recover(alice.sk, c_a, alice.m_a, c_ab)
        assert r_rec == transcript.bob.r
        assert m_b_rec.to_coeff_list()[0] == reduce_centered(m_b, params.t)
        hits += 1
    assert hits == 20


def test_attacker_alice_blocked_by_flooding_bob():
    params = get_params("psi-83")
    rng = make_rng(24)
    for _ in range(20):
        m_a = int(rng.integers(-41, 42))
        m_b = int(rng.integers(-41, 42))
        transcript = run_session(
            params, m_a, m_b, rng.spawn(1)[0], strategy=Flooding(bound=2**30)
        )
        alice = transcript.alice
        c_a = bfv.ciphertext_from_json(transcript.frames[1]["body"])
        c_ab = bfv.ciphertext_from_json(transcript.frames[2]["body"])
        with pytest.raises(FloodedOrMalformedError):
            circuit_privacy_recover(alice.sk, c_a, alice.m_a, c_ab)
